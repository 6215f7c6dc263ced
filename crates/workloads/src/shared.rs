//! The shared-heap driver: N clients, **one** versioned store, real
//! conflicts — resolved deterministically.
//!
//! [`run_parallel`](crate::runner::run_parallel) gives every worker a
//! disjoint key partition, so its transactions never conflict. This
//! driver instead runs every worker's transactions against one logical
//! [`VersionedHeap`] with optimistic concurrency control:
//!
//! 1. **Speculate.** Between epoch boundaries each worker runs its
//!    transactions against an immutable heap *snapshot* (Arc-shared
//!    copy-on-write pages pin the epoch version). Loads go through the
//!    worker's own engine first — paying honest cache/memory timing on
//!    its machine shard — and the returned bytes are then overridden
//!    from (write buffer → own epoch overlay → heap snapshot). Stores
//!    are buffered; nothing touches shared state mid-epoch.
//! 2. **Validate.** At the epoch boundary every worker deposits its
//!    [`CommitIntent`]s (read/write line sets, buffered bytes, the local
//!    virtual time each transaction finished at). One barrier leader
//!    orders all intents by (time, worker index, submission index) and
//!    validates them first-committer-wins against the published line
//!    versions ([`ssp_txn::occ::validate_epoch`]); winners' writes are
//!    published into the next heap version. The computation is a pure
//!    function of the deposited streams, so threaded and sequential
//!    execution resolve bit-identically.
//! 3. **Publish / retry.** Each worker then *replays* its winning
//!    transactions as real engine transactions on its own shard
//!    (begin, sorted line stores, commit) — commit-time page
//!    publication pays the engine's genuine persistence cost and lands
//!    in the shard's NVRAM, so fingerprints stay deterministic. Losers
//!    are re-executed in the next epoch from their saved RNG state,
//!    after a deterministic bounded-exponential backoff is charged to
//!    the worker's clock.
//!
//! When the machine config enables the interconnect, the same barrier
//! also carries the memory-event streams and the epoch merge charges
//! bank/LLC/coherence contention exactly like
//! [`run_parallel`](crate::runner::run_parallel) — commit intents ride
//! the existing epoch machinery.
//!
//! # Requirements on workloads
//!
//! * `setup` must be identical for every worker (it seeds the shared
//!   heap once and warms every local shard the same way); all pages are
//!   mapped in `setup` — `map_new_page` is not available mid-run.
//! * `run_txn` must be *replayable*: a pure function of (engine reads,
//!   RNG). The driver re-runs aborted transactions from a saved RNG
//!   snapshot.
//!
//! [`ConflictSps`](crate::conflict::ConflictSps) is the canonical
//! conflict-dial workload for this driver.

use std::collections::VecDeque;
use std::time::Duration;

use fxhash::FxHashMap;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ssp_simulator::addr::{VirtAddr, Vpn, LINE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_simulator::fault::FaultSite;
use ssp_simulator::interconnect::EpochCharge;
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::{LatencyStats, ObsKind};
use ssp_simulator::stats::MachineStats;
use ssp_txn::engine::{line_spans, TxnEngine, TxnStats};
use ssp_txn::occ::{
    validate_epoch, BackoffPolicy, CommitIntent, LineWrite, SpecTxn, Verdict, VersionedHeap,
};

use crate::kernel::{drive, Epoch, Protocol};
use crate::runner::{
    worker_seed, worker_share, EpochBoard, FaultPlan, Ladder, MeasuredShard, RunConfig, RunResult,
    ShardBase, Workload, SHARD_CORE,
};
use crate::storm::{OracleEngine, Storm, StormRun, StormSchedule};

/// Knobs of the shared-heap mode (the conflict *rate* is a workload
/// knob — see [`ConflictSps`](crate::conflict::ConflictSps)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedHeapConfig {
    /// Epoch length in cycles when the interconnect is disabled (an
    /// enabled interconnect's `epoch_cycles` takes precedence so commit
    /// intents and memory streams share one boundary).
    pub epoch_cycles: u64,
    /// Deterministic backoff charged before each retry.
    pub backoff: BackoffPolicy,
}

impl Default for SharedHeapConfig {
    fn default() -> Self {
        Self {
            epoch_cycles: 50_000,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// OCC outcome counters of a shared-heap run (per shard, and merged in
/// worker order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Commit intents submitted to validation.
    pub validated: u64,
    /// Intents that won and were published.
    pub committed: u64,
    /// Intents that lost (conflicts + cascades); each is retried.
    pub aborted: u64,
    /// Losses to a real published-line conflict.
    pub conflicts: u64,
    /// Losses cascaded from an earlier same-worker loss in the epoch.
    pub cascades: u64,
    /// Re-executions after an abort (equals `aborted` once a run
    /// drains).
    pub retries: u64,
    /// Total backoff cycles charged to the shard clocks.
    pub backoff_cycles: u64,
    /// High-water attempt count any transaction needed (0 = first try).
    pub max_attempt: u64,
}

impl SharedStats {
    /// Folds another shard's counters in (worker-index order in the
    /// drivers, so merged results are schedule-independent).
    pub fn merge(&mut self, o: &SharedStats) {
        self.validated += o.validated;
        self.committed += o.committed;
        self.aborted += o.aborted;
        self.conflicts += o.conflicts;
        self.cascades += o.cascades;
        self.retries += o.retries;
        self.backoff_cycles += o.backoff_cycles;
        self.max_attempt = self.max_attempt.max(o.max_attempt);
    }

    /// Aborted fraction of all validated intents.
    pub fn abort_rate(&self) -> f64 {
        if self.validated == 0 {
            0.0
        } else {
            self.aborted as f64 / self.validated as f64
        }
    }
}

/// One worker's share of a shared-heap run.
#[derive(Debug)]
pub struct SharedShardRun<E> {
    /// The worker's engine, for inspection (fingerprints, recovery).
    pub engine: E,
    /// Worker index.
    pub worker: usize,
    /// Measured transactions this worker committed.
    pub txns: u64,
    /// Measured-phase cycles on this worker's core.
    pub elapsed_cycles: u64,
    /// Measured-phase machine counters.
    pub stats: MachineStats,
    /// Measured-phase transaction statistics (OCC aborts folded into
    /// `aborted`).
    pub txn_stats: TxnStats,
    /// Measured-phase latency histograms.
    pub latency: LatencyStats,
    /// Measured-phase OCC counters.
    pub shared: SharedStats,
}

/// Result of a [`run_shared`] run.
#[derive(Debug)]
pub struct SharedRun<E> {
    /// Merged measurements (deterministic across modes and repeats).
    pub result: RunResult,
    /// Merged OCC counters.
    pub shared: SharedStats,
    /// Per-worker results in worker-index order.
    pub shards: Vec<SharedShardRun<E>>,
    /// Host wall-clock of the measured phase (not deterministic).
    pub host_elapsed: Duration,
}

impl<E> MeasuredShard for SharedShardRun<E> {
    fn measured(&self) -> (u64, &MachineStats, &TxnStats, &LatencyStats) {
        (
            self.elapsed_cycles,
            &self.stats,
            &self.txn_stats,
            &self.latency,
        )
    }
}

/// Speculative engine view handed to `Workload::run_txn`: loads pay the
/// local engine's timing, bytes resolve write-buffer → epoch overlay →
/// heap snapshot, stores are buffered into the read/write sets.
struct SpecView<'a, E> {
    inner: &'a mut E,
    heap: &'a VersionedHeap,
    overlay: &'a FxHashMap<u64, LineWrite>,
    txn: &'a mut SpecTxn,
}

impl<E: TxnEngine> TxnEngine for SpecView<'_, E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn machine(&self) -> &Machine {
        self.inner.machine()
    }
    fn machine_mut(&mut self) -> &mut Machine {
        self.inner.machine_mut()
    }
    fn map_new_page(&mut self, _core: CoreId) -> Vpn {
        panic!("shared-heap workloads must map every page during setup");
    }
    fn begin(&mut self, _core: CoreId) {
        panic!("the shared-heap driver manages transaction boundaries");
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        // Honest timing through the local hierarchy; the *bytes* are then
        // overridden from the logical shared heap wherever it has the
        // page (local engine content can be stale — other workers'
        // commits never replay into this shard).
        self.inner.load(core, addr, buf);
        self.heap.read_into(addr, buf);
        for span in line_spans(addr, buf.len()) {
            if let Some(w) = self.overlay.get(&span.addr.line_base().raw()) {
                w.apply_to(addr, buf);
            }
        }
        self.txn.apply_overlay(addr, buf);
        self.txn.record_read(addr, buf.len());
    }
    fn store(&mut self, _core: CoreId, addr: VirtAddr, data: &[u8]) {
        // Buffered in the core's (volatile) write set; the cost is paid
        // at publication, when the winning intent replays through the
        // real engine.
        self.txn.buffer_store(addr, data);
    }
    fn commit(&mut self, _core: CoreId) {
        panic!("the shared-heap driver manages transaction boundaries");
    }
    fn abort(&mut self, _core: CoreId) {
        panic!("the shared-heap driver manages transaction boundaries");
    }
    fn crash(&mut self) {
        panic!("crashes are driven by the harness, not workloads");
    }
    fn recover(&mut self) {
        panic!("crashes are driven by the harness, not workloads");
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}

/// Setup-capture view: forwards everything to the inner engine (setup
/// runs real transactions on every shard) and mirrors each store into
/// the heap's seed state.
struct CaptureView<'a, E> {
    inner: &'a mut E,
    heap: &'a mut VersionedHeap,
}

impl<E: TxnEngine> TxnEngine for CaptureView<'_, E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn machine(&self) -> &Machine {
        self.inner.machine()
    }
    fn machine_mut(&mut self) -> &mut Machine {
        self.inner.machine_mut()
    }
    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        self.inner.map_new_page(core)
    }
    fn begin(&mut self, core: CoreId) {
        self.inner.begin(core)
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        self.inner.load(core, addr, buf)
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        self.heap.seed_store(addr, data);
        self.inner.store(core, addr, data)
    }
    fn commit(&mut self, core: CoreId) {
        self.inner.commit(core)
    }
    fn abort(&mut self, _core: CoreId) {
        panic!("setup transactions must not abort (the heap seed already absorbed their stores)");
    }
    fn crash(&mut self) {
        panic!("crashes are driven by the harness, not workloads");
    }
    fn recover(&mut self) {
        panic!("crashes are driven by the harness, not workloads");
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}

/// What the shards of a shared-heap run exchange at the epoch boundary:
/// the canonical heap, and the commit intents riding the same rendezvous
/// as the interconnect streams.
struct SharedBoard {
    /// Seeded by the first deposit: the shards are built inside the
    /// drive, so there is no worker to take the setup's bytes from
    /// before that.
    heap: Option<VersionedHeap>,
    ic: EpochBoard,
    intents: Vec<Vec<CommitIntent>>,
    /// The run is still in its warm-up phase: when it drains, the
    /// measured phase starts instead of the run ending.
    warming: bool,
}

impl SharedBoard {
    fn new(workers: usize, warming: bool) -> Self {
        Self {
            heap: None,
            ic: EpochBoard::new(workers),
            intents: vec![Vec::new(); workers],
            warming,
        }
    }
}

/// One shard's share of an epoch's outcome.
#[derive(Default)]
struct EpochOutcome {
    charge: Option<EpochCharge>,
    verdicts: Vec<Verdict>,
    /// The shard's own intents back, aligned with `verdicts`.
    intents: Vec<CommitIntent>,
    /// The heap version the epoch published (the next snapshot).
    heap: VersionedHeap,
    /// This epoch drained the warm-up phase.
    warmed: bool,
}

/// Per-worker driver state. The [`FaultPlan`]'s `committed` follows each
/// winning intent's publication replay.
struct SharedWorker<E, W, P = ()> {
    engine: E,
    workload: W,
    rng: SmallRng,
    lat: LatencyStats,
    /// This worker's heap snapshot (refreshed at every boundary).
    heap: VersionedHeap,
    /// Own speculative writes of the current epoch, by line.
    overlay: FxHashMap<u64, LineWrite>,
    spec: SpecTxn,
    /// Intents of the current epoch, in submission order.
    pending_intents: Vec<CommitIntent>,
    /// (pre-run RNG state, attempt) aligned with `pending_intents`.
    pending_meta: Vec<(SmallRng, u32)>,
    /// Aborted transactions to re-run, FIFO, before any fresh work.
    retries: VecDeque<(SmallRng, u32)>,
    /// Fresh transactions not yet started.
    fresh: u64,
    /// Fresh transactions of the measured phase, while warming up.
    measured_share: u64,
    /// Measurement baselines, snapshotted where the warm-up ends.
    base: Option<ShardBase>,
    /// The epoch ladder: an enabled interconnect's epoch length (so
    /// commit intents and memory streams share one rendezvous), else the
    /// shared-heap config's own.
    ladder: Ladder,
    shared: SharedStats,
    backoff: BackoffPolicy,
    plan: P,
    w: usize,
}

impl<E: TxnEngine, W: Workload, P: FaultPlan<E>> SharedWorker<E, W, P> {
    /// Builds shard `w`, runs workload setup through the capture view —
    /// the local shard gets its real persistent state (identical on
    /// every worker) and the heap snapshot gets the seed bytes — and
    /// starts the first phase of `fresh` transactions.
    fn set_up(
        engine: E,
        workload: W,
        cfg: &RunConfig,
        shared_cfg: &SharedHeapConfig,
        plan: P,
        w: usize,
        fresh: u64,
    ) -> Self {
        let mut worker = Self {
            ladder: Ladder::new(engine.machine().config(), shared_cfg.epoch_cycles),
            engine,
            workload,
            rng: SmallRng::seed_from_u64(worker_seed(cfg.seed, w)),
            lat: LatencyStats::default(),
            heap: VersionedHeap::new(),
            overlay: FxHashMap::default(),
            spec: SpecTxn::new(),
            pending_intents: Vec::new(),
            pending_meta: Vec::new(),
            retries: VecDeque::new(),
            fresh: 0,
            measured_share: 0,
            base: None,
            shared: SharedStats::default(),
            backoff: shared_cfg.backoff,
            plan,
            w,
        };
        let mut view = CaptureView {
            inner: &mut worker.engine,
            heap: &mut worker.heap,
        };
        worker.workload.setup(&mut view, SHARD_CORE);
        worker.engine.machine_mut().discard_mem_events();
        worker.begin_phase(fresh);
        worker
    }

    /// Starts a phase of `fresh` transactions with a new epoch ladder.
    fn begin_phase(&mut self, fresh: u64) {
        self.fresh = fresh;
        self.ladder.start(self.engine.machine());
    }

    /// Speculates until the local clock reaches the boundary or no work
    /// is left: retries first (after their backoff charge), then fresh
    /// transactions off the main RNG stream.
    fn run_epoch(&mut self) {
        debug_assert!(self.pending_intents.is_empty());
        self.overlay.clear();
        while self.engine.machine().cycles(SHARD_CORE) < self.ladder.target {
            let (mut run_rng, attempt) = if let Some((rng, attempt)) = self.retries.pop_front() {
                let delay = self.backoff.delay(attempt);
                self.engine.machine_mut().add_cycles(SHARD_CORE, delay);
                self.engine
                    .machine_mut()
                    .obs_record(ObsKind::OccRetry, delay);
                self.shared.retries += 1;
                self.shared.backoff_cycles += delay;
                (rng, attempt)
            } else if self.fresh > 0 {
                self.fresh -= 1;
                (self.rng.clone(), 0)
            } else {
                break;
            };
            let rng_before = run_rng.clone();
            let c1 = self.engine.machine().cycles(SHARD_CORE);
            {
                let mut view = SpecView {
                    inner: &mut self.engine,
                    heap: &self.heap,
                    overlay: &self.overlay,
                    txn: &mut self.spec,
                };
                self.workload.run_txn(&mut view, SHARD_CORE, &mut run_rng);
            }
            let c2 = self.engine.machine().cycles(SHARD_CORE);
            if attempt == 0 {
                // Fresh transactions advance the main stream; retries run
                // off their saved snapshot and must not.
                self.rng = run_rng;
            }
            let seq = self.pending_intents.len() as u64;
            let intent =
                self.spec
                    .take_intent(c2, self.w as u32, seq, attempt, self.heap.seq(), c2 - c1);
            for lw in &intent.writes {
                self.overlay
                    .entry(lw.line)
                    .and_modify(|e| e.merge(lw))
                    .or_insert(*lw);
            }
            self.pending_intents.push(intent);
            self.pending_meta.push((rng_before, attempt));
        }
    }

    /// Publishes one winning intent through the real engine: begin, the
    /// sorted buffered line writes, commit — the commit-time page
    /// publication that makes the shard pay honest persistence cost.
    fn replay(&mut self, intent: &CommitIntent) {
        let m0 = self.engine.machine().cycles(SHARD_CORE);
        self.engine.begin(SHARD_CORE);
        let m1 = self.engine.machine().cycles(SHARD_CORE);
        replay_stores(&mut self.engine, intent);
        self.engine.commit(SHARD_CORE);
        let m2 = self.engine.machine().cycles(SHARD_CORE);
        self.lat.begin.record(m1 - m0);
        self.lat.exec.record(intent.exec_cycles);
        self.lat.commit.record(m2 - m1);
        self.lat.txn.record(intent.exec_cycles + (m2 - m0));
    }

    /// Applies one epoch's verdicts: replay winners in submission order,
    /// queue losers for retry. Returns `true` if a publication replay
    /// lost power (the shard's epoch ladder must restart from the
    /// recovered clock).
    fn resolve(&mut self, verdicts: &[Verdict], intents: Vec<CommitIntent>) -> bool {
        let meta = std::mem::take(&mut self.pending_meta);
        debug_assert_eq!(verdicts.len(), intents.len());
        let mut tripped = false;
        for ((verdict, intent), (rng_before, attempt)) in verdicts.iter().zip(intents).zip(meta) {
            self.shared.validated += 1;
            match verdict {
                Verdict::Won => {
                    self.shared.committed += 1;
                    self.shared.max_attempt = self.shared.max_attempt.max(attempt as u64);
                    self.engine
                        .machine_mut()
                        .obs_record(ObsKind::OccValidate, attempt as u64);
                    self.replay(&intent);
                    tripped |= self.plan.committed(&mut self.engine);
                }
                Verdict::Conflict | Verdict::Cascade => {
                    self.shared.aborted += 1;
                    if *verdict == Verdict::Conflict {
                        self.shared.conflicts += 1;
                    } else {
                        self.shared.cascades += 1;
                    }
                    self.engine
                        .machine_mut()
                        .obs_record(ObsKind::OccAbort, attempt as u64 + 1);
                    self.retries.push_back((rng_before, attempt + 1));
                }
            }
        }
        tripped
    }

    /// Warm-up drained: snapshot clean baselines and start the measured
    /// phase on a new epoch ladder.
    fn start_measuring(&mut self) {
        self.base = Some(ShardBase::snapshot(&self.engine, 1));
        self.lat.reset();
        self.shared = SharedStats::default();
        self.begin_phase(self.measured_share);
    }

    fn finish(mut self) -> SharedShardRun<E> {
        let base = self.base.take().expect("the warm-up phase ended");
        let (stats, mut txn_stats) = base.measured(&self.engine);
        let elapsed_cycles = base.elapsed_cycles(&self.engine);
        // The engine only ever sees winning replays; OCC aborts are the
        // shared-heap mode's aborts and fold into the same counter.
        txn_stats.aborted += self.shared.aborted;
        self.engine.machine_mut().discard_mem_events();
        SharedShardRun {
            worker: self.w,
            txns: self.shared.committed,
            elapsed_cycles,
            stats,
            txn_stats,
            latency: self.lat,
            shared: self.shared,
            engine: self.engine,
        }
    }
}

/// The shared-heap epoch exchange as a kernel protocol: speculate to the
/// boundary, deposit intents beside the interconnect streams, one merge
/// arbitrates the memory system *and* validates conflicts, every shard
/// publishes its winners and queues its losers.
struct SharedEpochs;

impl<E, W, P> Protocol<SharedWorker<E, W, P>> for SharedEpochs
where
    E: TxnEngine,
    W: Workload,
    P: FaultPlan<E>,
{
    type Board = SharedBoard;
    type Verdict = EpochOutcome;

    fn local(&self, _w: usize, worker: &mut SharedWorker<E, W, P>) {
        worker.run_epoch();
    }

    fn deposit(&self, w: usize, worker: &mut SharedWorker<E, W, P>, board: &mut SharedBoard) {
        // Setups are identical on every worker, so whichever shard
        // deposits first holds *the* seed.
        board.heap.get_or_insert_with(|| worker.heap.clone());
        let outstanding = worker.fresh + worker.retries.len() as u64;
        let machine = worker.engine.machine_mut();
        worker
            .ladder
            .deposit(w, machine, outstanding, &mut board.ic);
        board.intents[w] = std::mem::take(&mut worker.pending_intents);
    }

    /// A pure function of the deposited streams and intents, so threaded
    /// and sequential execution resolve bit-identically. Outstanding
    /// counts are deposit-time: the retries this epoch's losers become
    /// show up as non-`Won` verdicts instead.
    fn merge(&self, board: &mut SharedBoard, outcomes: &mut [EpochOutcome]) -> Epoch {
        let heap = board.heap.as_mut().expect("every shard deposited");
        let charges = board.ic.arbitrate();
        let verdicts = validate_epoch(heap, &board.intents);
        let drained = board.ic.drained() && verdicts.iter().flatten().all(|v| *v == Verdict::Won);
        let warmed = drained && std::mem::take(&mut board.warming);
        for (w, (outcome, verdicts)) in outcomes.iter_mut().zip(verdicts).enumerate() {
            *outcome = EpochOutcome {
                charge: charges.as_ref().map(|c| c[w]),
                verdicts,
                intents: std::mem::take(&mut board.intents[w]),
                heap: heap.clone(),
                warmed,
            };
        }
        match (drained, warmed) {
            (true, true) => Epoch::Lap,
            (true, false) => Epoch::Last,
            _ => Epoch::Next,
        }
    }

    fn apply(&self, _w: usize, worker: &mut SharedWorker<E, W, P>, outcome: EpochOutcome) {
        worker
            .ladder
            .charge(&mut worker.engine, outcome.charge, &mut worker.plan);
        worker.heap = outcome.heap;
        if worker.resolve(&outcome.verdicts, outcome.intents) {
            worker.ladder.restart(worker.engine.machine_mut());
        }
        worker.ladder.advance();
        if outcome.warmed {
            worker.start_measuring();
        }
    }
}

/// Runs a shared-heap OCC run over `cfg.threads` workers (see the
/// module docs for the protocol and determinism contract).
///
/// # Panics
///
/// Panics if `cfg.threads` is zero or a worker thread panics.
pub fn run_shared<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
    shared_cfg: &SharedHeapConfig,
) -> SharedRun<E>
where
    E: TxnEngine,
    W: Workload,
{
    let threads = cfg.threads;
    // Construction, setup, the warm-up phase and the measured phase (from
    // clean baselines) all inside each worker's one thread: both phases
    // are the full epoch protocol, back to back in one drive.
    let set_up = |w: usize, ()| {
        let warmup = worker_share(cfg.warmup, threads, w);
        let mut worker =
            SharedWorker::set_up(mk_engine(w), mk_workload(w), cfg, shared_cfg, (), w, warmup);
        worker.measured_share = worker_share(cfg.txns, threads, w);
        worker
    };
    let mut board = SharedBoard::new(threads, true);
    let exit = |_, worker: SharedWorker<E, W>| (worker.workload.name(), worker.finish());
    let seeds = vec![(); threads];
    let (shards, host_elapsed) = drive(cfg.mode, seeds, set_up, &SharedEpochs, &mut board, exit);

    let (names, shards): (Vec<_>, Vec<SharedShardRun<E>>) = shards.into_iter().unzip();
    let mut shared = SharedStats::default();
    for shard in &shards {
        shared.merge(&shard.shared);
    }
    let result = RunResult::merged(&shards[0].engine, names[0], cfg.txns, &shards);
    SharedRun {
        result,
        shared,
        shards,
        host_elapsed,
    }
}

fn replay_stores<E: TxnEngine>(engine: &mut E, intent: &CommitIntent) {
    for lw in &intent.writes {
        let mut i = 0;
        while i < LINE_SIZE {
            if lw.mask & (1u64 << i) == 0 {
                i += 1;
                continue;
            }
            let start = i;
            while i < LINE_SIZE && lw.mask & (1u64 << i) != 0 {
                i += 1;
            }
            engine.store(
                SHARD_CORE,
                VirtAddr::new(lw.line + start as u64),
                &lw.data[start..i],
            );
        }
    }
}

/// Report of a [`run_shared_crash_probe`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCrashReport {
    /// Power cuts that tripped (each during a publication replay).
    pub storms: u64,
    /// Cut transactions the engine rolled back on recovery.
    pub torn_dropped: u64,
    /// Cut transactions whose commit mark beat the freeze.
    pub torn_kept: u64,
    /// Committed transactions lost or corrupted — must be 0.
    pub lost: u64,
    /// Transactions committed over the whole run.
    pub committed: u64,
    /// OCC aborts over the whole run.
    pub aborted: u64,
}

/// Shared-heap run with a scheduled power cut landing inside a
/// publication replay (validation/publication is the only phase that
/// touches the engines' commit paths, so an
/// [`FaultSite::CommitData`]/[`FaultSite::CommitMark`] cut cuts
/// publication mid-flight). The victim shard crashes, recovers, and is
/// checked against the byte [`Oracle`](ssp_txn::Oracle): the cut
/// transaction must be *either* wholly dropped or wholly kept, and no
/// other committed transaction may be disturbed — the same zero-loss
/// contract the crash-storm harness enforces.
///
/// This is [`run_shared`]'s protocol with oracle-wrapped engines and a
/// publication hook, so it runs in both execution modes with
/// bit-identical reports. Requires the interconnect disabled.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero, `victim` is out of range, a worker
/// thread panics, or the interconnect is enabled.
pub fn run_shared_crash_probe<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
    shared_cfg: &SharedHeapConfig,
    victim: usize,
    site: FaultSite,
    hits: u32,
) -> SharedCrashReport
where
    E: TxnEngine,
    W: Workload,
{
    assert!(victim < cfg.threads, "victim worker out of range");
    let set_up = |w: usize, ()| {
        // Only the victim arms anything: one cut, never re-armed.
        let schedule = (w == victim).then(|| StormSchedule::once_at(site, hits));
        let mut worker = SharedWorker::set_up(
            OracleEngine::new(mk_engine(w)),
            mk_workload(w),
            cfg,
            shared_cfg,
            Storm::new(schedule, w),
            w,
            worker_share(cfg.warmup + cfg.txns, cfg.threads, w),
        );
        assert!(
            !worker.engine.machine().config().interconnect.enabled,
            "the crash probe requires the interconnect disabled"
        );
        worker.plan.power_on(&mut worker.engine);
        worker
    };
    // Final quiesce: every shard's durable state against its oracle.
    let exit = |_, mut worker: SharedWorker<OracleEngine<E>, W, Storm>| {
        (worker.plan.finish(&mut worker.engine), worker.shared)
    };
    let mut board = SharedBoard::new(cfg.threads, false);
    let seeds = vec![(); cfg.threads];
    let (shards, _) = drive(cfg.mode, seeds, set_up, &SharedEpochs, &mut board, exit);
    let (reports, stats): (Vec<_>, Vec<SharedStats>) = shards.into_iter().unzip();
    let cuts = StormRun { shards: reports }.totals();
    SharedCrashReport {
        storms: cuts.storms,
        torn_dropped: cuts.torn_txns,
        torn_kept: cuts.kept_torn_txns,
        lost: cuts.lost_txns,
        committed: stats.iter().map(|s| s.committed).sum(),
        aborted: stats.iter().map(|s| s.aborted).sum(),
    }
}
