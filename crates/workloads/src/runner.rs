//! The workload drivers: the legacy single-machine round-robin driver and
//! the sharded multi-threaded driver that collect the measurements every
//! figure and table is built from.
//!
//! # Threading model
//!
//! [`run_parallel`] shards the simulated machine per worker: worker `w`
//! owns a full engine instance over a [`shard
//! slice`](ssp_simulator::config::MachineConfig::shard_slice) of the
//! machine (its core plus a 1/N bank of the shared LLC and memory
//! channels) and a disjoint partition of the workload. Workers run on real
//! [`std::thread`]s with no shared mutable state, so the simulator's hot
//! path needs no locks; cross-core ordering is resolved *after* the run,
//! at simulated-cycle granularity: per-worker statistics are merged in
//! worker-index order and the run's wall-clock is the maximum per-shard
//! cycle count, exactly as [`Machine::elapsed_cycles`] defines it for a
//! shared machine.
//!
//! # Determinism contract
//!
//! Every worker derives its own [`SmallRng`] stream from
//! (`cfg.seed`, worker index), so for a fixed [`RunConfig`] the merged
//! [`RunResult`] counters and every shard's persistent state are
//! **bit-identical across repeated runs and across host schedules** —
//! [`ExecMode::Sequential`] runs the identical per-worker schedules in
//! worker-index order on the calling thread and must produce byte-equal
//! results (`tests/threaded_equivalence.rs` locks this in). Both modes
//! are the same protocol under the crate-private `kernel` module's two
//! schedulers, not two loops. Only the host-time measurements
//! ([`ParallelRun::host_elapsed`]) are outside the contract.
//!
//! # Cross-shard memory interconnect
//!
//! When the shards' machine config enables
//! [`InterconnectConfig`](ssp_simulator::config::InterconnectConfig), the
//! measured phase runs in *epochs*: each worker executes until its local
//! clock crosses the next `epoch_cycles` boundary, all workers rendezvous,
//! one merge runs the shards' recorded memory-event and LLC-probe
//! streams through the shared [`Interconnect`] in `(local time, worker
//! index)` order, and each shard's cross-shard queueing delay is charged
//! back to its clock before the next epoch. Every arbitration input is
//! shard-local, so the determinism contract above holds unchanged with
//! contention enabled (`tests/interconnect_contention.rs`). Whether the
//! model runs derives from worker 0's config, a shard's epoch length from
//! its own; shards are expected to share both.
//!
//! The crash-storm driver ([`run_storm`](crate::storm::run_storm)) is this
//! closed-loop shard and this epoch protocol with an oracle around the
//! engine and a fault plan beside it; plain runs carry the empty plan.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_simulator::interconnect::{EpochCharge, Interconnect, LlcEvent, MemEvent};
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::LatencyStats;
use ssp_simulator::stats::{MachineStats, WriteClass};
use ssp_txn::engine::{TxnEngine, TxnStats};

use crate::kernel::{drive, spawn_each, Epoch, Protocol};

/// A benchmark program driving a [`TxnEngine`].
///
/// Workloads are `Send + Sync` plain owned data: the threaded driver
/// moves one instance into each worker thread, and the factories clone
/// shared prototypes from inside those threads.
pub trait Workload: Send + Sync {
    /// Display name ("BTree", "SPS", ...).
    fn name(&self) -> &'static str;

    /// Builds the initial persistent state (own transactions inside).
    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId);

    /// Executes the body of one transaction (the driver wraps it in
    /// `begin`/`commit`).
    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng);

    /// Deep-copies the workload, so a caller can build one *prototype*
    /// and hand every worker its own clone.
    fn clone_box(&self) -> Box<dyn Workload>;

    /// Forgets all engine-bound state (addresses handed out by an earlier
    /// [`setup`](Workload::setup)) so the instance can be reused against a
    /// fresh engine.
    fn reset(&mut self);
}

impl Clone for Box<dyn Workload> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// Boxed workloads are workloads, so the type-erased factories in
// `ssp-bench` can feed the generic parallel driver.
impl<T: Workload + ?Sized> Workload for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        (**self).setup(engine, core)
    }
    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
        (**self).run_txn(engine, core, rng)
    }
    fn clone_box(&self) -> Box<dyn Workload> {
        (**self).clone_box()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

/// How [`run_parallel`] executes the per-worker schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One real `std::thread` per worker (the default).
    #[default]
    Threaded,
    /// The reference schedule: the identical per-worker work, one worker
    /// after the other (per epoch, where the run has epochs) on the
    /// calling thread. Used by the equivalence tests to pin the
    /// determinism contract.
    Sequential,
}

/// Driver parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Measured transactions (split across the workers).
    pub txns: u64,
    /// Warm-up transactions excluded from the counters.
    pub warmup: u64,
    /// Worker threads ([`warm_single`]: simulated cores on the one
    /// machine, must not exceed its core count; [`run_parallel`]: machine
    /// shards).
    pub threads: usize,
    /// RNG seed (runs are fully deterministic per seed).
    pub seed: u64,
    /// Threaded or sequential-reference execution ([`run_parallel`] only).
    pub mode: ExecMode,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            txns: 2000,
            warmup: 200,
            threads: 1,
            seed: 0x55d0_2019,
            mode: ExecMode::Threaded,
        }
    }
}

/// Measurements of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Measured transactions.
    pub txns: u64,
    /// Wall-clock of the measured phase in cycles (max over cores).
    pub elapsed_cycles: u64,
    /// Transactions per second at the configured clock.
    pub tps: f64,
    /// Machine counters for the measured phase.
    pub stats: MachineStats,
    /// Transaction statistics for the measured phase.
    pub txn_stats: TxnStats,
    /// Per-transaction and per-phase latency histograms of the measured
    /// phase (cycles; merged across workers in worker-index order).
    pub latency: LatencyStats,
}

impl RunResult {
    /// Total NVRAM line writes in the measured phase.
    pub fn nvram_writes(&self) -> u64 {
        self.stats.nvram_writes_total()
    }

    /// Logging writes (log + metadata journal) in the measured phase.
    pub fn logging_writes(&self) -> u64 {
        self.stats.logging_writes()
    }

    /// NVRAM writes of one class.
    pub fn writes_of(&self, class: WriteClass) -> u64 {
        self.stats.nvram_writes(class)
    }
}

/// One worker's share of a [`run_parallel`] run, in worker-index order.
#[derive(Debug)]
pub struct ShardRun<E> {
    /// The worker's engine (and machine shard), returned for inspection —
    /// recovery counters, NVRAM fingerprints, capacity accounting.
    pub engine: E,
    /// The workload's display name.
    pub workload: &'static str,
    /// Worker index.
    pub worker: usize,
    /// Measured transactions executed by this worker.
    pub txns: u64,
    /// Measured-phase cycles on this worker's core.
    pub elapsed_cycles: u64,
    /// Measured-phase machine counters of this shard.
    pub stats: MachineStats,
    /// Measured-phase transaction statistics of this shard.
    pub txn_stats: TxnStats,
    /// Measured-phase latency histograms of this shard.
    pub latency: LatencyStats,
}

/// Result of a [`run_parallel`] run: the deterministic merged measurements
/// plus the per-worker shards.
#[derive(Debug)]
pub struct ParallelRun<E> {
    /// Merged measurements (deterministic; see the determinism contract).
    pub result: RunResult,
    /// Per-worker results in worker-index order.
    pub shards: Vec<ShardRun<E>>,
    /// Host wall-clock time of the measured phase. **Not** covered by the
    /// determinism contract — this is the real-time speedup benches
    /// measure.
    pub host_elapsed: Duration,
}

impl<E> ParallelRun<E> {
    /// Measured transactions per host second (the real-time throughput).
    pub fn host_tps(&self) -> f64 {
        let secs = self.host_elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.result.txns as f64 / secs
        }
    }
}

/// The RNG seed of worker `w` — a splitmix64 step keeps the per-worker
/// streams decorrelated even for adjacent run seeds.
pub fn worker_seed(seed: u64, worker: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(worker as u64 + 1))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker `w`'s share of `total` transactions (remainder to low workers).
pub fn worker_share(total: u64, workers: usize, w: usize) -> u64 {
    total / workers as u64 + u64::from((w as u64) < total % workers as u64)
}

pub(crate) const SHARD_CORE: CoreId = CoreId::new(0);

/// The interconnect's side of an epoch rendezvous, shared by every
/// epoch protocol: shards deposit their recorded memory and LLC-probe
/// streams (plus how much work they still hold), one merge runs them
/// through the shared [`Interconnect`] in `(local time, worker index)`
/// order, and each shard picks up its [`EpochCharge`].
///
/// Whether the model runs at all, and the controller's banks and service
/// times, derive from worker 0's config in *both* execution modes — its
/// first deposit brings it, so shards built inside the drive need no
/// worker to exist before it. Shards are expected to share the knobs;
/// routing the arbitration through worker 0's copy means a
/// mixed-configuration factory cannot make it depend on which thread
/// happens to win a rendezvous leadership (an enabled shard in a disabled
/// run merely has its event log dropped at each boundary). The epoch
/// *length* is each shard's own ([`Ladder::new`]).
pub(crate) struct EpochBoard {
    cfg: Option<MachineConfig>,
    interconnect: Option<Interconnect>,
    streams: Vec<Vec<MemEvent>>,
    llc_streams: Vec<Vec<LlcEvent>>,
    outstanding: Vec<u64>,
}

impl EpochBoard {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            cfg: None,
            interconnect: None,
            streams: vec![Vec::new(); workers],
            llc_streams: vec![Vec::new(); workers],
            outstanding: vec![u64::MAX; workers],
        }
    }

    /// One merge over everything deposited: the per-shard charges in
    /// worker order, or `None` with the interconnect disabled. Every
    /// input is shard-local (local clocks, event streams, worker
    /// indices, worker 0's config), so the outcome is independent of
    /// host scheduling.
    pub(crate) fn arbitrate(&mut self) -> Option<Vec<EpochCharge>> {
        let cfg = self.cfg.as_ref().expect("worker 0 deposited");
        if !cfg.interconnect.enabled {
            return None;
        }
        let ic = self
            .interconnect
            .get_or_insert_with(|| Interconnect::new(cfg, self.streams.len()));
        Some(ic.arbitrate_epoch(&self.streams, &self.llc_streams))
    }

    /// True once no shard deposited outstanding work.
    pub(crate) fn drained(&self) -> bool {
        self.outstanding.iter().all(|&r| r == 0)
    }
}

/// What a shard does about power cuts, statically dispatched: the two
/// instants at which a driver can find that one landed. Each returns
/// `true` if the shard lost power and was recovered — its clock
/// restarted. Plain runs arm no cuts (`()`): nothing to do, and the
/// calls compile away.
pub(crate) trait FaultPlan<E>: Send {
    /// A transaction's commit just returned.
    fn committed(&mut self, _engine: &mut E) -> bool {
        false
    }

    /// The epoch's interconnect charge just landed (the
    /// [`FaultSite::EpochBoundary`](ssp_simulator::fault::FaultSite::EpochBoundary)
    /// hook).
    fn charged(&mut self, _engine: &mut E) -> bool {
        false
    }
}

impl<E> FaultPlan<E> for () {}

/// One shard's side of the epoch exchange, written once for every epoch
/// protocol: the ladder of local virtual times at which the shard stops
/// for a rendezvous, what it hands the [`EpochBoard`] there, and what it
/// does with the charge it gets back.
pub(crate) struct Ladder {
    epoch_cycles: u64,
    /// Local virtual time of the next epoch boundary.
    pub(crate) target: u64,
    /// The shard lost power since its last deposit.
    power_cycled: bool,
}

impl Ladder {
    /// A ladder with the epoch length `cfg` asks for: the interconnect's
    /// when it is enabled (so everything riding the rendezvous shares one
    /// boundary), else the protocol's own `fallback` — `u64::MAX` for one
    /// epoch that never ends before the shard's work does.
    pub(crate) fn new(cfg: &MachineConfig, fallback: u64) -> Self {
        let epoch_cycles = if cfg.interconnect.enabled {
            cfg.interconnect.epoch_cycles
        } else {
            fallback
        };
        Self {
            epoch_cycles: epoch_cycles.max(1),
            target: 0,
            power_cycled: false,
        }
    }

    /// Starts the ladder one epoch from the shard's clock.
    pub(crate) fn start(&mut self, machine: &Machine) {
        self.target = machine.cycles(SHARD_CORE).saturating_add(self.epoch_cycles);
    }

    /// Shard `w` reached the boundary: the epoch's event streams and the
    /// work it still holds go to the board. A shard that lost power since
    /// the last boundary says so here — the shared controller's queues
    /// are gone too, and post-crash local clocks restart at zero, so the
    /// merge these streams feed starts from a fresh controller.
    pub(crate) fn deposit(
        &mut self,
        w: usize,
        machine: &mut Machine,
        outstanding: u64,
        board: &mut EpochBoard,
    ) {
        if std::mem::take(&mut self.power_cycled) {
            board.interconnect = None;
        }
        if w == 0 && board.cfg.is_none() {
            board.cfg = Some(machine.config().clone());
        }
        // Swap rather than replace: this epoch's events land in the
        // board's slot and the previous epoch's (drained) buffer becomes
        // the machine's next recording buffer, so runs stop allocating
        // per epoch per shard. A machine that records nothing swaps in an
        // empty stream.
        machine.take_mem_events_into(&mut board.streams[w]);
        machine.take_llc_events_into(&mut board.llc_streams[w]);
        board.outstanding[w] = outstanding;
    }

    /// Applies the shard's charge of the epoch just merged and lets
    /// `plan` react to it.
    pub(crate) fn charge<E: TxnEngine, P: FaultPlan<E>>(
        &mut self,
        engine: &mut E,
        charge: Option<EpochCharge>,
        plan: &mut P,
    ) {
        if let Some(charge) = charge {
            engine.machine_mut().apply_epoch_charge(SHARD_CORE, &charge);
        }
        if plan.charged(engine) {
            self.restart(engine.machine_mut());
        }
    }

    /// The shard lost power since the merge and was recovered: its ladder
    /// restarts from the recovered clock, and what recovery recorded is
    /// not the next epoch's traffic.
    pub(crate) fn restart(&mut self, machine: &mut Machine) {
        machine.discard_mem_events();
        self.power_cycled = true;
        self.target = machine.cycles(SHARD_CORE);
    }

    /// Moves the boundary one epoch on.
    pub(crate) fn advance(&mut self) {
        self.target = self.target.saturating_add(self.epoch_cycles);
    }
}

/// Measurement baselines of one machine, snapshotted where its measured
/// phase starts: a shard's (one core), or the legacy driver's (every core
/// it runs on).
pub(crate) struct ShardBase {
    stats: MachineStats,
    txn: TxnStats,
    /// The clocks of cores `0..cycles.len()`.
    cycles: Vec<u64>,
}

impl ShardBase {
    pub(crate) fn snapshot<E: TxnEngine>(engine: &E, cores: usize) -> Self {
        let clock = |c| engine.machine().cycles(CoreId::new(c));
        Self {
            stats: engine.machine().stats().clone(),
            txn: engine.txn_stats().clone(),
            cycles: (0..cores).map(clock).collect(),
        }
    }

    /// Machine counters and transaction statistics since the snapshot.
    pub(crate) fn measured<E: TxnEngine>(&self, engine: &E) -> (MachineStats, TxnStats) {
        (
            engine.machine().stats().diff(&self.stats),
            engine.txn_stats().diff(&self.txn),
        )
    }

    /// Wall-clock cycles since the snapshot — the maximum over its cores
    /// (meaningless across a crash, which resets the clocks).
    pub(crate) fn elapsed_cycles<E: TxnEngine>(&self, engine: &E) -> u64 {
        let since = |(c, base)| engine.machine().cycles(CoreId::new(c)) - base;
        self.cycles.iter().enumerate().map(since).max().unwrap_or(0)
    }
}

impl RunResult {
    fn new<E: TxnEngine>(
        engine: &E,
        workload: &str,
        txns: u64,
        elapsed_cycles: u64,
        stats: MachineStats,
        txn_stats: TxnStats,
        latency: LatencyStats,
    ) -> Self {
        let freq_hz = engine.machine().config().freq_ghz * 1e9;
        let tps = if elapsed_cycles == 0 {
            0.0
        } else {
            txns as f64 / (elapsed_cycles as f64 / freq_hz)
        };
        RunResult {
            engine: engine.name().to_string(),
            workload: workload.to_string(),
            txns,
            elapsed_cycles,
            tps,
            stats,
            txn_stats,
            latency,
        }
    }

    /// Merges the shards' measurements, in worker-index order, into the
    /// run's result: counters summed, the wall-clock the maximum shard
    /// time, exactly as [`Machine::elapsed_cycles`] defines it for a
    /// shared machine.
    pub(crate) fn merged<E: TxnEngine>(
        engine: &E,
        workload: &str,
        txns: u64,
        shards: &[impl MeasuredShard],
    ) -> Self {
        let mut stats = MachineStats::new();
        let mut txn_stats = TxnStats::default();
        let mut latency = LatencyStats::default();
        let mut elapsed = 0;
        for shard in shards {
            let (cycles, shard_stats, shard_txn_stats, shard_latency) = shard.measured();
            elapsed = elapsed.max(cycles);
            stats.merge(shard_stats);
            txn_stats.merge(shard_txn_stats);
            latency.merge(shard_latency);
        }
        Self::new(engine, workload, txns, elapsed, stats, txn_stats, latency)
    }
}

/// What every sharded driver's per-shard result carries for the
/// run-level merge: the measured phase's elapsed cycles, machine
/// counters, transaction statistics and latency histograms.
pub(crate) trait MeasuredShard {
    fn measured(&self) -> (u64, &MachineStats, &TxnStats, &LatencyStats);
}

impl<E> MeasuredShard for ShardRun<E> {
    fn measured(&self) -> (u64, &MachineStats, &TxnStats, &LatencyStats) {
        (
            self.elapsed_cycles,
            &self.stats,
            &self.txn_stats,
            &self.latency,
        )
    }
}

/// Runs one transaction on `core`, recording its phase latencies; returns
/// the core's clock at its end. Inlined into both drivers' hot loops.
#[inline(always)]
fn timed_txn<E: TxnEngine, W: Workload + ?Sized>(
    engine: &mut E,
    workload: &mut W,
    core: CoreId,
    rng: &mut SmallRng,
    lat: &mut LatencyStats,
) -> u64 {
    // The phase boundaries read the core's (virtual) clock only —
    // recording latency never touches the simulated state, so the
    // histograms are exact and deterministic in every execution mode.
    let c0 = engine.machine().cycles(core);
    engine.begin(core);
    let c1 = engine.machine().cycles(core);
    workload.run_txn(engine, core, rng);
    let c2 = engine.machine().cycles(core);
    engine.commit(core);
    let c3 = engine.machine().cycles(core);
    lat.begin.record(c1 - c0);
    lat.exec.record(c2 - c1);
    lat.commit.record(c3 - c2);
    lat.txn.record(c3 - c0);
    c3
}

/// The closed-loop shard: one engine, one workload partition, one RNG
/// stream, issuing its next transaction the instant the previous one
/// returns. `run_parallel` and `run_storm` are both this worker under
/// [`ClosedLoop`]; they differ in the [`FaultPlan`] it carries.
pub(crate) struct Worker<E, W, P = ()> {
    pub(crate) engine: E,
    pub(crate) workload: W,
    rng: SmallRng,
    pub(crate) txns: u64,
    /// Measured transactions still to run.
    remaining: u64,
    ladder: Ladder,
    /// Latency histograms; recorded by every transaction, reset at the
    /// start of the measured phase so warm-up samples are excluded.
    lat: LatencyStats,
    /// Measurement baselines, snapshotted where the warm-up ends.
    base: Option<ShardBase>,
    pub(crate) plan: P,
}

impl<E: TxnEngine, W: Workload, P: FaultPlan<E>> Worker<E, W, P> {
    pub(crate) fn new(engine: E, workload: W, plan: P, cfg: &RunConfig, w: usize) -> Self {
        Self {
            ladder: Ladder::new(engine.machine().config(), u64::MAX),
            engine,
            workload,
            rng: SmallRng::seed_from_u64(worker_seed(cfg.seed, w)),
            txns: worker_share(cfg.txns, cfg.threads, w),
            remaining: 0,
            lat: LatencyStats::default(),
            base: None,
            plan,
        }
    }

    /// Runs one transaction; returns the shard clock at its end.
    fn one_txn(&mut self) -> u64 {
        let (engine, workload) = (&mut self.engine, &mut self.workload);
        let end = timed_txn(engine, workload, SHARD_CORE, &mut self.rng, &mut self.lat);
        if self.plan.committed(&mut self.engine) {
            return self.engine.machine().cycles(SHARD_CORE);
        }
        end
    }

    /// Setup plus `warmup` transactions, then snapshot the measurement
    /// baselines.
    fn prepare(&mut self, warmup: u64) {
        self.workload.setup(&mut self.engine, SHARD_CORE);
        for _ in 0..warmup {
            self.one_txn();
        }
        // Setup and warm-up run uncontended: their recorded events are
        // discarded so epoch arbitration covers the measured phase only.
        self.engine.machine_mut().discard_mem_events();
        self.base = Some(ShardBase::snapshot(&self.engine, 1));
    }

    /// Starts the measured phase: a share of `txns` transactions, the
    /// first epoch boundary, empty histograms (warm-up transactions
    /// recorded samples).
    pub(crate) fn start(&mut self, txns: u64) {
        self.txns = txns;
        self.remaining = txns;
        self.ladder.start(self.engine.machine());
        self.lat.reset();
    }

    fn finish(self, w: usize) -> ShardRun<E> {
        let base = self.base.expect("the shard was prepared");
        let (stats, txn_stats) = base.measured(&self.engine);
        ShardRun {
            workload: self.workload.name(),
            worker: w,
            txns: self.txns,
            elapsed_cycles: base.elapsed_cycles(&self.engine),
            stats,
            txn_stats,
            latency: self.lat,
            engine: self.engine,
        }
    }
}

/// The closed-loop epoch protocol: run an epoch of local virtual time,
/// deposit the event streams, let one merge run them through the shared
/// controller, apply this shard's charge, repeat until every worker is
/// out of transactions. With the interconnect disabled the single epoch
/// never ends before the share does, and nothing is charged.
pub(crate) struct ClosedLoop;

impl<E: TxnEngine, W: Workload, P: FaultPlan<E>> Protocol<Worker<E, W, P>> for ClosedLoop {
    type Board = EpochBoard;
    type Verdict = Option<EpochCharge>;

    fn local(&self, _w: usize, worker: &mut Worker<E, W, P>) {
        // The hot loop of every partitioned run: the boundary test works
        // on locals and the clock `one_txn` already read (re-reading the
        // clock and the worker's fields per transaction measured 1–2 %
        // off txn_stream's host throughput).
        let (mut left, target) = (worker.remaining, worker.ladder.target);
        let mut now = worker.engine.machine().cycles(SHARD_CORE);
        while left > 0 && now < target {
            now = worker.one_txn();
            left -= 1;
        }
        worker.remaining = left;
    }

    fn deposit(&self, w: usize, worker: &mut Worker<E, W, P>, board: &mut EpochBoard) {
        let machine = worker.engine.machine_mut();
        worker.ladder.deposit(w, machine, worker.remaining, board);
    }

    fn merge(&self, board: &mut EpochBoard, verdicts: &mut [Option<EpochCharge>]) -> Epoch {
        let charges = board.arbitrate();
        for (w, verdict) in verdicts.iter_mut().enumerate() {
            *verdict = charges.as_ref().map(|c| c[w]);
        }
        if board.drained() {
            Epoch::Last
        } else {
            Epoch::Next
        }
    }

    fn apply(&self, _w: usize, worker: &mut Worker<E, W, P>, charge: Option<EpochCharge>) {
        worker
            .ladder
            .charge(&mut worker.engine, charge, &mut worker.plan);
        worker.ladder.advance();
    }
}

/// A warmed sharded run, held right before the measured phase: every
/// worker holds its engine after workload setup + warm-up, its RNG
/// mid-stream, and its measurement baselines.
///
/// The warm/measure split lets a caller time set-up (engine construction,
/// [`Workload::setup`], warm-up) apart from the measured phase. Warm state
/// is a pure function of (factories, seed, warm-up count, thread count),
/// never of host scheduling.
pub struct WarmParallel<E, W> {
    workers: Vec<Worker<E, W>>,
}

/// Builds and warms `cfg.threads` workers: each constructs its engine and
/// workload from the factories, runs setup plus its warm-up share, and
/// snapshots the measurement baselines. In [`ExecMode::Threaded`] the
/// factories and warm-up run *inside* each worker's thread (construction
/// cost is parallel); [`ExecMode::Sequential`] warms on the calling
/// thread. Both produce bit-identical warm state — workers never interact
/// before the measured phase.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero or a worker thread panics.
pub fn warm_parallel<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
) -> WarmParallel<E, W>
where
    E: TxnEngine,
    W: Workload,
{
    let workers = spawn_each(cfg.mode, cfg.threads, |w| {
        let mut worker = Worker::new(mk_engine(w), mk_workload(w), (), cfg, w);
        worker.prepare(worker_share(cfg.warmup, cfg.threads, w));
        worker
    });
    WarmParallel { workers }
}

impl<E: TxnEngine, W: Workload> WarmParallel<E, W> {
    /// Runs `txns` measured transactions ([`worker_share`]-split across
    /// the workers, like [`run_parallel`]) on this warm state and merges
    /// the per-worker measurements deterministically (see the module docs
    /// for the threading model and determinism contract). Consumes the
    /// warm state.
    pub fn run_measured(self, txns: u64, mode: ExecMode) -> ParallelRun<E> {
        let threads = self.workers.len();
        let enter = |w: usize, mut worker: Worker<E, W>| {
            worker.start(worker_share(txns, threads, w));
            worker
        };
        let mut board = EpochBoard::new(threads);
        let exit = |w, worker: Worker<E, W>| worker.finish(w);
        let (shards, host_elapsed) =
            drive(mode, self.workers, enter, &ClosedLoop, &mut board, exit);
        ParallelRun {
            result: RunResult::merged(&shards[0].engine, shards[0].workload, txns, &shards),
            shards,
            host_elapsed,
        }
    }
}

/// Runs `cfg.threads` machine shards, each built by the factories for its
/// worker index, and merges the per-worker measurements deterministically
/// (see the module docs for the threading model and determinism contract).
/// Equivalent to [`warm_parallel`] followed by
/// [`WarmParallel::run_measured`] — the warm/measure split exists so a
/// caller can time set-up apart from the measured phase.
///
/// `mk_engine(w)`/`mk_workload(w)` are called once per worker, *inside*
/// that worker's thread in [`ExecMode::Threaded`], so construction cost is
/// parallel too. The factories receive the worker index so callers can
/// partition key spaces or vary shard configurations.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero or a worker thread panics.
pub fn run_parallel<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
) -> ParallelRun<E>
where
    E: TxnEngine,
    W: Workload,
{
    warm_parallel(mk_engine, mk_workload, cfg).run_measured(cfg.txns, cfg.mode)
}

/// A warmed legacy-driver cell, held right before the measured phase:
/// the engine after workload setup + warm-up, the RNG mid-stream, and the
/// measurement baselines. The single-machine counterpart of
/// [`WarmParallel`]: set-up is timed apart from the measured phase, and
/// [`WarmSingle::run_measured`] hands the engine back for post-run
/// probes.
pub struct WarmSingle<E> {
    engine: E,
    workload: Box<dyn Workload>,
    rng: SmallRng,
    threads: usize,
    base: ShardBase,
}

/// One finished legacy-driver cell: the merged measurements plus the
/// engine (for post-run probes — recovery counters, journal state) and
/// the host wall-clock of the measured phase.
pub struct SingleRun<E> {
    /// Merged measurements (deterministic).
    pub result: RunResult,
    /// The engine after the measured phase.
    pub engine: E,
    /// Host wall-clock of the measured phase (not deterministic).
    pub host_elapsed: Duration,
}

/// Warms an owned engine + workload for the **legacy schedule**:
/// transactions interleaved round-robin across `cfg.threads` simulated
/// cores of the *one shared machine*, on the calling thread. Isolation is
/// by construction (one transaction runs at a time, matching the paper's
/// lock-based isolation assumption). Setup, `cfg.warmup` transactions,
/// then the baseline snapshot; [`WarmSingle::run_measured`] runs the
/// measured phase on the same schedule.
///
/// The single-machine figures (6–9, tables) keep using this driver; the
/// scaling curves use [`run_parallel`], whose shards execute on real
/// threads. `cfg.mode` is ignored here.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero or exceeds the machine's core count,
/// or if the machine enables the cross-shard interconnect (only
/// [`run_parallel`] drains and arbitrates its event streams).
pub fn warm_single<E: TxnEngine>(
    mut engine: E,
    mut workload: Box<dyn Workload>,
    cfg: &RunConfig,
) -> WarmSingle<E> {
    assert!(cfg.threads >= 1, "at least one thread");
    assert!(
        cfg.threads <= engine.machine().config().cores,
        "more threads than simulated cores"
    );
    // The legacy driver has no epoch loop to drain the event log the
    // machine records when the interconnect is on — a long run would
    // just grow it unboundedly with no contention effect. Cross-shard
    // contention needs the sharded driver.
    assert!(
        !engine.machine().config().interconnect.enabled,
        "the cross-shard interconnect requires run_parallel"
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    workload.setup(&mut engine, CoreId::new(0));
    for i in 0..cfg.warmup {
        let core = CoreId::new((i % cfg.threads as u64) as usize);
        engine.begin(core);
        workload.run_txn(&mut engine, core, &mut rng);
        engine.commit(core);
    }
    WarmSingle {
        base: ShardBase::snapshot(&engine, cfg.threads),
        engine,
        workload,
        rng,
        threads: cfg.threads,
    }
}

impl<E: TxnEngine> WarmSingle<E> {
    /// Runs `txns` measured transactions on this warm state, consuming it.
    pub fn run_measured(mut self, txns: u64) -> SingleRun<E> {
        let t0 = Instant::now();
        let mut latency = LatencyStats::default();
        for i in 0..txns {
            let core = CoreId::new((i % self.threads as u64) as usize);
            let workload = self.workload.as_mut();
            timed_txn(
                &mut self.engine,
                workload,
                core,
                &mut self.rng,
                &mut latency,
            );
        }
        let (stats, txn_stats) = self.base.measured(&self.engine);
        let elapsed = self.base.elapsed_cycles(&self.engine);
        let name = self.workload.name();
        let result = RunResult::new(&self.engine, name, txns, elapsed, stats, txn_stats, latency);
        SingleRun {
            result,
            engine: self.engine,
            host_elapsed: t0.elapsed(),
        }
    }
}

// Type-checked at compile time: machines, engines, workloads and results
// all cross thread boundaries.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<RunResult>();
    assert_send::<Box<dyn TxnEngine>>();
    assert_send::<Box<dyn Workload>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KeyDist;
    use crate::sps::Sps;
    use ssp_baselines::UndoLog;
    use ssp_core::engine::Ssp;
    use ssp_core::SspConfig;
    use ssp_simulator::config::MachineConfig;

    fn small_cfg() -> RunConfig {
        RunConfig {
            txns: 100,
            warmup: 20,
            threads: 1,
            seed: 7,
            mode: ExecMode::Threaded,
        }
    }

    /// The legacy driver's warm-up and measured phase in one.
    fn single<E: TxnEngine>(engine: E, workload: Sps, cfg: &RunConfig) -> RunResult {
        warm_single(engine, Box::new(workload), cfg)
            .run_measured(cfg.txns)
            .result
    }

    fn parallel_sps(cfg: &RunConfig) -> ParallelRun<Ssp> {
        let shard = MachineConfig::default().shard_slice(cfg.threads);
        run_parallel(
            move |_| Ssp::new(shard.clone(), SspConfig::default()),
            |_| Sps::new(1024, KeyDist::uniform(1024)),
            cfg,
        )
    }

    #[test]
    fn run_produces_sane_measurements() {
        let e = Ssp::new(MachineConfig::default(), SspConfig::default());
        let w = Sps::new(1024, KeyDist::uniform(1024));
        let r = single(e, w, &small_cfg());
        assert_eq!(r.txns, 100);
        assert_eq!(r.txn_stats.committed, 100);
        assert!(r.elapsed_cycles > 0);
        assert!(r.tps > 0.0);
        assert!(r.nvram_writes() > 0);
        assert_eq!(r.engine, "SSP");
        assert_eq!(r.workload, "SPS");
    }

    #[test]
    fn warmup_is_excluded() {
        let e1 = Ssp::new(MachineConfig::default(), SspConfig::default());
        let w1 = Sps::new(1024, KeyDist::uniform(1024));
        let r_with = single(
            e1,
            w1,
            &RunConfig {
                warmup: 200,
                ..small_cfg()
            },
        );
        // Measured committed count is exactly txns regardless of warmup.
        assert_eq!(r_with.txn_stats.committed, 100);
    }

    #[test]
    fn multi_thread_run_uses_multiple_cores() {
        let e = Ssp::new(MachineConfig::default(), SspConfig::default());
        let w = Sps::new(4096, KeyDist::uniform(4096));
        let cfg = RunConfig {
            threads: 4,
            ..small_cfg()
        };
        let r = single(e, w, &cfg);
        assert_eq!(r.txn_stats.committed, 100);
        // Four cores split the work: wall-clock under 4 threads should be
        // well below a single core running everything.
        let e1 = Ssp::new(MachineConfig::default(), SspConfig::default());
        let w1 = Sps::new(4096, KeyDist::uniform(4096));
        let r1 = single(e1, w1, &small_cfg());
        assert!(r.elapsed_cycles < r1.elapsed_cycles);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mk = || {
            let e = UndoLog::new(MachineConfig::default());
            let w = Sps::new(512, KeyDist::paper_zipf(512));
            single(e, w, &small_cfg())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        assert_eq!(a.nvram_writes(), b.nvram_writes());
    }

    #[test]
    #[should_panic(expected = "more threads than simulated cores")]
    fn too_many_threads_panics() {
        let e = Ssp::new(MachineConfig::default().with_cores(1), SspConfig::default());
        let w = Sps::new(64, KeyDist::uniform(64));
        single(
            e,
            w,
            &RunConfig {
                threads: 2,
                ..small_cfg()
            },
        );
    }

    #[test]
    fn worker_share_splits_exactly() {
        let total: u64 = (0..3).map(|w| worker_share(10, 3, w)).sum();
        assert_eq!(total, 10);
        assert_eq!(worker_share(10, 3, 0), 4);
        assert_eq!(worker_share(10, 3, 2), 3);
        assert_eq!(worker_share(2, 4, 3), 0);
    }

    #[test]
    fn worker_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..16).map(|w| worker_seed(42, w)).collect();
        assert_eq!(seeds.len(), 16);
        // And differ from the raw run seed.
        assert!(!seeds.contains(&42));
    }

    #[test]
    fn parallel_run_commits_all_transactions() {
        let cfg = RunConfig {
            threads: 4,
            ..small_cfg()
        };
        let p = parallel_sps(&cfg);
        assert_eq!(p.result.txn_stats.committed, 100);
        assert_eq!(p.shards.len(), 4);
        let per_shard: u64 = p.shards.iter().map(|s| s.txn_stats.committed).sum();
        assert_eq!(per_shard, 100);
        assert!(p.result.elapsed_cycles > 0);
        assert!(p.host_elapsed > Duration::ZERO);
        assert!(p.host_tps() > 0.0);
        assert_eq!(p.result.engine, "SSP");
        assert_eq!(p.result.workload, "SPS");
    }

    #[test]
    fn parallel_wall_clock_is_max_over_shards() {
        let cfg = RunConfig {
            threads: 2,
            ..small_cfg()
        };
        let p = parallel_sps(&cfg);
        let max = p.shards.iter().map(|s| s.elapsed_cycles).max().unwrap();
        assert_eq!(p.result.elapsed_cycles, max);
    }

    fn contended_sps(cfg: &RunConfig) -> ParallelRun<Ssp> {
        let mut shard = MachineConfig::default().shard_slice(cfg.threads);
        shard.interconnect = ssp_simulator::config::InterconnectConfig::shared();
        shard.interconnect.epoch_cycles = 20_000;
        run_parallel(
            move |_| Ssp::new(shard.clone(), SspConfig::default()),
            |_| Sps::new(1024, KeyDist::uniform(1024)),
            cfg,
        )
    }

    #[test]
    fn interconnect_run_commits_everything_and_charges_delay() {
        let cfg = RunConfig {
            threads: 4,
            ..small_cfg()
        };
        let p = contended_sps(&cfg);
        assert_eq!(p.result.txn_stats.committed, 100);
        assert!(
            p.result.stats.bankq_row_hits + p.result.stats.bankq_row_misses > 0,
            "every measured access must pass through the controller"
        );
        assert!(
            p.result.stats.bankq_delay_cycles > 0,
            "four shards on one channel group must queue"
        );
        // The disabled run records nothing.
        let baseline = parallel_sps(&cfg);
        assert_eq!(baseline.result.stats.bankq_delay_cycles, 0);
        assert_eq!(baseline.result.stats.bankq_row_misses, 0);
        // Contention can only slow the merged wall-clock down.
        assert!(p.result.elapsed_cycles > baseline.result.elapsed_cycles);
    }

    #[test]
    fn interconnect_threaded_matches_sequential() {
        let threaded = contended_sps(&RunConfig {
            threads: 3,
            ..small_cfg()
        });
        let sequential = contended_sps(&RunConfig {
            threads: 3,
            mode: ExecMode::Sequential,
            ..small_cfg()
        });
        assert_eq!(threaded.result, sequential.result);
        for (t, s) in threaded.shards.iter().zip(&sequential.shards) {
            assert_eq!(t.stats, s.stats);
            assert_eq!(t.elapsed_cycles, s.elapsed_cycles);
        }
    }

    #[test]
    #[should_panic(expected = "requires run_parallel")]
    fn legacy_run_rejects_interconnect_machines() {
        let cfg = MachineConfig {
            interconnect: ssp_simulator::config::InterconnectConfig::shared(),
            ..MachineConfig::default()
        };
        let e = Ssp::new(cfg, SspConfig::default());
        let w = Sps::new(64, KeyDist::uniform(64));
        single(e, w, &small_cfg());
    }

    #[test]
    fn mixed_interconnect_factories_follow_worker_zero() {
        // Worker 0 disabled, worker 1 enabled: the run must neither
        // deadlock nor arbitrate (worker 0's flag wins), and the odd
        // shard's event log is discarded as it goes.
        let plain = MachineConfig::default().shard_slice(2);
        let mut contended = plain.clone();
        contended.interconnect = ssp_simulator::config::InterconnectConfig::shared();
        let cfg = RunConfig {
            threads: 2,
            ..small_cfg()
        };
        let p = run_parallel(
            move |w| {
                let shard = if w == 0 {
                    plain.clone()
                } else {
                    contended.clone()
                };
                Ssp::new(shard, SspConfig::default())
            },
            |_| Sps::new(1024, KeyDist::uniform(1024)),
            &cfg,
        );
        assert_eq!(p.result.txn_stats.committed, 100);
        assert_eq!(p.result.stats.bankq_row_misses, 0, "no arbitration ran");
    }

    /// A workload whose `run_txn` panics after a few transactions — for
    /// asserting that worker panics fail the run instead of deadlocking
    /// the barriers.
    #[derive(Debug, Clone)]
    struct PanicBomb {
        fuse: u64,
        inner: Sps,
    }

    impl Workload for PanicBomb {
        fn name(&self) -> &'static str {
            "PanicBomb"
        }
        fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
            self.inner.setup(engine, core)
        }
        fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
            assert!(self.fuse > 0, "boom");
            self.fuse -= 1;
            self.inner.run_txn(engine, core, rng)
        }
        fn clone_box(&self) -> Box<dyn Workload> {
            Box::new(self.clone())
        }
        fn reset(&mut self) {
            self.inner.reset()
        }
    }

    #[test]
    #[should_panic]
    fn panicking_worker_fails_the_run_instead_of_hanging() {
        // Worker 1 blows up mid-epoch; the poisoned rendezvous must wake
        // everyone (including the coordinator) so the panic propagates
        // out of run_parallel rather than deadlocking the rendezvous.
        let mut shard = MachineConfig::default().shard_slice(3);
        shard.interconnect = ssp_simulator::config::InterconnectConfig::shared();
        shard.interconnect.epoch_cycles = 5_000;
        run_parallel(
            move |_| Ssp::new(shard.clone(), SspConfig::default()),
            |w| PanicBomb {
                // Survives warm-up (20/3 ≈ 7 txns) on every worker, then
                // detonates early in worker 1's measured phase.
                fuse: if w == 1 { 12 } else { u64::MAX },
                inner: Sps::new(1024, KeyDist::uniform(1024)),
            },
            &RunConfig {
                threads: 3,
                ..small_cfg()
            },
        );
    }

    #[test]
    fn workload_reset_allows_reuse_on_a_fresh_engine() {
        let mut w = Sps::new(256, KeyDist::uniform(256));
        let mut e1 = Ssp::new(MachineConfig::default(), SspConfig::default());
        w.setup(&mut e1, CoreId::new(0));
        let mut clone = w.clone_box();
        clone.reset();
        // A reset clone must rebuild its bindings against the new engine
        // rather than dereferencing the old one's addresses.
        let mut e2 = Ssp::new(MachineConfig::default(), SspConfig::default());
        clone.setup(&mut e2, CoreId::new(0));
        let mut rng = SmallRng::seed_from_u64(9);
        e2.begin(CoreId::new(0));
        clone.run_txn(&mut e2, CoreId::new(0), &mut rng);
        e2.commit(CoreId::new(0));
        assert!(e2.txn_stats().committed > 0);
    }

    #[test]
    fn threaded_matches_sequential_reference() {
        let threaded = parallel_sps(&RunConfig {
            threads: 3,
            ..small_cfg()
        });
        let sequential = parallel_sps(&RunConfig {
            threads: 3,
            mode: ExecMode::Sequential,
            ..small_cfg()
        });
        assert_eq!(threaded.result, sequential.result);
        for (t, s) in threaded.shards.iter().zip(&sequential.shards) {
            assert_eq!(t.stats, s.stats);
            assert_eq!(t.elapsed_cycles, s.elapsed_cycles);
            assert_eq!(
                t.engine.machine().nvram_fingerprint(),
                s.engine.machine().nvram_fingerprint()
            );
        }
    }
}
