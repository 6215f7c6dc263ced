//! The crash-storm driver: scheduled power cuts under full workload
//! traffic, with oracle-verified recovery after every storm.
//!
//! A *storm* is one scheduled power cut plus the crash/recovery/verify
//! sequence it forces. The driver arms [`CrashPoint`]s from a
//! [`StormSchedule`] — virtual-time deltas or named engine fault sites —
//! runs the real workloads over sharded engines exactly like
//! [`runner::run_parallel`](crate::runner::run_parallel), and after every
//! cut replays recovery and checks the shard against a byte-level
//! [`Oracle`]. Per-shard operation sequences are identical in
//! [`ExecMode::Threaded`] and [`ExecMode::Sequential`], so all simulated
//! counters, data-loss verdicts and NVRAM fingerprints are bit-identical
//! across modes and across repeated runs for a fixed seed + schedule.
//!
//! # Torn-transaction resolution
//!
//! The driver polls [`Machine::power_lost`] after every transaction, so a
//! cut always lands *inside* the transaction just executed (its commit
//! returned obliviously over frozen memory). Whether that transaction
//! survived depends on whether the engine's commit mark became durable
//! before the freeze — the engines guarantee it is all-or-nothing. The
//! driver therefore checks two oracle candidates, *torn-dropped* and
//! *torn-kept*, and accepts whichever matches the recovered state. Both
//! are the shard's one oracle, not copies of it: dropped is its committed
//! state as it stands, kept is the cut transaction folded in place and
//! taken back if it does not match either. A transaction matching
//! neither, or any earlier committed transaction missing, counts as
//! **data loss** ([`StormShardReport::lost_txns`], which must be zero for
//! every engine).
//!
//! # Crash during recovery
//!
//! With [`StormSchedule::crash_during_recovery`] set, every storm arms a
//! [`FaultSite::Recovery`] cut *between* `crash()` and `recover()`: the
//! first recovery reads its persistent state and is then itself cut short
//! (its writes are dropped), and a second, clean crash + recovery must
//! still restore the exact committed prefix — recovery must be idempotent.
//!
//! # Interconnect epoch storms
//!
//! [`run_storm`] is [`run_parallel`](crate::runner::run_parallel)'s
//! closed-loop shard under the same epoch protocol, so a shard whose
//! machine config enables the cross-shard interconnect runs in epochs —
//! nothing is passed in. Its cuts are then restricted to
//! [`FaultSite::EpochBoundary`]: every shard arms the same schedule, the
//! epoch charge lands exactly once per epoch per shard, so the power
//! fails on *all* shards at the same epoch boundary (a machine-wide cut).
//! All shards recover, and the next merge starts from a rebuilt
//! interconnect — post-crash local clocks restart at zero, so the merged
//! event streams stay monotonic. Mid-epoch cuts are not combined with the
//! interconnect model.
//!
//! [`Machine::power_lost`]: ssp_simulator::machine::Machine::power_lost
//! [`ExecMode::Threaded`]: crate::runner::ExecMode::Threaded
//! [`ExecMode::Sequential`]: crate::runner::ExecMode::Sequential

use ssp_simulator::addr::{VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::fault::{CrashPoint, FaultSite};
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::ObsEvent;
use ssp_simulator::timing::{AccessKind, MemKind};
use ssp_txn::engine::{TxnEngine, TxnStats};
use ssp_txn::history::Oracle;

use crate::kernel::drive;
use crate::runner::{ClosedLoop, EpochBoard, FaultPlan, RunConfig, Worker, Workload, SHARD_CORE};

/// One scheduled cut, relative to the moment it is armed.
///
/// Crashing resets the machine's cycle clock to zero, so absolute cycle
/// targets would be meaningless across storms; [`AfterCycles`] is a
/// *delta* from the clock at arm time (start of the run or end of the
/// previous storm's verification).
///
/// [`AfterCycles`]: StormPoint::AfterCycles
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormPoint {
    /// Cut the power once the shard has executed this many further
    /// cycles.
    AfterCycles(u64),
    /// Cut the power at the `hits`-th pass of an engine fault site
    /// (1-based), counted from arm time.
    AtSite {
        /// The engine hook to cut at.
        site: FaultSite,
        /// Which pass of the hook cuts (1-based).
        hits: u32,
    },
}

/// A crash schedule for one storm run.
#[derive(Debug, Clone)]
pub struct StormSchedule {
    /// The cuts, armed in order; each fires once, then the next is armed
    /// after the storm's recovery has been verified.
    pub points: Vec<StormPoint>,
    /// Additionally cut every storm's *first* recovery short at
    /// [`FaultSite::Recovery`], forcing a second, clean recovery.
    pub crash_during_recovery: bool,
    /// After the last point, wrap around and keep arming from the first —
    /// a periodic storm ("crash density") instead of a finite list.
    pub rearm: bool,
}

impl StormSchedule {
    /// A periodic schedule: cut every `period` cycles, forever.
    pub fn every_cycles(period: u64) -> Self {
        Self {
            points: vec![StormPoint::AfterCycles(period)],
            crash_during_recovery: false,
            rearm: true,
        }
    }

    /// A one-shot schedule cutting at the given site pass.
    pub fn once_at(site: FaultSite, hits: u32) -> Self {
        Self {
            points: vec![StormPoint::AtSite { site, hits }],
            crash_during_recovery: false,
            rearm: false,
        }
    }
}

/// What happened on one shard over a whole storm run. Every field is
/// simulated state — bit-identical across execution modes and repeats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StormShardReport {
    /// Worker index.
    pub worker: usize,
    /// Transactions executed (torn ones included).
    pub txns: u64,
    /// Power cuts that tripped (each followed by recovery + verify).
    pub storms: u64,
    /// Transactions whose cut landed before the commit mark was durable —
    /// correctly rolled back by recovery.
    pub torn_txns: u64,
    /// Cut transactions whose commit mark survived — correctly kept.
    pub kept_torn_txns: u64,
    /// First recoveries that were themselves cut short (only with
    /// [`StormSchedule::crash_during_recovery`]).
    pub torn_recoveries: u64,
    /// Committed transactions missing or corrupted after a recovery.
    /// **Must be zero for every engine** — the paper's durability claim.
    pub lost_txns: u64,
    /// NVRAM line reads performed by recovery (summed over storms).
    pub recovery_nvram_reads: u64,
    /// NVRAM line writes performed by recovery (summed over storms).
    pub recovery_nvram_writes: u64,
    /// Estimated recovery latency in cycles: NVRAM reads and writes at
    /// the configured device latencies (summed over storms).
    pub recovery_cycles_est: u64,
    /// Workload cycles executed across all power segments (the clock
    /// resets at each crash; this accumulates the segments).
    pub elapsed_cycles: u64,
    /// NVRAM fingerprint of the final durable state (taken at the final
    /// power-off, before the last recovery).
    pub fingerprint: u64,
    /// Crash flight recorder: the last [`ObsConfig::flight_tail`] ring
    /// events preceding the most recent power cut, drained at the cut
    /// instant (before volatile state is discarded). Empty unless the
    /// shard's [`ObsConfig`] enables the event ring. Events are stamped
    /// with virtual time, so the tail is bit-identical across execution
    /// modes and repeats.
    ///
    /// [`ObsConfig`]: ssp_simulator::obs::ObsConfig
    /// [`ObsConfig::flight_tail`]: ssp_simulator::obs::ObsConfig::flight_tail
    pub flight_tail: Vec<ObsEvent>,
}

impl StormShardReport {
    fn add_recovery(&mut self, cost: RecoveryCost) {
        self.recovery_nvram_reads += cost.nvram_reads;
        self.recovery_nvram_writes += cost.nvram_writes;
        self.recovery_cycles_est += cost.cycles_est;
    }

    fn merge(&mut self, o: &StormShardReport) {
        self.txns += o.txns;
        self.storms += o.storms;
        self.torn_txns += o.torn_txns;
        self.kept_torn_txns += o.kept_torn_txns;
        self.torn_recoveries += o.torn_recoveries;
        self.lost_txns += o.lost_txns;
        self.recovery_nvram_reads += o.recovery_nvram_reads;
        self.recovery_nvram_writes += o.recovery_nvram_writes;
        self.recovery_cycles_est += o.recovery_cycles_est;
        self.elapsed_cycles = self.elapsed_cycles.max(o.elapsed_cycles);
        self.flight_tail.extend_from_slice(&o.flight_tail);
    }
}

/// Result of a storm run: per-shard reports in worker order.
#[derive(Debug, Clone)]
pub struct StormRun {
    /// Per-shard reports, worker-index order.
    pub shards: Vec<StormShardReport>,
}

impl StormRun {
    /// Sums the shard counters (elapsed is the max — wall-clock).
    pub fn totals(&self) -> StormShardReport {
        let mut t = StormShardReport::default();
        for s in &self.shards {
            t.merge(s);
        }
        t
    }

    /// Order-dependent fold of the shard fingerprints — one number that
    /// changes if any shard's final durable state changes.
    pub fn combined_fingerprint(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in &self.shards {
            for b in s.fingerprint.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }
}

/// A [`TxnEngine`] wrapper that mirrors every store into an [`Oracle`]
/// while recording is on. The storm driver wraps each shard's engine so
/// workloads need no oracle plumbing of their own.
#[derive(Debug, Clone)]
pub struct OracleEngine<E> {
    inner: E,
    oracle: Oracle,
    recording: bool,
}

impl<E: TxnEngine> OracleEngine<E> {
    /// Wraps `inner`; recording starts **off** (workload setup is not
    /// oracle-checked — it runs before any cut can be armed).
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            oracle: Oracle::new(),
            recording: false,
        }
    }

    /// Turns store recording on or off.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// The oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Mutable access to the oracle (the driver folds commits and
    /// resolves torn transactions).
    pub fn oracle_mut(&mut self) -> &mut Oracle {
        &mut self.oracle
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: TxnEngine> TxnEngine for OracleEngine<E> {
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
        self.inner.begin(core);
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        self.inner.load(core, addr, buf);
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        if self.recording {
            self.oracle.record_store(core, addr, data);
        }
        self.inner.store(core, addr, data);
    }
    fn commit(&mut self, core: CoreId) {
        self.inner.commit(core);
    }
    fn abort(&mut self, core: CoreId) {
        self.oracle.on_abort(core);
        self.inner.abort(core);
    }
    fn crash(&mut self) {
        self.inner.crash();
    }
    fn recover(&mut self) {
        self.inner.recover();
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}

/// NVRAM traffic of one `recover()` pass and the latency it implies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecoveryCost {
    pub(crate) nvram_reads: u64,
    pub(crate) nvram_writes: u64,
    /// NVRAM reads and writes at the configured device latencies.
    pub(crate) cycles_est: u64,
}

/// How a power cut resolved against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Torn {
    /// The cut transaction was rolled back (or its effect is
    /// indistinguishable, e.g. it rewrote identical bytes).
    Dropped,
    /// The cut transaction's commit mark beat the freeze.
    Kept,
    /// Neither candidate matches: a committed transaction is gone or
    /// corrupted.
    Lost,
}

impl<E: TxnEngine> OracleEngine<E> {
    /// Runs `recover()` inside the stats window the recovery metrics
    /// need.
    fn recover_costed(&mut self) -> RecoveryCost {
        let before = self.machine().stats().clone();
        self.recover();
        let d = self.machine().stats().diff(&before);
        let machine = self.machine();
        RecoveryCost {
            nvram_reads: d.nvram_reads,
            nvram_writes: d.nvram_writes_total(),
            cycles_est: d.nvram_reads * machine.array_cycles(MemKind::Nvram, AccessKind::Read)
                + d.nvram_writes_total() * machine.array_cycles(MemKind::Nvram, AccessKind::Write),
        }
    }

    /// Resolves whatever transaction a power cut landed in against the
    /// oracle, once recovery has run.
    ///
    /// The engines guarantee one of two post-recovery states: the cut
    /// transaction rolled back, or kept (its commit mark beat the
    /// freeze). Neither is a copy of the oracle. Rolled back is the
    /// committed state as it stands; kept is the cut transaction's
    /// pending stores folded in place, and taken back again if that does
    /// not match either. On [`Torn::Lost`] the run therefore continues
    /// from the conservative (rolled-back) state, so it still completes.
    fn resolve_torn(&mut self) -> Torn {
        let torn = if self.oracle.verify(&mut self.inner, SHARD_CORE).is_ok() {
            Torn::Dropped
        } else {
            let undo = self.oracle.on_commit_undoable(SHARD_CORE);
            if self.oracle.verify(&mut self.inner, SHARD_CORE).is_ok() {
                Torn::Kept
            } else {
                self.oracle.revert(undo);
                Torn::Lost
            }
        };
        self.oracle.on_crash();
        torn
    }
}

/// The power-cut sequence, written once for every driver that arms
/// cuts: the schedule cursor, the crash → recover → resolve sequence a
/// tripped cut forces, the record of how the cuts resolved, the re-arm,
/// and the final quiesce. [`run_storm`], the shared-heap crash probe and
/// service mode fill their public reports from its [`StormShardReport`].
pub(crate) struct Storm {
    /// `None` never cuts.
    schedule: Option<StormSchedule>,
    /// Index of the next schedule point to arm, counted over the run.
    next_point: usize,
    /// Cycle count at the start of the current power segment (the clock
    /// resets at each crash; elapsed accumulates segments).
    seg_base: u64,
    report: StormShardReport,
}

impl Storm {
    pub(crate) fn new(schedule: Option<StormSchedule>, w: usize) -> Self {
        Self {
            schedule,
            next_point: 0,
            seg_base: 0,
            report: StormShardReport {
                worker: w,
                ..StormShardReport::default()
            },
        }
    }

    /// The shard is set up (not oracle-checked, no cuts armed): from here
    /// on stores are recorded, time counts, and the first point is armed.
    pub(crate) fn power_on<E: TxnEngine>(&mut self, engine: &mut OracleEngine<E>) {
        engine.set_recording(true);
        self.seg_base = engine.machine().cycles(SHARD_CORE);
        self.arm(engine.machine_mut());
    }

    /// Arms the next schedule point on `machine`, translating cycle
    /// deltas against its current clock. Consumed points come around
    /// again only with [`rearm`](StormSchedule::rearm).
    fn arm(&self, machine: &mut Machine) {
        let Some(schedule) = &self.schedule else {
            return;
        };
        let n = schedule.points.len();
        if n == 0 || (!schedule.rearm && self.next_point >= n) {
            return;
        }
        machine.arm_crash(match schedule.points[self.next_point % n] {
            StormPoint::AfterCycles(delta) => {
                CrashPoint::AtCycle(machine.cycles(SHARD_CORE) + delta)
            }
            StormPoint::AtSite { site, hits } => CrashPoint::AtSite { site, hits },
        });
    }

    /// Cycles the shard has been running for: the closed power segments
    /// (the clock resets at each crash) plus the live one.
    pub(crate) fn elapsed(&self, machine: &Machine) -> u64 {
        let now = machine.cycles(SHARD_CORE);
        self.report.elapsed_cycles + now.saturating_sub(self.seg_base)
    }

    /// The full sequence a tripped power cut forces: crash, recover,
    /// resolve whatever the cut landed in against the oracle
    /// ([`OracleEngine::resolve_torn`]), tally, arm the next point.
    ///
    /// With the schedule's `crash_during_recovery`, a
    /// [`FaultSite::Recovery`] cut is armed between `crash()` and
    /// `recover()`: that first recovery is itself cut short (its writes
    /// are dropped) and a second, clean pass must succeed from the same
    /// NVRAM image. `pass` sees every recovery pass — its cost and
    /// whether it was cut — before the next crash resets the clock.
    /// `in_flight` says the cut landed inside work it could tear — a cut
    /// between transactions or on an idle shard drops or keeps nothing.
    pub(crate) fn recover<E: TxnEngine>(
        &mut self,
        engine: &mut OracleEngine<E>,
        in_flight: bool,
        mut pass: impl FnMut(&mut OracleEngine<E>, RecoveryCost, bool),
    ) -> Torn {
        self.report.elapsed_cycles = self.elapsed(engine.machine());
        self.report.storms += 1;
        // Flight recorder: drain the tail of the event ring at the cut
        // instant. Replace-latest semantics — the report carries the tail
        // of the *most recent* storm on this shard.
        if engine.machine().obs().enabled() {
            let n = engine.machine().config().obs.flight_tail;
            self.report.flight_tail = engine.machine().obs().tail(n);
        }
        engine.crash();
        if self
            .schedule
            .as_ref()
            .is_some_and(|s| s.crash_during_recovery)
        {
            engine.machine_mut().arm_crash(CrashPoint::AtSite {
                site: FaultSite::Recovery,
                hits: 1,
            });
        }
        loop {
            let cost = engine.recover_costed();
            let cut = engine.machine().power_lost();
            self.report.add_recovery(cost);
            self.report.torn_recoveries += u64::from(cut);
            pass(engine, cost, cut);
            // `recover()` does not advance the clock, so since the crash
            // it shows what `pass` charged for the outage — elapsed time
            // too, counted before the next crash resets it.
            self.report.elapsed_cycles += engine.machine().cycles(SHARD_CORE);
            if !cut {
                break;
            }
            engine.crash();
        }
        // Oracle verification is harness bookkeeping: the next segment
        // starts after its loads.
        let torn = engine.resolve_torn();
        match torn {
            Torn::Dropped => self.report.torn_txns += u64::from(in_flight),
            Torn::Kept => self.report.kept_torn_txns += u64::from(in_flight),
            Torn::Lost => self.report.lost_txns += 1,
        }
        self.next_point += 1;
        self.arm(engine.machine_mut());
        self.seg_base = engine.machine().cycles(SHARD_CORE);
        torn
    }

    /// Final quiesce of the shard, completing the report: disarm, power
    /// off, fingerprint the durable image, recover, and verify one last
    /// time — a durable state the oracle rejects is data loss.
    pub(crate) fn finish<E: TxnEngine>(mut self, engine: &mut OracleEngine<E>) -> StormShardReport {
        self.report.elapsed_cycles = self.elapsed(engine.machine());
        engine.machine_mut().disarm_crash();
        engine.crash();
        engine.oracle.on_crash();
        self.report.fingerprint = engine.machine().nvram_fingerprint();
        self.report.add_recovery(engine.recover_costed());
        let intact = engine.oracle.verify(&mut engine.inner, SHARD_CORE).is_ok();
        self.report.lost_txns += u64::from(!intact);
        self.report
    }
}

/// The storm as the [`FaultPlan`] of an oracle-wrapped closed-loop or
/// OCC shard.
impl<E: TxnEngine> FaultPlan<OracleEngine<E>> for Storm {
    /// Counts the transaction, then folds it into the oracle or — if the
    /// power failed inside it — runs the storm sequence.
    fn committed(&mut self, engine: &mut OracleEngine<E>) -> bool {
        self.report.txns += 1;
        let cut = engine.machine().power_lost();
        if cut {
            self.recover(engine, true, |_, _, _| {});
        } else {
            engine.oracle_mut().on_commit(SHARD_CORE);
        }
        cut
    }

    /// Identical schedules + one charge per epoch per shard: either every
    /// shard tripped at this boundary or none did, between transactions.
    fn charged(&mut self, engine: &mut OracleEngine<E>) -> bool {
        let cut = engine.machine().power_lost();
        if cut {
            self.recover(engine, false, |_, _, _| {});
        }
        cut
    }
}

/// Runs a crash storm over `cfg.threads` engine shards under the given
/// workload and schedule: [`run_parallel`](crate::runner::run_parallel)'s
/// closed-loop shard and epoch protocol, oracle-wrapped and carrying the
/// storm plan (`cfg.warmup` is ignored — cuts are armed from the first
/// transaction on). [`ExecMode::Threaded`] runs the shards on real
/// threads and [`ExecMode::Sequential`] runs the identical per-shard
/// schedules on the calling thread, with bit-identical results.
///
/// Shards whose machine config has the interconnect off interact with
/// nothing: one epoch, any schedule. Shards that enable it run in epochs
/// and charge each other — see the module docs; their schedule must
/// consist of [`FaultSite::EpochBoundary`] site points.
///
/// [`ExecMode::Threaded`]: crate::runner::ExecMode::Threaded
/// [`ExecMode::Sequential`]: crate::runner::ExecMode::Sequential
///
/// # Panics
///
/// Panics if `cfg.threads` is zero, a worker thread panics, or a shard
/// enables the interconnect under a schedule with
/// non-[`FaultSite::EpochBoundary`] points.
pub fn run_storm<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
    schedule: &StormSchedule,
) -> StormRun
where
    E: TxnEngine,
    W: Workload,
{
    let boundary_only = schedule
        .points
        .iter()
        .all(|p| matches!(p, StormPoint::AtSite { site, .. } if *site == FaultSite::EpochBoundary));
    // One thread lifetime per shard: build, the whole share, the final
    // quiesce.
    let enter = |w: usize, ()| {
        let engine = OracleEngine::new(mk_engine(w));
        assert!(
            boundary_only || !engine.machine().config().interconnect.enabled,
            "epoch storms cut at epoch boundaries only"
        );
        let plan = Storm::new(Some(schedule.clone()), w);
        let mut worker = Worker::new(engine, mk_workload(w), plan, cfg, w);
        // Not `Worker::prepare`: a storm has no warm-up to discard, and the
        // traffic setup recorded is arbitrated with the first epoch.
        worker.workload.setup(&mut worker.engine, SHARD_CORE);
        worker.plan.power_on(&mut worker.engine);
        worker.start(worker.txns);
        worker
    };
    let exit =
        |_, mut worker: Worker<OracleEngine<E>, W, Storm>| worker.plan.finish(&mut worker.engine);
    let mut board = EpochBoard::new(cfg.threads);
    let seeds = vec![(); cfg.threads];
    let (shards, _) = drive(cfg.mode, seeds, enter, &ClosedLoop, &mut board, exit);
    StormRun { shards }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KeyDist;
    use crate::runner::ExecMode;
    use crate::sps::Sps;
    use ssp_core::engine::Ssp;
    use ssp_core::SspConfig;
    use ssp_simulator::config::MachineConfig;

    fn small_cfg(mode: ExecMode, threads: usize) -> RunConfig {
        RunConfig {
            txns: 120,
            warmup: 0,
            threads,
            seed: 0x0057_0411,
            mode,
        }
    }

    fn run(mode: ExecMode, schedule: &StormSchedule) -> StormRun {
        run_cfg(&small_cfg(mode, 2), schedule)
    }

    fn run_cfg(cfg: &RunConfig, schedule: &StormSchedule) -> StormRun {
        run_storm(
            |_| {
                Ssp::new(
                    MachineConfig::default().shard_slice(2),
                    SspConfig::default(),
                )
            },
            |_| Sps::new(256, KeyDist::uniform(256)),
            cfg,
            schedule,
        )
    }

    #[test]
    fn periodic_storm_trips_and_loses_nothing() {
        let schedule = StormSchedule::every_cycles(5_000);
        let run = run(ExecMode::Threaded, &schedule);
        let t = run.totals();
        assert!(t.storms > 0, "no storm tripped: {t:?}");
        assert_eq!(t.lost_txns, 0, "{t:?}");
        assert!(t.recovery_nvram_reads + t.recovery_nvram_writes > 0);
        assert!(t.recovery_cycles_est > 0);
    }

    #[test]
    fn threaded_and_sequential_storms_are_bit_identical() {
        let schedule = StormSchedule::every_cycles(7_000);
        let a = run(ExecMode::Threaded, &schedule);
        let b = run(ExecMode::Sequential, &schedule);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.combined_fingerprint(), b.combined_fingerprint());
        // Storms have no warm-up phase: callers fold theirs into `txns`.
        let warm = RunConfig {
            warmup: 50,
            ..small_cfg(ExecMode::Threaded, 2)
        };
        let c = run_cfg(&warm, &schedule);
        assert_eq!(a.shards, c.shards, "run_storm must ignore cfg.warmup");
    }

    #[test]
    fn commit_mark_cut_keeps_the_transaction() {
        let schedule = StormSchedule::once_at(FaultSite::CommitMark, 40);
        let run = run(ExecMode::Sequential, &schedule);
        let t = run.totals();
        assert_eq!(t.storms, 2); // one per shard
        assert_eq!(t.kept_torn_txns, 2);
        assert_eq!(t.torn_txns, 0);
        assert_eq!(t.lost_txns, 0);
    }

    #[test]
    fn commit_data_cut_rolls_the_transaction_back() {
        let schedule = StormSchedule::once_at(FaultSite::CommitData, 40);
        let run = run(ExecMode::Sequential, &schedule);
        let t = run.totals();
        assert_eq!(t.storms, 2);
        assert_eq!(t.torn_txns, 2);
        assert_eq!(t.kept_torn_txns, 0);
        assert_eq!(t.lost_txns, 0);
    }

    #[test]
    fn flight_recorder_captures_tail_at_the_cut() {
        use ssp_simulator::obs::{ObsConfig, ObsKind};
        let schedule = StormSchedule::once_at(FaultSite::CommitData, 40);
        let mk_engine = |w: usize| {
            let mut mc = MachineConfig::default().shard_slice_for(2, w);
            mc.obs = ObsConfig::tracing();
            mc.obs.worker = w as u32;
            Ssp::new(mc, SspConfig::default())
        };
        let mk_workload = |_| Sps::new(256, KeyDist::uniform(256));
        let a = run_storm(
            mk_engine,
            mk_workload,
            &small_cfg(ExecMode::Sequential, 2),
            &schedule,
        );
        for s in &a.shards {
            assert!(!s.flight_tail.is_empty(), "shard {} tail empty", s.worker);
            assert!(
                s.flight_tail.iter().any(|e| e.kind == ObsKind::Fault),
                "shard {} tail lacks the fault event: {:?}",
                s.worker,
                s.flight_tail
            );
            assert!(s.flight_tail.iter().all(|e| e.worker == s.worker as u32));
        }
        let b = run_storm(
            mk_engine,
            mk_workload,
            &small_cfg(ExecMode::Threaded, 2),
            &schedule,
        );
        assert_eq!(a.shards, b.shards, "flight tails must be mode-invariant");
    }

    /// Epoch storms ride the same interconnect board as `run_parallel`:
    /// with the shared-LLC/coherence actors on and an LLC too small for
    /// two shards, the probe streams must be drained and charged, so the
    /// run is slower than under bank arbitration alone.
    #[test]
    fn epoch_storm_charges_the_shared_llc_actors() {
        use ssp_simulator::config::InterconnectConfig;
        let schedule = StormSchedule {
            rearm: true,
            ..StormSchedule::once_at(FaultSite::EpochBoundary, 3)
        };
        let run = |mode, mut interconnect: InterconnectConfig| {
            interconnect.epoch_cycles = 10_000;
            interconnect.llc_sets = 8;
            interconnect.llc_ways = 2;
            let mut shard = MachineConfig::default().shard_slice(2);
            shard.interconnect = interconnect;
            run_storm(
                |_| Ssp::new(shard.clone(), SspConfig::default()),
                |_| Sps::new(256, KeyDist::uniform(256)),
                &small_cfg(mode, 2),
                &schedule,
            )
        };
        let fair = run(ExecMode::Threaded, InterconnectConfig::shared_fair());
        let full = run(ExecMode::Threaded, InterconnectConfig::shared_hierarchy());
        assert!(full.totals().storms > 0 && full.totals().lost_txns == 0);
        assert!(
            full.totals().elapsed_cycles > fair.totals().elapsed_cycles,
            "LLC shortfalls and coherence went uncharged: {} vs {}",
            full.totals().elapsed_cycles,
            fair.totals().elapsed_cycles
        );
        let sequential = run(ExecMode::Sequential, InterconnectConfig::shared_hierarchy());
        assert_eq!(full.shards, sequential.shards);

        // No bench baseline covers epoch storms: the charged clocks and
        // the final durable images are pinned here instead.
        let elapsed =
            |r: &StormRun| -> Vec<u64> { r.shards.iter().map(|s| s.elapsed_cycles).collect() };
        assert_eq!(elapsed(&fair), [42_940, 42_573]);
        assert_eq!(elapsed(&full), [43_200, 42_819]);
        assert_eq!(fair.combined_fingerprint(), 0x14b1_8c10_f2da_c3ef);
        assert_eq!(full.combined_fingerprint(), 0xb29f_b31a_7a73_c4af);
    }

    fn epoch_shard(enabled: bool) -> MachineConfig {
        let mut shard = MachineConfig::default().shard_slice(2);
        if enabled {
            shard.interconnect = ssp_simulator::config::InterconnectConfig::shared();
            shard.interconnect.epoch_cycles = 10_000;
        }
        shard
    }

    #[test]
    #[should_panic(expected = "epoch storms cut at epoch boundaries only")]
    fn mid_epoch_cuts_are_refused_under_the_interconnect() {
        // Sequential, so the shard's own panic message is the run's.
        run_storm(
            |_| Ssp::new(epoch_shard(true), SspConfig::default()),
            |_| Sps::new(256, KeyDist::uniform(256)),
            &small_cfg(ExecMode::Sequential, 2),
            &StormSchedule::every_cycles(5_000),
        );
    }

    /// Nothing tells `run_storm` whether it runs in epochs: the shards'
    /// machine configs do, and where they disagree the arbitration
    /// follows worker 0 — like `run_parallel`'s.
    #[test]
    fn mixed_interconnect_storm_follows_worker_zero() {
        let schedule = StormSchedule {
            rearm: true,
            ..StormSchedule::once_at(FaultSite::EpochBoundary, 2)
        };
        let run = |mode, enabled_on: usize| {
            run_storm(
                |w| Ssp::new(epoch_shard(w == enabled_on), SspConfig::default()),
                |_| Sps::new(256, KeyDist::uniform(256)),
                &small_cfg(mode, 2),
                &schedule,
            )
        };
        // Worker 0 off: nothing is arbitrated or charged, so no boundary
        // cut can trip — not even on the shard that asked for epochs.
        let off = run(ExecMode::Threaded, 1);
        assert_eq!(off.totals().storms, 0, "{:?}", off.totals());
        assert_eq!((off.totals().txns, off.totals().lost_txns), (120, 0));
        // Worker 0 on: every shard is charged once per epoch, so both
        // lose power at the same boundaries.
        let on = run(ExecMode::Threaded, 0);
        assert!(on.shards[0].storms > 0, "{:?}", on.shards[0]);
        assert_eq!(on.shards[0].storms, on.shards[1].storms);
        assert_eq!((on.totals().txns, on.totals().lost_txns), (120, 0));
        assert_eq!(on.shards, run(ExecMode::Sequential, 0).shards);
    }

    /// An engine whose first recovery hands back a durable image with
    /// one committed byte flipped (a committed write the oracle never
    /// saw), put right again when the next transaction begins.
    struct CorruptOnce {
        inner: Ssp,
        /// Address and first byte of the open transaction's last store,
        /// and of the last store that committed with the power on.
        open: Option<(VirtAddr, u8)>,
        committed: Option<(VirtAddr, u8)>,
        /// The byte to put back: set by the corrupting recovery.
        heal: Option<(VirtAddr, u8)>,
        corrupted: bool,
    }

    impl CorruptOnce {
        fn overwrite(&mut self, addr: VirtAddr, byte: u8) {
            self.inner.begin(SHARD_CORE);
            self.inner.store(SHARD_CORE, addr, &[byte]);
            self.inner.commit(SHARD_CORE);
        }
    }

    impl TxnEngine for CorruptOnce {
        fn name(&self) -> &'static str {
            "CORRUPT-ONCE"
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
            if let Some((addr, byte)) = self.heal.take() {
                self.overwrite(addr, byte);
            }
            self.inner.begin(core);
        }
        fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
            self.inner.load(core, addr, buf);
        }
        fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
            self.open = Some((addr, data[0]));
            self.inner.store(core, addr, data);
        }
        fn commit(&mut self, core: CoreId) {
            self.inner.commit(core);
            if !self.machine().power_lost() {
                self.committed = self.open;
            }
        }
        fn abort(&mut self, core: CoreId) {
            self.inner.abort(core);
        }
        fn crash(&mut self) {
            self.inner.crash();
        }
        fn recover(&mut self) {
            self.inner.recover();
            if !std::mem::replace(&mut self.corrupted, true) {
                let (addr, byte) = self.committed.expect("a transaction committed");
                self.overwrite(addr, !byte);
                self.heal = Some((addr, byte));
            }
        }
        fn in_txn(&self, core: CoreId) -> bool {
            self.inner.in_txn(core)
        }
        fn txn_stats(&self) -> &TxnStats {
            self.inner.txn_stats()
        }
    }

    #[test]
    fn corrupted_committed_byte_is_one_lost_txn_and_the_run_goes_on() {
        // The cut transaction is rolled back (`CommitData`), but a
        // committed byte reads back flipped: neither candidate matches.
        // The oracle must come out of that as the rolled-back candidate —
        // once the byte is healed, every later transaction and the final
        // quiesce verify against it, so anything else adds a second loss.
        let schedule = StormSchedule::once_at(FaultSite::CommitData, 40);
        let run = run_storm(
            |_| CorruptOnce {
                inner: Ssp::new(
                    MachineConfig::default().shard_slice(1),
                    SspConfig::default(),
                ),
                open: None,
                committed: None,
                heal: None,
                corrupted: false,
            },
            |_| Sps::new(256, KeyDist::uniform(256)),
            &small_cfg(ExecMode::Sequential, 1),
            &schedule,
        );
        let t = run.totals();
        assert_eq!(t.storms, 1);
        assert_eq!(t.lost_txns, 1, "{t:?}");
        assert_eq!((t.torn_txns, t.kept_torn_txns), (0, 0));
        assert_eq!(t.txns, 120, "the run stopped at the loss");
    }

    #[test]
    fn crash_during_recovery_still_recovers() {
        let schedule = StormSchedule {
            points: vec![StormPoint::AfterCycles(9_000)],
            crash_during_recovery: true,
            rearm: true,
        };
        let run = run(ExecMode::Threaded, &schedule);
        let t = run.totals();
        assert!(t.storms > 0);
        assert_eq!(t.torn_recoveries, t.storms, "every first recovery cut");
        assert_eq!(t.lost_txns, 0);
    }
}
