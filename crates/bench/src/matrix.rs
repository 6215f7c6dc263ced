//! The parallel bench-matrix runner.
//!
//! [`MatrixRunner`] executes a grid of [`CellSpec`]s — (engine × workload
//! × machine config × run config) cells — over a pool of host threads.
//! Every cell takes the same straight-line path: result-memo lookup →
//! build engine + workload → warm-up → measured phase → memoize. The
//! **result memo** is the runner's only cache: two cells with the same
//! full key are one simulation, and the second returns the memoized
//! [`RunResult`] (the Figure 5a / 6 / 7 matrices are literally the same
//! 21 cells printed three ways).
//!
//! # Determinism contract
//!
//! Pool scheduling and memo hits are **invisible in the results**: a
//! pooled run over any number of host threads, with the memo on or off,
//! is bit-identical to executing every cell one at a time on the calling
//! thread — the same discipline `run_parallel` applies to its shards,
//! locked in by `tests/matrix_equivalence.rs`. Only host wall-clock
//! measurements are outside the contract.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ssp_baselines::{RedoLog, ShadowPaging, UndoLog};
use ssp_core::engine::Ssp;
use ssp_core::SspConfig;
use ssp_simulator::addr::{VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_simulator::machine::Machine;
use ssp_txn::engine::{TxnEngine, TxnStats};
use ssp_workloads::runner::{run_parallel, warm_single, RunConfig, RunResult, SingleRun};

use crate::{make_workload, EngineKind, Scale, WorkloadKind};

/// A concrete engine of any of the four kinds — the one engine factory
/// of the harness. Statically dispatched, and SSP-specific probes can
/// reach the engine inside ([`AnyEngine::as_ssp`]).
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one per cell or shard, never stored in bulk
pub enum AnyEngine {
    /// Hardware undo logging.
    Undo(UndoLog),
    /// Hardware redo logging.
    Redo(RedoLog),
    /// Shadow Sub-Paging.
    Ssp(Ssp),
    /// Conventional page-granularity shadow paging.
    Shadow(ShadowPaging),
}

macro_rules! delegate {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            AnyEngine::Undo($e) => $body,
            AnyEngine::Redo($e) => $body,
            AnyEngine::Ssp($e) => $body,
            AnyEngine::Shadow($e) => $body,
        }
    };
}

impl AnyEngine {
    /// Builds an engine of `kind` (SSP additionally takes `ssp_cfg`).
    pub fn build(kind: EngineKind, cfg: &MachineConfig, ssp_cfg: &SspConfig) -> AnyEngine {
        match kind {
            EngineKind::Undo => AnyEngine::Undo(UndoLog::new(cfg.clone())),
            EngineKind::Redo => AnyEngine::Redo(RedoLog::new(cfg.clone())),
            EngineKind::Ssp => AnyEngine::Ssp(Ssp::new(cfg.clone(), ssp_cfg.clone())),
            EngineKind::Shadow => AnyEngine::Shadow(ShadowPaging::new(cfg.clone())),
        }
    }

    /// The SSP engine inside, for SSP-specific probes (journal state,
    /// checkpoint counts, consolidation accounting).
    pub fn as_ssp(&self) -> Option<&Ssp> {
        match self {
            AnyEngine::Ssp(e) => Some(e),
            _ => None,
        }
    }
}

impl TxnEngine for AnyEngine {
    fn name(&self) -> &'static str {
        delegate!(self, e => e.name())
    }
    fn machine(&self) -> &Machine {
        delegate!(self, e => e.machine())
    }
    fn machine_mut(&mut self) -> &mut Machine {
        delegate!(self, e => e.machine_mut())
    }
    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        delegate!(self, e => e.map_new_page(core))
    }
    fn begin(&mut self, core: CoreId) {
        delegate!(self, e => e.begin(core))
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        delegate!(self, e => e.load(core, addr, buf))
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        delegate!(self, e => e.store(core, addr, data))
    }
    fn commit(&mut self, core: CoreId) {
        delegate!(self, e => e.commit(core))
    }
    fn abort(&mut self, core: CoreId) {
        delegate!(self, e => e.abort(core))
    }
    fn crash(&mut self) {
        delegate!(self, e => e.crash())
    }
    fn recover(&mut self) {
        delegate!(self, e => e.recover())
    }
    fn in_txn(&self, core: CoreId) -> bool {
        delegate!(self, e => e.in_txn(core))
    }
    fn txn_stats(&self) -> &TxnStats {
        delegate!(self, e => e.txn_stats())
    }
}

/// Which driver a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDriver {
    /// `threads > 1` or an enabled interconnect selects the sharded
    /// driver (only it drains and arbitrates the interconnect's event
    /// streams), everything else the legacy single-machine driver.
    Auto,
    /// Force the legacy shared-machine driver with `run_cfg.threads`
    /// simulated cores on *one* machine and *one* workload instance
    /// (Tables 4/5: four clients against one shared service).
    SharedMachine,
    /// Force the sharded driver even for one worker without an
    /// interconnect — the thread-scaling baselines need the sharded
    /// driver's per-worker RNG streams at `threads = 1` so their
    /// per-transaction cost matches the N-worker cells exactly.
    Sharded,
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Engine under test.
    pub engine: EngineKind,
    /// Workload.
    pub workload: WorkloadKind,
    /// Machine configuration (the *parent* machine; the sharded driver
    /// slices it per worker).
    pub cfg: MachineConfig,
    /// SSP configuration (ignored — and excluded from the memo key — by
    /// non-SSP engines).
    pub ssp_cfg: SspConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Driver parameters.
    pub run_cfg: RunConfig,
    /// Driver selection.
    pub driver: CellDriver,
    /// When true, `scale` and `cfg` are already what one worker gets: the
    /// sharded driver neither applies [`Scale::per_shard`] nor slices the
    /// machine ([`MachineConfig::shard_slice_for`]) but hands every worker
    /// a copy — the contention sweeps keep a constant per-client slice of
    /// both as clients grow and the *interconnect* varies.
    pub per_worker: bool,
}

impl CellSpec {
    /// A cell with the default ([`CellDriver::Auto`]) routing.
    pub fn new(
        engine: EngineKind,
        workload: WorkloadKind,
        cfg: &MachineConfig,
        ssp_cfg: &SspConfig,
        scale: Scale,
        run_cfg: &RunConfig,
    ) -> Self {
        Self {
            engine,
            workload,
            cfg: cfg.clone(),
            ssp_cfg: ssp_cfg.clone(),
            scale,
            run_cfg: run_cfg.clone(),
            driver: CellDriver::Auto,
            per_worker: false,
        }
    }

    /// Routes this cell to the legacy shared-machine driver.
    pub fn shared_machine(mut self) -> Self {
        self.driver = CellDriver::SharedMachine;
        self
    }

    /// Forces the sharded driver (see [`CellDriver::Sharded`]).
    pub fn sharded(mut self) -> Self {
        self.driver = CellDriver::Sharded;
        self
    }

    /// Marks `scale` and `cfg` as already per worker (sharded driver
    /// only).
    pub fn per_worker(mut self) -> Self {
        self.per_worker = true;
        self
    }

    /// Whether the cell runs on the sharded driver (else: the legacy
    /// single-machine driver).
    fn is_sharded(&self) -> bool {
        match self.driver {
            CellDriver::SharedMachine => false,
            CellDriver::Sharded => true,
            CellDriver::Auto => self.run_cfg.threads > 1 || self.cfg.interconnect.enabled,
        }
    }

    /// The scale each engine/workload instance actually runs at.
    fn effective_scale(&self) -> Scale {
        // `per_shard(1)` is the identity except for its >= 16 floor, which
        // would silently inflate tiny custom scales: one-worker sharded
        // cells keep the scale as given.
        if self.is_sharded() && !self.per_worker && self.run_cfg.threads > 1 {
            self.scale.per_shard(self.run_cfg.threads)
        } else {
            self.scale
        }
    }

    /// Memo key of the cell: everything that determines its result —
    /// driver, engine kind + configs, workload + effective scale, warm-up
    /// and measured counts, seed, thread count — but *not* the execution
    /// mode, which the determinism contract makes invisible. Configs are
    /// folded in via their `Debug` form: derived `Debug` covers every
    /// field, so equal keys mean equal results.
    fn cell_key(&self) -> String {
        // Non-SSP engines never read the SSP config, so cells differing
        // only there are one simulation (Figure 9's REDO baseline).
        let ssp_gate = (self.engine == EngineKind::Ssp).then_some(&self.ssp_cfg);
        format!(
            "sharded{}|{:?}|{:?}|cfg{:?}|perworker{}|ssp{:?}|scale{:?}|warmup{}|seed{:#x}|threads{}|txns{}",
            self.is_sharded(),
            self.engine,
            self.workload,
            self.cfg,
            self.per_worker,
            ssp_gate,
            self.effective_scale(),
            self.run_cfg.warmup,
            self.run_cfg.seed,
            self.run_cfg.threads,
            self.run_cfg.txns,
        )
    }
}

/// One executed cell: the deterministic result plus the engines (one per
/// shard; exactly one for the single/shared drivers) and the host
/// wall-clock of the measured phase.
pub struct CellOut {
    /// Merged measurements (deterministic).
    pub result: RunResult,
    /// Post-run engines in worker order — empty on a result-memo hit
    /// ([`MatrixRunner::run`] drops them with the cell).
    pub engines: Vec<AnyEngine>,
    /// Host wall-clock of the measured phase (zero on a memo hit).
    pub host_elapsed: Duration,
}

/// The pooled matrix executor. See the module docs.
pub struct MatrixRunner {
    pool: usize,
    memo_enabled: bool,
    results: Mutex<HashMap<String, RunResult>>,
    memo_hits: AtomicU64,
    cold_builds: AtomicU64,
}

impl Default for MatrixRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl MatrixRunner {
    /// A runner with the default pool: `SSP_BENCH_HOST_THREADS` if set,
    /// otherwise the host's available parallelism.
    pub fn new() -> Self {
        let pool = std::env::var("SSP_BENCH_HOST_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self::with_pool(pool)
    }

    /// A runner with an explicit host-thread pool size.
    pub fn with_pool(pool: usize) -> Self {
        assert!(pool >= 1, "at least one pool thread");
        Self {
            pool,
            memo_enabled: true,
            results: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            cold_builds: AtomicU64::new(0),
        }
    }

    /// Disables the result memo (every cell is simulated) — the
    /// reference configuration of the determinism tests.
    pub fn without_cache(mut self) -> Self {
        self.memo_enabled = false;
        self
    }

    /// `(result-memo hits, 0, cells simulated)` so far. The middle value
    /// is 0 by construction: the runner has no second cache to hit, and
    /// the 3-tuple stays only because `benchmark/` destructures it.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            0,
            self.cold_builds.load(Ordering::Relaxed),
        )
    }

    /// One line for bench footers: pool size and memo effectiveness.
    pub fn stats_line(&self) -> String {
        let (memo, _, cold) = self.cache_stats();
        format!(
            "host pool: {} thread(s); cells memoized: {memo}, cold warm-ups: {cold}",
            self.pool
        )
    }

    /// Runs every cell and returns the results in spec order. Pooled and
    /// memoized — and bit-identical to sequential per-cell execution
    /// (the determinism contract above). A cell's engines are dropped on
    /// the pool thread that ran it, so at most `pool` machines are alive
    /// however large the grid.
    pub fn run(&self, specs: &[CellSpec]) -> Vec<RunResult> {
        self.run_pooled(specs, |spec| self.exec(spec, false).result)
    }

    /// [`MatrixRunner::run`], returning the post-run engines and host
    /// timing per cell. Skips the result memo (a memoized result has no
    /// engines to hand back): every cell, duplicates included, is
    /// simulated.
    pub fn run_full(&self, specs: &[CellSpec]) -> Vec<CellOut> {
        self.run_pooled(specs, |spec| self.exec(spec, true))
    }

    /// Runs cells one at a time on the calling thread, bypassing the pool
    /// and the result memo — for targets whose *host* timing is the
    /// measurement (thread-scaling curves, recovery latency): cells must
    /// not compete with pool neighbours for cores.
    pub fn run_exclusive(&self, specs: &[CellSpec]) -> Vec<CellOut> {
        specs.iter().map(|s| self.exec(s, true)).collect()
    }

    /// Maps `cell` over the specs on the pool, results in spec order.
    /// Only what `cell` returns outlives the cell.
    fn run_pooled<T: Send>(
        &self,
        specs: &[CellSpec],
        cell: impl Fn(&CellSpec) -> T + Sync,
    ) -> Vec<T> {
        let workers = self.pool.min(specs.len());
        if workers <= 1 {
            return specs.iter().map(cell).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let out = cell(&specs[i]);
                    *slots[i].lock().expect("result slot") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every cell executed")
            })
            .collect()
    }

    fn exec(&self, spec: &CellSpec, want_engines: bool) -> CellOut {
        let cell_key = spec.cell_key();
        if self.memo_enabled && !want_engines {
            let memoized = self
                .results
                .lock()
                .expect("result memo")
                .get(&cell_key)
                .cloned();
            if let Some(result) = memoized {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                return CellOut {
                    result,
                    engines: Vec::new(),
                    host_elapsed: Duration::ZERO,
                };
            }
        }
        self.cold_builds.fetch_add(1, Ordering::Relaxed);
        let out = simulate(spec);
        if self.memo_enabled {
            self.results
                .lock()
                .expect("result memo")
                .insert(cell_key, out.result.clone());
        }
        out
    }
}

/// Simulates one cell from scratch on its driver: build engine +
/// workload, warm up, run the measured phase.
fn simulate(spec: &CellSpec) -> CellOut {
    let scale = spec.effective_scale();
    if !spec.is_sharded() {
        let engine = AnyEngine::build(spec.engine, &spec.cfg, &spec.ssp_cfg);
        let workload = make_workload(spec.workload, scale);
        let SingleRun {
            result,
            engine,
            host_elapsed,
        } = warm_single(engine, workload, &spec.run_cfg).run_measured(spec.run_cfg.txns);
        return CellOut {
            result,
            engines: vec![engine],
            host_elapsed,
        };
    }
    let threads = spec.run_cfg.threads;
    let shard_cfgs: Vec<MachineConfig> = if spec.per_worker {
        vec![spec.cfg.clone(); threads]
    } else {
        (0..threads)
            .map(|w| spec.cfg.shard_slice_for(threads, w))
            .collect()
    };
    let p = run_parallel(
        |w| AnyEngine::build(spec.engine, &shard_cfgs[w], &spec.ssp_cfg),
        |_w| make_workload(spec.workload, scale),
        &spec.run_cfg,
    );
    CellOut {
        result: p.result,
        engines: p.shards.into_iter().map(|s| s.engine).collect(),
        host_elapsed: p.host_elapsed,
    }
}

// The runner is shared by reference across its pool threads.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<MatrixRunner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env_setup;
    use ssp_workloads::runner::ExecMode;

    fn small_run(threads: usize) -> RunConfig {
        RunConfig {
            txns: 30,
            warmup: 6,
            threads,
            seed: 11,
            mode: ExecMode::Threaded,
        }
    }

    fn grid() -> Vec<CellSpec> {
        let cfg = MachineConfig::default().with_cores(2);
        let ssp = SspConfig::default();
        let mut specs = Vec::new();
        for ekind in [EngineKind::Ssp, EngineKind::Undo] {
            for threads in [1usize, 2] {
                specs.push(CellSpec::new(
                    ekind,
                    WorkloadKind::Sps,
                    &cfg,
                    &ssp,
                    Scale::SMOKE,
                    &small_run(threads),
                ));
            }
        }
        // A duplicate cell: exercises the result memo.
        specs.push(specs[0].clone());
        specs
    }

    #[test]
    fn pooled_matches_direct_per_cell_execution() {
        let specs = grid();
        let runner = MatrixRunner::with_pool(4);
        let pooled = runner.run(&specs);
        // Pool 1 without the memo simulates every cell, one at a time, on
        // the calling thread.
        let direct = MatrixRunner::with_pool(1).without_cache().run(&specs);
        assert_eq!(pooled, direct);
        // A second pass over the same grid is served from the result memo
        // (the first pass may race its duplicate cell across pool
        // threads, so only the re-run is a deterministic memo assertion).
        let again = runner.run(&specs);
        assert_eq!(again, pooled);
        let (memo, _, _) = runner.cache_stats();
        assert!(
            memo >= specs.len() as u64,
            "the second pass must hit the memo"
        );
    }

    /// Counts itself alive from construction to drop, and remembers the
    /// most that ever were.
    struct Probe<'a>(&'a Gauge);

    #[derive(Default)]
    struct Gauge {
        live: AtomicUsize,
        peak: AtomicUsize,
    }

    impl<'a> Probe<'a> {
        fn new(gauge: &'a Gauge) -> Self {
            let live = gauge.live.fetch_add(1, Ordering::SeqCst) + 1;
            gauge.peak.fetch_max(live, Ordering::SeqCst);
            Self(gauge)
        }
    }

    impl Drop for Probe<'_> {
        fn drop(&mut self) {
            self.0.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_grid_never_has_more_than_pool_cells_engines_alive() {
        const POOL: usize = 2;
        let specs: Vec<CellSpec> = (0..4).flat_map(|_| grid()).collect();
        let runner = MatrixRunner::with_pool(POOL).without_cache();
        // What `run` does per cell, with a probe that outlives the cell's
        // engines: they are born inside `exec` and die with its `CellOut`
        // at the end of the expression, before `_probe` does.
        let gauge = Gauge::default();
        let probed = runner.run_pooled(&specs, |spec| {
            let _probe = Probe::new(&gauge);
            runner.exec(spec, false).result
        });
        assert_eq!(gauge.live.load(Ordering::SeqCst), 0);
        let peak = gauge.peak.load(Ordering::SeqCst);
        assert!((1..=POOL).contains(&peak), "{peak} cells alive at once");
        assert_eq!(probed, runner.run(&specs));
        // Engines leave a cell only when asked for, one per shard.
        for (spec, out) in specs.iter().zip(runner.run_full(&specs[..4])) {
            assert_eq!(out.engines.len(), spec.run_cfg.threads);
        }
    }

    #[test]
    fn env_setup_quick_matches_default_shape() {
        // Both modes produce a config the runner accepts.
        let (run_cfg, scale) = env_setup(1);
        assert!(run_cfg.txns > 0);
        assert!(scale.keys > 0);
    }
}
