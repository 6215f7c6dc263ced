//! The four workloads: cell lists, one repetition of each, and the checks
//! on what the drivers return.
//!
//! Every workload is a closed loop of [`CLIENTS`] clients driving the
//! crates' public drivers; nothing here reaches below a `pub` item. A
//! repetition builds fresh engines (or a fresh `MatrixRunner`), runs the
//! workload's cell list once and returns host timings beside the exact
//! counters the drivers hand back. With a [`Collector`] the same cells run
//! through the decorators of [`crate::trace`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssp_bench::json::Json;
use ssp_bench::{
    cell_json, make_workload, AnyEngine, BenchReport, CellSpec, EngineKind, MatrixRunner, Scale,
    SspConfig, WorkloadKind,
};
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::{InterconnectConfig, MachineConfig};
use ssp_simulator::stats::MachineStats;
use ssp_txn::engine::{TxnEngine, TxnStats};
use ssp_workloads::conflict::ConflictSps;
use ssp_workloads::dist::KeyDist;
use ssp_workloads::runner::{warm_parallel, ExecMode, RunConfig, RunResult, Workload};
use ssp_workloads::shared::{run_shared, SharedHeapConfig, SharedStats};
use ssp_workloads::storm::{run_storm, StormPoint, StormSchedule, StormShardReport};

use crate::digest::Digest;
use crate::trace::{engine_layer, Call, CellTrace, Collector, Traced, TracedWorkload};

/// Load-generating clients of every workload. Fixed — not `nproc` — so
/// simulated counters do not depend on the host.
pub const CLIENTS: usize = 2;

/// Warm-up transactions per cell (`crash_storm` has none: its driver
/// verifies from the first transaction).
pub const WARMUP: u64 = 500;

/// Workload names, in run order. Normative: `BENCHMARK.json` lists the
/// same four.
pub const WORKLOADS: [&str; 4] = ["txn_stream", "figure_suite", "crash_storm", "shared_occ"];

/// `txn_stream`: measured transactions per cell.
pub const STREAM_TXNS: u64 = 200_000;
/// `figure_suite`: measured transactions per cell.
pub const FIGURE_TXNS: u64 = 4_000;
/// `crash_storm`: transactions per cell.
pub const STORM_TXNS: u64 = 6_000;
/// `crash_storm`: storm periods in cycles.
pub const STORM_PERIODS: [u64; 2] = [16_000, 64_000];
/// `shared_occ`: `(cell, interconnect epoch in cycles, transactions)`.
pub const SHARED_CELLS: [(&str, u64, u64); 2] =
    [("epoch50k", 50_000, 600_000), ("epoch5k", 5_000, 250_000)];

const STREAM_WORKLOADS: [WorkloadKind; 4] = [
    WorkloadKind::BTreeRand,
    WorkloadKind::HashZipf,
    WorkloadKind::Sps,
    WorkloadKind::Memcached,
];
const STORM_ENGINES: [EngineKind; 4] = [
    EngineKind::Undo,
    EngineKind::Redo,
    EngineKind::Ssp,
    EngineKind::Shadow,
];
const FIG8_MULTS: [f64; 5] = [1.0, 3.0, 5.0, 7.0, 9.0];
const FIG9_LATENCIES: [u64; 5] = [20, 60, 100, 140, 180];

const CORE: CoreId = CoreId::new(0);

/// The exact counters a cell returned (zero where its driver has none).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Measured-phase machine counters, merged over the shards.
    pub stats: MachineStats,
    /// Measured-phase transaction statistics.
    pub txn: TxnStats,
    /// Simulated cycles of the measured phase (max over the shards).
    pub sim_cycles: u64,
    /// OCC outcome counters (`shared_occ`).
    pub shared: SharedStats,
    /// Storm totals (`crash_storm`).
    pub storm: StormShardReport,
    /// SSP journal records appended over the engines' lifetime.
    pub journal_records: u64,
    /// SSP checkpoints over the engines' lifetime.
    pub checkpoints: u64,
    /// Transactions the engines committed over their lifetime (set-up and
    /// warm-up included) — the base of the lifetime counters above.
    pub lifetime_committed: u64,
}

/// What one cell did in one repetition.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell name, unique within its workload (`SSP.BTree-Rand`).
    pub name: String,
    /// Layer of the cell's engine (`core`, `baselines.undo`, ...); `bench`
    /// for the harness-level groups of `figure_suite`.
    pub layer: &'static str,
    /// Transactions requested.
    pub attempted: u64,
    /// Requested transactions that failed: not committed, lost, or all of
    /// them when the cell panicked.
    pub failed: u64,
    /// Operations completed, in the workload's own unit.
    pub ops: u64,
    /// Host time of the measured phase.
    pub measured: Duration,
    /// Host time outside the measured phase.
    pub setup: Duration,
    /// Host wall of the driver calls.
    pub wall: Duration,
    /// Hash over every exact counter the cell returned.
    pub digest: u64,
    /// The counters themselves.
    pub counters: Counters,
    /// The cell panicked (caught; the run continued).
    pub panicked: bool,
}

/// One repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// Per-cell outcomes, in cell-list order.
    pub cells: Vec<CellOutcome>,
    /// Set-up time measured beside the cells rather than inside them (the
    /// standalone set-up probes of `figure_suite` and `crash_storm`).
    pub extra_setup: Duration,
    /// Wall the cells do not cover (`figure_suite`: runner and spec
    /// construction, report serialisation).
    pub extra_wall: Duration,
    /// Harness observations (`figure_suite` only).
    pub harness: Option<Harness>,
}

/// What the `bench` layer did in one `figure_suite` repetition.
#[derive(Debug, Clone, Default)]
pub struct Harness {
    /// Cells submitted.
    pub cells: u64,
    /// Result-memo hits.
    pub memoized: u64,
    /// Warm-snapshot restores.
    pub warm_restores: u64,
    /// Cold warm-ups.
    pub cold_warmups: u64,
    /// `cell_json` + `BenchReport::to_json` + render.
    pub report_json: Duration,
}

impl RepOutcome {
    /// Operations completed.
    pub fn ops(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }
    /// Transactions requested.
    pub fn attempted(&self) -> u64 {
        self.cells.iter().map(|c| c.attempted).sum()
    }
    /// Transactions failed.
    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| c.failed).sum()
    }
    /// Host time of the measured phases.
    pub fn measured(&self) -> Duration {
        self.cells.iter().map(|c| c.measured).sum()
    }
    /// Host time outside the measured phases.
    pub fn setup(&self) -> Duration {
        self.cells.iter().map(|c| c.setup).sum::<Duration>() + self.extra_setup
    }
    /// Wall of the repetition, set-up included.
    pub fn wall(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum::<Duration>() + self.extra_wall
    }
    /// Hash over the cells' digests, in cell order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for c in &self.cells {
            d.debug(&c.name).u64(c.digest);
        }
        d.finish()
    }
}

/// How a repetition is run.
#[derive(Clone, Copy)]
pub struct RepCfg<'a> {
    /// Seed of every cell's RNG streams.
    pub seed: u64,
    /// Divisor of the transaction counts: 1 for the measured run, 10 for
    /// the traced one.
    pub div: u64,
    /// Install the decorators and record into this collector.
    pub trace: Option<&'a Collector>,
}

/// Runs one repetition of `workload`.
///
/// # Panics
///
/// Panics on a name outside [`WORKLOADS`].
pub fn run_rep(workload: &str, cfg: RepCfg<'_>) -> RepOutcome {
    match workload {
        "txn_stream" => txn_stream(cfg),
        "figure_suite" => figure_suite(cfg),
        "crash_storm" => crash_storm(cfg),
        "shared_occ" => shared_occ(cfg),
        other => panic!("unknown workload {other:?}"),
    }
}

/// The operation `host_ops_per_s` counts on each workload.
pub fn op_name(workload: &str) -> &'static str {
    match workload {
        "crash_storm" => "power cut recovered and verified",
        "figure_suite" => "measured txn (over the whole wall)",
        _ => "committed txn",
    }
}

fn layer_of(kind: EngineKind) -> &'static str {
    engine_layer(kind.name())
}

fn run_cfg(seed: u64, txns: u64, warmup: u64, threads: usize) -> RunConfig {
    RunConfig {
        txns,
        warmup,
        threads,
        seed,
        mode: ExecMode::Threaded,
    }
}

fn shard_cfgs() -> Vec<MachineConfig> {
    (0..CLIENTS)
        .map(|w| MachineConfig::default().shard_slice_for(CLIENTS, w))
        .collect()
}

/// Reaches the concrete engine under an optional decorator, for the
/// post-run probes (journal records, fingerprints).
pub trait Inner: TxnEngine {
    /// The engine itself.
    fn any(&self) -> &AnyEngine;
}

impl Inner for AnyEngine {
    fn any(&self) -> &AnyEngine {
        self
    }
}

impl Inner for Traced<AnyEngine> {
    fn any(&self) -> &AnyEngine {
        self.inner()
    }
}

/// Runs `f`, turning a panic into a cell whose every transaction failed.
/// The panic message has already gone to stderr through the default hook.
pub fn guarded(
    name: &str,
    layer: &'static str,
    attempted: u64,
    f: impl FnOnce() -> CellOutcome,
) -> CellOutcome {
    let t0 = Instant::now();
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| {
        let wall = t0.elapsed();
        eprintln!("cell {name} panicked; all {attempted} txns count as failed");
        CellOutcome {
            name: name.to_string(),
            layer,
            attempted,
            failed: attempted,
            ops: 0,
            measured: wall,
            setup: Duration::ZERO,
            wall,
            digest: 0,
            counters: Counters::default(),
            panicked: true,
        }
    })
}

fn trace_cell(
    cfg: &RepCfg<'_>,
    workload: &'static str,
    name: &str,
    layer: &'static str,
) -> Option<Arc<CellTrace>> {
    cfg.trace.map(|c| c.cell(workload, name, layer, CLIENTS))
}

// ---------------------------------------------------------------- txn_stream

/// The twelve `txn_stream` cells: `(engine, workload, "<engine>.<workload>")`.
pub fn stream_cells() -> Vec<(EngineKind, WorkloadKind, String)> {
    let mut cells = Vec::new();
    for engine in EngineKind::PAPER {
        for wkind in STREAM_WORKLOADS {
            let name = format!("{}.{}", engine.name(), wkind.name());
            cells.push((engine, wkind, name));
        }
    }
    cells
}

fn txn_stream(cfg: RepCfg<'_>) -> RepOutcome {
    let txns = STREAM_TXNS / cfg.div;
    let cells = stream_cells()
        .into_iter()
        .map(|(engine, wkind, name)| {
            let trace = trace_cell(&cfg, "txn_stream", &name, layer_of(engine));
            guarded(&name, layer_of(engine), txns, || {
                stream_cell(&name, engine, wkind, cfg.seed, txns, trace.as_deref())
            })
        })
        .collect();
    RepOutcome {
        cells,
        ..RepOutcome::default()
    }
}

/// One `txn_stream` cell: `warm_parallel` (set-up) then `run_measured`,
/// interconnect disabled, one machine slice per client.
pub fn stream_cell(
    name: &str,
    engine: EngineKind,
    wkind: WorkloadKind,
    seed: u64,
    txns: u64,
    trace: Option<&CellTrace>,
) -> CellOutcome {
    let t0 = Instant::now();
    let proto = make_workload(wkind, Scale::DEFAULT.per_shard(CLIENTS));
    let cfgs = shard_cfgs();
    let ssp = SspConfig::default();
    let rc = run_cfg(seed, txns, WARMUP, CLIENTS);
    let build = |w: usize| AnyEngine::build(engine, &cfgs[w], &ssp);
    match trace {
        None => stream_measure(name, engine, t0, &rc, build, |_| proto.clone()),
        Some(t) => {
            let out = stream_measure(
                name,
                engine,
                t0,
                &rc,
                |w| Traced::build(t.sink(w), || build(w)),
                |w| TracedWorkload::new(proto.clone(), t.sink(w)),
            );
            t.add_driver_call(out.wall.as_nanos() as u64, txns + WARMUP);
            out
        }
    }
}

fn stream_measure<E: Inner, W: Workload>(
    name: &str,
    engine: EngineKind,
    t0: Instant,
    rc: &RunConfig,
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
) -> CellOutcome {
    let warm = warm_parallel(mk_engine, mk_workload, rc);
    let setup = t0.elapsed();
    let run = warm.run_measured(rc.txns, rc.mode);
    let wall = t0.elapsed();

    let mut digest = Digest::new();
    digest.debug(&run.result);
    let mut counters = counters_of(&run.result);
    for shard in &run.shards {
        digest.u64(shard.engine.machine().nvram_fingerprint());
        probe_engine(shard.engine.any(), &mut counters);
    }
    let committed = run.result.txn_stats.committed;
    CellOutcome {
        name: name.to_string(),
        layer: layer_of(engine),
        attempted: rc.txns,
        failed: rc.txns.saturating_sub(committed),
        ops: committed,
        measured: run.host_elapsed,
        setup,
        wall,
        digest: digest.finish(),
        counters,
        panicked: false,
    }
}

fn counters_of(r: &RunResult) -> Counters {
    Counters {
        stats: r.stats.clone(),
        txn: r.txn_stats.clone(),
        sim_cycles: r.elapsed_cycles,
        ..Counters::default()
    }
}

fn probe_engine(engine: &AnyEngine, counters: &mut Counters) {
    counters.lifetime_committed += engine.txn_stats().committed;
    if let Some(ssp) = engine.as_ssp() {
        counters.journal_records += ssp.journal_records();
        counters.checkpoints += ssp.checkpoints();
    }
}

// -------------------------------------------------------------- figure_suite

/// The paper grids of `figure_suite`, one thread per cell:
/// `(group, specs)` for Fig 5a, Fig 8 and Fig 9.
pub fn figure_groups(seed: u64, txns: u64) -> Vec<(&'static str, Vec<CellSpec>)> {
    let rc = run_cfg(seed, txns, WARMUP, 1);
    let base = MachineConfig::default().with_cores(1);
    let ssp = SspConfig::default();
    let scale = Scale::DEFAULT;

    let mut fig5a = Vec::new();
    for wkind in WorkloadKind::MICRO {
        for ekind in EngineKind::PAPER {
            fig5a.push(CellSpec::new(ekind, wkind, &base, &ssp, scale, &rc));
        }
    }
    let mut fig8 = Vec::new();
    for wkind in [WorkloadKind::RbTreeRand, WorkloadKind::BTreeRand] {
        for mult in FIG8_MULTS {
            let cfg = base.with_nvram_latency_multiplier(mult);
            for ekind in EngineKind::PAPER {
                fig8.push(CellSpec::new(ekind, wkind, &cfg, &ssp, scale, &rc));
            }
        }
    }
    let mut fig9 = Vec::new();
    for wkind in WorkloadKind::MICRO {
        fig9.push(CellSpec::new(
            EngineKind::Redo,
            wkind,
            &base,
            &ssp,
            scale,
            &rc,
        ));
    }
    for wkind in WorkloadKind::MICRO {
        for lat in FIG9_LATENCIES {
            let ssp_lat = SspConfig {
                meta_latency_override: Some(lat),
                ..SspConfig::default()
            };
            fig9.push(CellSpec::new(
                EngineKind::Ssp,
                wkind,
                &base,
                &ssp_lat,
                scale,
                &rc,
            ));
        }
    }
    vec![("fig5a", fig5a), ("fig8", fig8), ("fig9", fig9)]
}

fn figure_suite(cfg: RepCfg<'_>) -> RepOutcome {
    let txns = FIGURE_TXNS / cfg.div;

    // Set-up probe, beside the repetition: the Fig 5a grid with a single
    // measured transaction per cell, on a runner of its own. What is left
    // is engine construction + `Workload::setup` + warm-up of 21 cells —
    // the cost `MatrixRunner` pays inside `wall_s` for every cold cell.
    let t_probe = Instant::now();
    let probe = MatrixRunner::with_pool(CLIENTS);
    let probe_specs = figure_groups(cfg.seed, 1).swap_remove(0).1;
    let probe_ok = catch_unwind(AssertUnwindSafe(|| probe.run(&probe_specs))).is_ok();
    let extra_setup = t_probe.elapsed();

    let t0 = Instant::now();
    let runner = MatrixRunner::with_pool(CLIENTS);
    let groups = figure_groups(cfg.seed, txns);
    let construct = t0.elapsed();

    let mut cells = Vec::new();
    let mut all_results: Vec<RunResult> = Vec::new();
    let mut submitted = 0u64;
    for (group, specs) in &groups {
        submitted += specs.len() as u64;
        let attempted = txns * specs.len() as u64;
        // The runner builds its engines itself, so the decorators cannot
        // go in; the traced repetition records the harness calls instead.
        let trace = cfg.trace.map(|c| c.cell("figure_suite", group, "bench", 1));
        cells.push(guarded(group, "bench", attempted, || {
            let tg = Instant::now();
            let results = match &trace {
                None => runner.run(specs),
                Some(t) => t.sink(0).time(Call::RunGrid, || runner.run(specs)),
            };
            let wall = tg.elapsed();
            if let Some(t) = &trace {
                t.add_driver_call(wall.as_nanos() as u64, attempted);
            }
            let mut digest = Digest::new();
            let mut counters = Counters::default();
            let mut committed = 0;
            for r in &results {
                digest.debug(r);
                counters.stats.merge(&r.stats);
                counters.txn.merge(&r.txn_stats);
                counters.sim_cycles += r.elapsed_cycles;
                committed += r.txn_stats.committed.min(r.txns);
            }
            all_results.extend(results);
            CellOutcome {
                name: group.to_string(),
                layer: "bench",
                attempted,
                failed: attempted - committed,
                ops: committed,
                // Users pay the set-up on every run: the rate is taken
                // over the whole wall.
                measured: wall,
                setup: Duration::ZERO,
                wall,
                digest: digest.finish(),
                counters,
                panicked: false,
            }
        }));
    }

    let tj = Instant::now();
    let render = || {
        let mut report = BenchReport::new("figure_suite", false);
        report.sim(
            "cells",
            Json::Arr(all_results.iter().map(|r| cell_json(1, r)).collect()),
        );
        report.to_json().render().len()
    };
    std::hint::black_box(match cfg.trace {
        None => render(),
        Some(c) => c
            .cell("figure_suite", "report", "bench", 1)
            .sink(0)
            .time(Call::ReportJson, render),
    });
    let report_json = tj.elapsed();

    if !probe_ok {
        // The probe runs the same cells as fig5a; count its panic there.
        let fig5a = &mut cells[0];
        fig5a.failed = fig5a.attempted;
        fig5a.panicked = true;
    }
    let (memoized, warm_restores, cold_warmups) = runner.cache_stats();
    RepOutcome {
        cells,
        extra_setup,
        extra_wall: construct + report_json,
        harness: Some(Harness {
            cells: submitted,
            memoized,
            warm_restores,
            cold_warmups,
            report_json,
        }),
    }
}

// --------------------------------------------------------------- crash_storm

fn crash_storm(cfg: RepCfg<'_>) -> RepOutcome {
    let txns = STORM_TXNS / cfg.div;
    let mut cells = Vec::new();
    let mut extra_setup = Duration::ZERO;
    for engine in STORM_ENGINES {
        for period in STORM_PERIODS {
            let name = format!("{}.p{}k", engine.name(), period / 1000);
            let trace = trace_cell(&cfg, "crash_storm", &name, layer_of(engine));
            cells.push(guarded(&name, layer_of(engine), txns, || {
                storm_cell(&name, engine, period, cfg.seed, txns, trace.as_deref())
            }));
            extra_setup += storm_setup_probe(engine);
        }
    }
    RepOutcome {
        cells,
        extra_setup,
        ..RepOutcome::default()
    }
}

fn storm_workload() -> ssp_workloads::Sps {
    let n = Scale::DEFAULT.per_shard(CLIENTS).sps_elems;
    ssp_workloads::Sps::new(n, KeyDist::uniform(n))
}

/// `run_storm` returns no set-up time, so the same construction and
/// `Workload::setup` calls are timed standalone, one shard after the other.
fn storm_setup_probe(engine: EngineKind) -> Duration {
    let t0 = Instant::now();
    let ssp = SspConfig::default();
    for cfg in shard_cfgs() {
        let mut e = AnyEngine::build(engine, &cfg, &ssp);
        storm_workload().setup(&mut e, CORE);
        std::hint::black_box(e.txn_stats().committed);
    }
    t0.elapsed()
}

/// One `crash_storm` cell: `run_storm` over SPS with a periodic schedule,
/// every first recovery itself cut short.
pub fn storm_cell(
    name: &str,
    engine: EngineKind,
    period: u64,
    seed: u64,
    txns: u64,
    trace: Option<&CellTrace>,
) -> CellOutcome {
    let cfgs = shard_cfgs();
    let ssp = SspConfig::default();
    let rc = run_cfg(seed, txns, 0, CLIENTS);
    let schedule = StormSchedule {
        points: vec![StormPoint::AfterCycles(period)],
        crash_during_recovery: true,
        rearm: true,
    };
    let build = |w: usize| AnyEngine::build(engine, &cfgs[w], &ssp);
    let t0 = Instant::now();
    let run = match trace {
        None => run_storm(build, |_| storm_workload(), &rc, &schedule),
        Some(t) => run_storm(
            |w| Traced::build(t.sink(w), || build(w)),
            |w| TracedWorkload::new(storm_workload(), t.sink(w)),
            &rc,
            &schedule,
        ),
    };
    let wall = t0.elapsed();
    if let Some(t) = trace {
        t.add_driver_call(wall.as_nanos() as u64, txns);
    }

    let totals = run.totals();
    let mut digest = Digest::new();
    for shard in &run.shards {
        digest.debug(shard);
    }
    digest.u64(run.combined_fingerprint());
    let not_run = txns.saturating_sub(totals.txns);
    CellOutcome {
        name: name.to_string(),
        layer: layer_of(engine),
        attempted: txns,
        failed: (totals.lost_txns + not_run).min(txns),
        ops: totals.storms,
        // The driver exposes no measured phase: the whole call counts.
        measured: wall,
        setup: Duration::ZERO,
        wall,
        digest: digest.finish(),
        counters: Counters {
            sim_cycles: totals.elapsed_cycles,
            storm: totals,
            ..Counters::default()
        },
        panicked: false,
    }
}

// ---------------------------------------------------------------- shared_occ

fn shared_occ(cfg: RepCfg<'_>) -> RepOutcome {
    let mut cells = Vec::new();
    for (cell, epoch, txns) in SHARED_CELLS {
        let txns = txns / cfg.div;
        let trace = trace_cell(&cfg, "shared_occ", cell, "core");
        cells.push(guarded(cell, "core", txns, || {
            shared_cell(cell, epoch, cfg.seed, txns, trace.as_deref())
        }));
    }
    RepOutcome {
        cells,
        ..RepOutcome::default()
    }
}

/// One `shared_occ` cell: `run_shared` over the conflict dial at 0.5 on
/// SSP, full shared hierarchy, the epoch length set by the cell.
pub fn shared_cell(
    name: &str,
    epoch_cycles: u64,
    seed: u64,
    txns: u64,
    trace: Option<&CellTrace>,
) -> CellOutcome {
    const ELEMS: u64 = 4096;
    let mut shard = MachineConfig::default().shard_slice(CLIENTS);
    shard.interconnect = InterconnectConfig::shared_hierarchy();
    shard.interconnect.epoch_cycles = epoch_cycles;
    let rc = run_cfg(seed, txns, WARMUP, CLIENTS);
    let heap = SharedHeapConfig::default();
    let build = |_w: usize| AnyEngine::build(EngineKind::Ssp, &shard, &SspConfig::default());
    let workload =
        |w: usize| ConflictSps::new(ELEMS, ELEMS, CLIENTS, w, 0.5, KeyDist::paper_zipf(ELEMS));

    let t0 = Instant::now();
    let out = match trace {
        None => shared_measure(name, t0, run_shared(build, workload, &rc, &heap)),
        Some(t) => {
            let run = run_shared(
                |w| Traced::build(t.sink(w), || build(w)),
                |w| TracedWorkload::new(workload(w), t.sink(w)),
                &rc,
                &heap,
            );
            let out = shared_measure(name, t0, run);
            t.add_driver_call(out.wall.as_nanos() as u64, txns + WARMUP);
            out
        }
    };
    CellOutcome {
        attempted: txns,
        failed: txns.saturating_sub(out.ops),
        ..out
    }
}

fn shared_measure<E: Inner>(
    name: &str,
    t0: Instant,
    run: ssp_workloads::shared::SharedRun<E>,
) -> CellOutcome {
    let wall = t0.elapsed();
    let mut digest = Digest::new();
    digest.debug(&run.result).debug(&run.shared);
    let mut counters = counters_of(&run.result);
    counters.shared = run.shared;
    for shard in &run.shards {
        digest.u64(shard.engine.machine().nvram_fingerprint());
        probe_engine(shard.engine.any(), &mut counters);
    }
    CellOutcome {
        name: name.to_string(),
        layer: "core",
        attempted: 0,
        failed: 0,
        // OCC aborts are retried, not failed: an op is a committed txn.
        ops: run.shared.committed.min(run.result.txns),
        measured: run.host_elapsed,
        setup: wall.saturating_sub(run.host_elapsed),
        wall,
        digest: digest.finish(),
        counters,
        panicked: false,
    }
}
