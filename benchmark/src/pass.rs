//! The traced pass: every workload once at a tenth of its transaction
//! count, without and with the decorators, plus the layer kernels — and
//! the per-layer metrics computed from them.
//!
//! Each per-layer metric has one definition and one source (see
//! [`crate::metrics::per_layer`]), so the pass runs all four workloads
//! whatever `--workload` names. Exact counts come from the plain
//! tenth-scale repetitions, times from the decorated ones and the kernels.
//! The plain and decorated repetitions must agree on every `sim_digest`:
//! the decorators' transparency is checked on every traced run.

use ssp_simulator::stats::WriteClass;

use crate::kernels;
use crate::metrics::{per_layer, ratio, Values, ENGINE_LAYERS};
use crate::trace::{Agg, Call, CellTrace, Collector};
use crate::workloads::{run_rep, CellOutcome, RepCfg, RepOutcome, SHARED_CELLS, WORKLOADS};

/// Divisor of the transaction counts in the traced pass.
pub const TRACE_DIV: u64 = 10;

/// `figure_suite` runs the traced pass at full size: its cells are short
/// already (4 000 transactions), and at a tenth the measured simulation
/// the `bench.*` metrics are about drowns in the set-up around it.
fn trace_div(workload: &str) -> u64 {
    if workload == "figure_suite" {
        1
    } else {
        TRACE_DIV
    }
}

/// Both repetitions of one workload in the traced pass.
pub struct PassWorkload {
    /// Workload name.
    pub workload: &'static str,
    /// The tenth-scale repetition without decorators.
    pub plain: RepOutcome,
    /// The same repetition through the decorators.
    pub traced: RepOutcome,
}

impl PassWorkload {
    /// Decorated and plain repetitions simulated exactly the same thing.
    pub fn transparent(&self) -> bool {
        self.plain.digest() == self.traced.digest()
    }
}

/// Everything the traced pass produced.
pub struct Pass {
    /// The repetitions, in workload order.
    pub workloads: Vec<PassWorkload>,
    /// Every per-layer metric.
    pub values: Values,
}

impl Pass {
    /// Transactions requested over all repetitions of the pass.
    pub fn attempted(&self) -> u64 {
        self.workloads
            .iter()
            .map(|w| w.plain.attempted() + w.traced.attempted())
            .sum()
    }

    /// Transactions failed over all repetitions of the pass; every
    /// transaction of a workload the decorators changed counts.
    pub fn failed(&self) -> u64 {
        self.workloads
            .iter()
            .map(|w| {
                if w.transparent() {
                    w.plain.failed() + w.traced.failed()
                } else {
                    w.plain.attempted() + w.traced.attempted()
                }
            })
            .sum()
    }

    /// No failure and no digest moved by the decorators.
    pub fn ok(&self) -> bool {
        self.failed() == 0 && self.workloads.iter().all(PassWorkload::transparent)
    }
}

/// Runs the traced pass for `seed`, recording spans into `collector`.
pub fn traced_pass(seed: u64, collector: &Collector) -> Pass {
    let workloads: Vec<PassWorkload> = WORKLOADS
        .iter()
        .map(|&workload| {
            let cfg = RepCfg {
                seed,
                div: trace_div(workload),
                trace: None,
            };
            let plain = run_rep(workload, cfg);
            let traced = run_rep(
                workload,
                RepCfg {
                    trace: Some(collector),
                    ..cfg
                },
            );
            PassWorkload {
                workload,
                plain,
                traced,
            }
        })
        .collect();

    let mut values = Values::default();
    kernels::simulator(seed, &mut values);
    kernels::oracle(seed, &mut values);
    kernels::occ_validate(seed, &mut values);
    kernels::span_overhead(&mut values);
    let rep = |name: &str| {
        workloads
            .iter()
            .find(|w| w.workload == name)
            .expect("the pass runs every workload")
    };
    simulator_counts(
        &rep("txn_stream").plain,
        &rep("shared_occ").plain,
        &mut values,
    );
    engine_layers(&rep("txn_stream").plain, collector, &mut values);
    txn_layer(&rep("shared_occ").plain, &mut values);
    workloads_layer(
        &rep("txn_stream").plain,
        &rep("crash_storm").plain,
        &rep("shared_occ").plain,
        collector,
        &mut values,
    );
    bench_layer(&rep("figure_suite").plain, &mut values);
    for w in &workloads {
        let per_op = |r: &RepOutcome| ratio(r.wall().as_secs_f64(), r.ops() as f64);
        values.set(
            &format!("trace_overhead_ratio.{}", w.workload),
            ratio(per_op(&w.traced), per_op(&w.plain)),
        );
    }

    for def in per_layer() {
        let v = values.get(&def.name);
        assert!(
            v.is_some_and(f64::is_finite),
            "per-layer metric {} not computed (got {v:?})",
            def.name
        );
    }
    Pass { workloads, values }
}

fn sum(cells: &[&CellOutcome], f: impl Fn(&CellOutcome) -> f64) -> f64 {
    cells.iter().map(|c| f(c)).sum()
}

fn all(rep: &RepOutcome) -> Vec<&CellOutcome> {
    rep.cells.iter().collect()
}

fn of_layer<'a>(rep: &'a RepOutcome, layer: &str) -> Vec<&'a CellOutcome> {
    rep.cells.iter().filter(|c| c.layer == layer).collect()
}

fn ops(cells: &[&CellOutcome]) -> f64 {
    sum(cells, |c| c.ops as f64)
}

fn simulator_counts(stream: &RepOutcome, shared: &RepOutcome, out: &mut Values) {
    let cells = all(stream);
    let n = ops(&cells);
    let stat = |f: fn(&CellOutcome) -> u64| sum(&cells, |c| f(c) as f64);
    let l1 = stat(|c| c.counters.stats.l1_hits);
    let accesses = l1
        + stat(|c| c.counters.stats.l2_hits)
        + stat(|c| c.counters.stats.l3_hits)
        + stat(|c| c.counters.stats.mem_accesses);
    out.set("simulator.accesses_per_op", ratio(accesses, n));
    out.set("simulator.l1_hit_ratio", ratio(l1, accesses));
    out.set(
        "simulator.mem_accesses_per_op",
        ratio(stat(|c| c.counters.stats.mem_accesses), n),
    );
    out.set(
        "simulator.nvram_reads_per_op",
        ratio(stat(|c| c.counters.stats.nvram_reads), n),
    );
    out.set(
        "simulator.nvram_writes_per_op",
        ratio(stat(|c| c.counters.stats.nvram_writes_total()), n),
    );
    out.set(
        "simulator.tlb_misses_per_op",
        ratio(stat(|c| c.counters.stats.tlb_misses), n),
    );
    let cycles = stat(|c| c.counters.sim_cycles);
    out.set("simulator.sim_cycles_per_op", ratio(cycles, n));
    out.set(
        "simulator.host_ns_per_sim_cycle",
        ratio(stream.measured().as_nanos() as f64, cycles),
    );

    // The interconnect is off in txn_stream; its counters live in
    // shared_occ.
    let cells = all(shared);
    let n = ops(&cells);
    let stat = |f: fn(&CellOutcome) -> u64| sum(&cells, |c| f(c) as f64);
    out.set(
        "simulator.bankq_delay_cycles_per_op",
        ratio(stat(|c| c.counters.stats.bankq_delay_cycles), n),
    );
    out.set(
        "simulator.llc_extra_misses_per_op",
        ratio(stat(|c| c.counters.stats.llc_extra_misses), n),
    );
    out.set(
        "simulator.coh_cross_invalidations_per_op",
        ratio(stat(|c| c.counters.stats.coh_cross_invalidations), n),
    );
}

/// One call's run-phase aggregate over the cells of `workload` whose
/// engine lives in `layer`.
fn layer_calls(collector: &Collector, workload: &str, layer: &str, call: Call) -> Agg {
    let mut total = Agg::default();
    for cell in collector.cells_of(workload) {
        if cell.layer == layer {
            total.merge(&cell.total(call));
        }
    }
    total
}

fn per_call_ns(a: Agg) -> f64 {
    ratio(a.total_ns as f64, a.count as f64)
}

fn engine_layers(stream: &RepOutcome, collector: &Collector, out: &mut Values) {
    for (layer, commit_side) in ENGINE_LAYERS {
        let calls = |call| layer_calls(collector, commit_side, layer, call);
        let mut engine_calls = 0;
        for call in [Call::Begin, Call::Load, Call::Store, Call::Commit] {
            let a = calls(call);
            engine_calls += a.count;
            out.set(&format!("{layer}.{}_ns", call.name()), per_call_ns(a));
        }
        engine_calls += calls(Call::Abort).count;
        out.set(
            &format!("{layer}.calls_per_op"),
            ratio(engine_calls as f64, calls(Call::Txn).count as f64),
        );
        for call in [Call::Recover, Call::Crash] {
            let a = layer_calls(collector, "crash_storm", layer, call);
            out.set(&format!("{layer}.{}_ms", call.name()), per_call_ns(a) / 1e6);
        }
    }

    let ssp = of_layer(stream, "core");
    let undo = of_layer(stream, "baselines.undo");
    let redo = of_layer(stream, "baselines.redo");
    let writes =
        |cells: &[&CellOutcome], class| sum(cells, |c| c.counters.stats.nvram_writes(class) as f64);
    out.set(
        "core.journal_records_per_op",
        ratio(
            sum(&ssp, |c| c.counters.journal_records as f64),
            sum(&ssp, |c| c.counters.lifetime_committed as f64),
        ),
    );
    out.set(
        "core.consolidation_copies_per_op",
        ratio(writes(&ssp, WriteClass::Consolidation), ops(&ssp)),
    );
    out.set(
        "core.checkpoints",
        sum(&ssp, |c| c.counters.checkpoints as f64),
    );
    out.set(
        "core.fallbacks_per_op",
        ratio(sum(&ssp, |c| c.counters.txn.fallbacks as f64), ops(&ssp)),
    );
    out.set(
        "baselines.undo.log_writes_per_op",
        ratio(writes(&undo, WriteClass::Log), ops(&undo)),
    );
    out.set(
        "baselines.redo.log_writes_per_op",
        ratio(writes(&redo, WriteClass::Log), ops(&redo)),
    );

    // Paper shape, exact, over the txn_stream cells: the same transaction
    // count per cell, so simulated speed-up is a ratio of cycles.
    let log_speedup: f64 = ssp
        .iter()
        .zip(&undo)
        .map(|(s, u)| ratio(u.counters.sim_cycles as f64, s.counters.sim_cycles as f64).ln())
        .sum();
    out.set(
        "core.ssp_speedup_vs_undo",
        (log_speedup / ssp.len().max(1) as f64).exp(),
    );
    let total =
        |cells: &[&CellOutcome]| sum(cells, |c| c.counters.stats.nvram_writes_total() as f64);
    out.set(
        "core.ssp_write_saving_vs_undo",
        1.0 - ratio(total(&ssp), total(&undo)),
    );
    let logging = |cells: &[&CellOutcome]| sum(cells, |c| c.counters.stats.logging_writes() as f64);
    out.set(
        "core.ssp_logging_write_cut_vs_undo",
        ratio(logging(&undo), logging(&ssp)),
    );
}

fn txn_layer(shared: &RepOutcome, out: &mut Values) {
    let cells = all(shared);
    let n = ops(&cells);
    let stat = |f: fn(&CellOutcome) -> u64| sum(&cells, |c| f(c) as f64);
    out.set(
        "txn.occ_abort_ratio",
        ratio(
            stat(|c| c.counters.shared.aborted),
            stat(|c| c.counters.shared.validated),
        ),
    );
    out.set(
        "txn.occ_retries_per_op",
        ratio(stat(|c| c.counters.shared.retries), n),
    );
    out.set(
        "txn.occ_backoff_cycles_per_op",
        ratio(stat(|c| c.counters.shared.backoff_cycles), n),
    );
}

/// Time the workers of a cell spent outside every decorated call: thread
/// start-up, barrier waits, epoch rendezvous, stats merging.
fn driver_self_ns(cell: &CellTrace) -> f64 {
    let (wall_ns, _) = cell.driver_calls();
    (wall_ns * cell.workers() as u64).saturating_sub(cell.top_ns()) as f64
}

fn workloads_layer(
    stream: &RepOutcome,
    storm: &RepOutcome,
    shared: &RepOutcome,
    collector: &Collector,
    out: &mut Values,
) {
    let mut body = Agg::default();
    let mut setup = Agg::default();
    for cell in collector.cells_of("txn_stream") {
        body.merge(&cell.total(Call::RunTxn));
        setup.merge(&cell.total(Call::Setup));
    }
    out.set(
        "workloads.body_self_ns_per_op",
        ratio(body.self_ns() as f64, body.count as f64),
    );
    out.set("workloads.setup_ms_per_cell", per_call_ns(setup) / 1e6);

    let occ = collector.cells_of("shared_occ");
    let driver: f64 = occ.iter().map(|c| driver_self_ns(c)).sum();
    let txns: f64 = occ.iter().map(|c| c.driver_calls().1 as f64).sum();
    out.set("workloads.driver_self_ns_per_op", ratio(driver, txns));

    // The two shared_occ cells differ in epoch length only: solve
    // driver_self = a * txns + b * epochs over them for b.
    let point = |(name, epoch_cycles, _): (&str, u64, u64)| {
        let traced = occ.iter().find(|c| c.cell == name);
        let plain = shared.cells.iter().find(|c| c.name == name);
        match (traced, plain) {
            (Some(t), Some(p)) => (
                driver_self_ns(t),
                t.driver_calls().1 as f64,
                p.counters.sim_cycles as f64 / epoch_cycles as f64,
            ),
            _ => (0.0, 0.0, 0.0),
        }
    };
    let (d_long, n_long, e_long) = point(SHARED_CELLS[0]);
    let (d_short, n_short, e_short) = point(SHARED_CELLS[1]);
    out.set(
        "workloads.driver_self_ns_per_epoch",
        ratio(
            d_short * n_long - d_long * n_short,
            e_short * n_long - e_long * n_short,
        ),
    );

    out.set(
        "workloads.storm_wall_ms_per_cut",
        ratio(storm.wall().as_secs_f64() * 1e3, storm.ops() as f64),
    );
    for c in &stream.cells {
        out.set(
            &format!("workloads.host_ops_per_s.{}", c.name),
            ratio(c.ops as f64, c.measured.as_secs_f64()),
        );
    }
}

fn bench_layer(figures: &RepOutcome, out: &mut Values) {
    let h = figures.harness.clone().unwrap_or_default();
    out.set("bench.cells", h.cells as f64);
    out.set("bench.cells_memoized", h.memoized as f64);
    out.set("bench.warm_restores", h.warm_restores as f64);
    out.set("bench.cold_warmups", h.cold_warmups as f64);
    out.set(
        "bench.warm_hit_ratio",
        ratio(
            h.warm_restores as f64,
            (h.warm_restores + h.cold_warmups) as f64,
        ),
    );
    for c in &figures.cells {
        out.set(
            &format!("bench.group_wall_s.{}", c.name),
            c.wall.as_secs_f64(),
        );
    }
    // The set-up probe is the fig5a grid at one measured transaction per
    // cell: what it does not take of fig5a's wall is measured simulation.
    let fig5a = figures.cells.first().map_or(0.0, |c| c.wall.as_secs_f64());
    out.set(
        "bench.measured_share",
        (1.0 - ratio(figures.extra_setup.as_secs_f64(), fig5a)).max(0.0),
    );
    out.set("bench.report_json_ms", h.report_json.as_secs_f64() * 1e3);
}
