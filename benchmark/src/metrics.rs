//! Metric names, units and directions — the one table `BENCHMARK.json`,
//! the printed output and the result files all follow — plus the small
//! statistics the reports need.

use std::collections::BTreeMap;

use crate::workloads::{stream_cells, WORKLOADS};

/// An end-to-end metric: what a user of the repo waits for or pays.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported per workload. `failed_ops_share` is
/// printed beside them but is not in this table: it is 0 on a healthy
/// run, and the result line carries `failed` / `attempted` instead.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "host_ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// A per-layer metric. Each has one definition and one source — a workload
/// of the traced pass or a layer kernel — whatever `--workload` names.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Where the number comes from.
    pub source: &'static str,
}

/// The engine layers, each with the workload whose decorated calls give
/// its commit-side times. SHADOW runs in `crash_storm` only.
pub const ENGINE_LAYERS: [(&str, &str); 4] = [
    ("core", "txn_stream"),
    ("baselines.undo", "txn_stream"),
    ("baselines.redo", "txn_stream"),
    ("baselines.shadow", "crash_storm"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v = Vec::new();
    let mut add = |name: &str, unit, better, source| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            source,
        })
    };
    const TS: &str = "txn_stream";
    const FS: &str = "figure_suite";
    const CS: &str = "crash_storm";
    const SO: &str = "shared_occ";
    const K: &str = "kernel";

    // simulator: exact counts per op, then host-time kernels.
    add("simulator.accesses_per_op", "count", "lower", TS);
    add("simulator.l1_hit_ratio", "ratio", "higher", TS);
    add("simulator.mem_accesses_per_op", "count", "lower", TS);
    add("simulator.nvram_reads_per_op", "count", "lower", TS);
    add("simulator.nvram_writes_per_op", "count", "lower", TS);
    add("simulator.tlb_misses_per_op", "count", "lower", TS);
    add("simulator.sim_cycles_per_op", "cycles", "lower", TS);
    add("simulator.bankq_delay_cycles_per_op", "cycles", "lower", SO);
    add("simulator.llc_extra_misses_per_op", "count", "lower", SO);
    add(
        "simulator.coh_cross_invalidations_per_op",
        "count",
        "lower",
        SO,
    );
    add("simulator.read_hit_ns", "ns", "lower", K);
    add("simulator.read_miss_ns", "ns", "lower", K);
    add("simulator.write_tx_ns", "ns", "lower", K);
    add("simulator.flush_ns", "ns", "lower", K);
    add("simulator.crash_ms", "ms", "lower", K);
    add("simulator.arbitrate_ns_per_event", "ns", "lower", K);
    add("simulator.host_ns_per_sim_cycle", "ns", "lower", TS);

    // Engines: per-call times through `Traced<E>` (simulator included).
    for (layer, commit_side) in ENGINE_LAYERS {
        for call in ["begin", "load", "store", "commit"] {
            add(&format!("{layer}.{call}_ns"), "ns", "lower", commit_side);
        }
        add(&format!("{layer}.recover_ms"), "ms", "lower", CS);
        add(&format!("{layer}.crash_ms"), "ms", "lower", CS);
        add(
            &format!("{layer}.calls_per_op"),
            "count",
            "lower",
            commit_side,
        );
    }
    add("core.journal_records_per_op", "count", "lower", TS);
    add("core.consolidation_copies_per_op", "count", "lower", TS);
    add("core.checkpoints", "count", "lower", TS);
    add("core.fallbacks_per_op", "count", "lower", TS);
    add("baselines.undo.log_writes_per_op", "count", "lower", TS);
    add("baselines.redo.log_writes_per_op", "count", "lower", TS);
    add("core.ssp_speedup_vs_undo", "ratio", "higher", TS);
    add("core.ssp_write_saving_vs_undo", "ratio", "higher", TS);
    add("core.ssp_logging_write_cut_vs_undo", "ratio", "higher", TS);

    // txn: oracle (crash_storm's verifier) and OCC (shared_occ's).
    add("txn.oracle_committed_bytes", "B", "lower", K);
    add("txn.oracle_clone_ms", "ms", "lower", K);
    add("txn.oracle_verify_ms", "ms", "lower", K);
    add("txn.oracle_on_commit_ns", "ns", "lower", K);
    add("txn.occ_validate_ns_per_intent", "ns", "lower", K);
    add("txn.occ_abort_ratio", "ratio", "lower", SO);
    add("txn.occ_retries_per_op", "count", "lower", SO);
    add("txn.occ_backoff_cycles_per_op", "cycles", "lower", SO);

    // workloads: drivers and data structures.
    add("workloads.body_self_ns_per_op", "ns", "lower", TS);
    add("workloads.driver_self_ns_per_op", "ns", "lower", SO);
    add("workloads.driver_self_ns_per_epoch", "ns", "lower", SO);
    add("workloads.setup_ms_per_cell", "ms", "lower", TS);
    add("workloads.storm_wall_ms_per_cut", "ms", "lower", CS);
    for (_, _, cell) in stream_cells() {
        add(
            &format!("workloads.host_ops_per_s.{cell}"),
            "op/s",
            "higher",
            TS,
        );
    }

    // bench: the harness.
    add("bench.cells", "count", "lower", FS);
    add("bench.cells_memoized", "count", "higher", FS);
    add("bench.warm_restores", "count", "higher", FS);
    add("bench.cold_warmups", "count", "lower", FS);
    add("bench.warm_hit_ratio", "ratio", "higher", FS);
    for group in ["fig5a", "fig8", "fig9"] {
        add(&format!("bench.group_wall_s.{group}"), "s", "lower", FS);
    }
    add("bench.measured_share", "ratio", "higher", FS);
    add("bench.report_json_ms", "ms", "lower", FS);

    // What the decorators cost, so traced times are not read as absolute.
    for w in WORKLOADS {
        add(&format!("trace_overhead_ratio.{w}"), "ratio", "lower", w);
    }
    add("trace_overhead_ns_per_span", "ns", "lower", K);
    v
}

/// Named values computed by one pass; a name is set once.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics when the name was already set: two definitions of one
    /// metric is a bug in this package.
    pub fn set(&mut self, name: &str, value: f64) {
        let old = self.0.insert(name.to_string(), value);
        assert!(old.is_none(), "metric {name} computed twice");
    }

    /// Looks a value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, extremes and sample count of one timed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `xs`.
    pub fn of(xs: &[f64]) -> Self {
        Self {
            median: median(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w), "{w}");
            assert!(seen.insert(w.to_string()), "{w} used twice");
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name.to_string()), "{} used twice", m.name);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
    }
}
