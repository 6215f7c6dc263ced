//! # ssp-bench — the evaluation harness
//!
//! One `harness = false` bench target per table and figure of the paper's
//! Section 5, so `cargo bench --workspace` regenerates the whole
//! evaluation. This library holds the shared plumbing: the engine factory
//! ([`AnyEngine::build`]) and workload factory ([`make_workload`]), the
//! run matrix, and plain-text table/series printers.

#![warn(missing_docs)]

pub mod json;
pub mod matrix;
pub mod report;
pub mod targets;
pub mod trace;

pub use matrix::{AnyEngine, CellDriver, CellOut, CellSpec, MatrixRunner};
pub use report::{
    cell_json, diff_reports, hist_json, latency_json, latency_section, BenchReport, DiffReport,
    LATENCY_COLUMNS, SCHEMA_VERSION,
};
pub use ssp_simulator::obs::{LatencyStats, ObsConfig};

pub use ssp_core::SspConfig;
pub use ssp_workloads::runner::{ExecMode, ParallelRun, RunConfig, RunResult, Workload};

use ssp_workloads::{
    BTreeWorkload, HashWorkload, KeyDist, MemcachedWorkload, RbTreeWorkload, Sps, VacationWorkload,
};

/// The engines under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Hardware undo logging.
    Undo,
    /// Hardware redo logging (DHTM-like).
    Redo,
    /// Shadow Sub-Paging.
    Ssp,
    /// Conventional page-granularity shadow paging (ablation).
    Shadow,
}

impl EngineKind {
    /// The three designs compared throughout Section 5.
    pub const PAPER: [EngineKind; 3] = [EngineKind::Undo, EngineKind::Redo, EngineKind::Ssp];

    /// Display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Undo => "UNDO-LOG",
            EngineKind::Redo => "REDO-LOG",
            EngineKind::Ssp => "SSP",
            EngineKind::Shadow => "SHADOW",
        }
    }
}

/// The nine evaluated workloads (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// B+-tree, uniform keys.
    BTreeRand,
    /// Red-black tree, uniform keys.
    RbTreeRand,
    /// Hashtable, uniform keys.
    HashRand,
    /// Array swaps.
    Sps,
    /// B+-tree, zipfian keys.
    BTreeZipf,
    /// Red-black tree, zipfian keys.
    RbTreeZipf,
    /// Hashtable, zipfian keys.
    HashZipf,
    /// Memcached-like KV cache, memslap mix.
    Memcached,
    /// Vacation-like OLTP emulation.
    Vacation,
}

impl WorkloadKind {
    /// The seven microbenchmarks of Figures 5–7.
    pub const MICRO: [WorkloadKind; 7] = [
        WorkloadKind::BTreeRand,
        WorkloadKind::RbTreeRand,
        WorkloadKind::HashRand,
        WorkloadKind::Sps,
        WorkloadKind::BTreeZipf,
        WorkloadKind::RbTreeZipf,
        WorkloadKind::HashZipf,
    ];

    /// The two real workloads of Tables 4 and 5.
    pub const REAL: [WorkloadKind; 2] = [WorkloadKind::Memcached, WorkloadKind::Vacation];

    /// All nine workloads.
    pub const ALL: [WorkloadKind; 9] = [
        WorkloadKind::BTreeRand,
        WorkloadKind::RbTreeRand,
        WorkloadKind::HashRand,
        WorkloadKind::Sps,
        WorkloadKind::BTreeZipf,
        WorkloadKind::RbTreeZipf,
        WorkloadKind::HashZipf,
        WorkloadKind::Memcached,
        WorkloadKind::Vacation,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::BTreeRand => "BTree-Rand",
            WorkloadKind::RbTreeRand => "RBTree-Rand",
            WorkloadKind::HashRand => "Hash-Rand",
            WorkloadKind::Sps => "SPS",
            WorkloadKind::BTreeZipf => "BTree-Zipf",
            WorkloadKind::RbTreeZipf => "RBTree-Zipf",
            WorkloadKind::HashZipf => "Hash-Zipf",
            WorkloadKind::Memcached => "Memcached",
            WorkloadKind::Vacation => "Vacation",
        }
    }
}

/// Benchmark scale: key-space sizes chosen so the working set far exceeds
/// the 64-entry DTLB (consolidation pressure) while keeping simulation
/// time reasonable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Key-space size for the tree/hash microbenchmarks.
    pub keys: u64,
    /// Pre-loaded pairs.
    pub initial: u64,
    /// SPS array elements.
    pub sps_elems: u64,
    /// KV-cache capacity.
    pub kv_capacity: u64,
    /// Vacation rows per table.
    pub vacation_rows: u64,
}

impl Scale {
    /// The default evaluation scale.
    pub const DEFAULT: Scale = Scale {
        keys: 16_384,
        initial: 8_192,
        sps_elems: 65_536,
        kv_capacity: 4_096,
        vacation_rows: 2_048,
    };

    /// A small scale for smoke tests.
    pub const SMOKE: Scale = Scale {
        keys: 512,
        initial: 256,
        sps_elems: 1_024,
        kv_capacity: 128,
        vacation_rows: 128,
    };

    /// The per-worker share of this scale for a `threads`-way sharded run:
    /// each worker operates its own partition of the total working set, so
    /// the summed footprint stays constant as the thread count grows (the
    /// paper's fixed-size multi-threaded setup).
    pub fn per_shard(self, threads: usize) -> Scale {
        let d = |x: u64| (x / threads as u64).max(16);
        Scale {
            keys: d(self.keys),
            initial: d(self.initial),
            sps_elems: d(self.sps_elems),
            kv_capacity: d(self.kv_capacity),
            vacation_rows: d(self.vacation_rows),
        }
    }
}

/// Builds a workload at the given scale.
pub fn make_workload(kind: WorkloadKind, scale: Scale) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::BTreeRand => Box::new(BTreeWorkload::new(
            KeyDist::uniform(scale.keys),
            scale.initial,
        )),
        WorkloadKind::RbTreeRand => Box::new(RbTreeWorkload::new(
            KeyDist::uniform(scale.keys),
            scale.initial,
        )),
        WorkloadKind::HashRand => Box::new(HashWorkload::new(
            KeyDist::uniform(scale.keys),
            scale.initial,
        )),
        WorkloadKind::Sps => Box::new(Sps::new(scale.sps_elems, KeyDist::uniform(scale.sps_elems))),
        WorkloadKind::BTreeZipf => Box::new(BTreeWorkload::new(
            KeyDist::paper_zipf(scale.keys),
            scale.initial,
        )),
        WorkloadKind::RbTreeZipf => Box::new(RbTreeWorkload::new(
            KeyDist::paper_zipf(scale.keys),
            scale.initial,
        )),
        WorkloadKind::HashZipf => Box::new(HashWorkload::new(
            KeyDist::paper_zipf(scale.keys),
            scale.initial,
        )),
        WorkloadKind::Memcached => Box::new(MemcachedWorkload::new(
            KeyDist::paper_zipf(scale.keys),
            scale.kv_capacity,
        )),
        WorkloadKind::Vacation => Box::new(VacationWorkload::new(scale.vacation_rows, 4)),
    }
}

/// Default transaction counts for the measured phase.
pub fn default_run_cfg(threads: usize) -> RunConfig {
    RunConfig {
        txns: 4_000,
        warmup: 500,
        threads,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    }
}

/// Quick-mode counts (set `SSP_BENCH_QUICK=1`).
pub fn quick_run_cfg(threads: usize) -> RunConfig {
    RunConfig {
        txns: 400,
        warmup: 50,
        threads,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    }
}

/// Selects run parameters and scale from the environment: quick mode
/// shrinks everything for CI smoke runs.
pub fn env_setup(threads: usize) -> (RunConfig, Scale) {
    if targets::quick_mode() {
        (quick_run_cfg(threads), Scale::SMOKE)
    } else {
        (default_run_cfg(threads), Scale::DEFAULT)
    }
}

/// Prints a table: rows = workloads, columns = engines, formatted values.
pub fn print_matrix(title: &str, columns: &[&str], rows: &[(String, Vec<String>)]) {
    println!("\n== {title} ==");
    print!("{:<14}", "");
    for c in columns {
        print!("{c:>14}");
    }
    println!();
    for (name, cells) in rows {
        print!("{name:<14}");
        for cell in cells {
            print!("{cell:>14}");
        }
        println!();
    }
}

/// Formats a ratio to two decimals.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Prints the per-cell transaction-latency percentile table and attaches
/// the same summaries to `report` under `host.latency` (warn-only in
/// `bench_diff` — see [`latency_json`]).
pub fn attach_latency(report: &mut BenchReport, title: &str, rows: &[(String, LatencyStats)]) {
    if rows.is_empty() {
        return;
    }
    let (obj, table) = latency_section(rows);
    report.host("latency", obj);
    print_matrix(title, &LATENCY_COLUMNS, &table);
}

/// Labelled latency rows for a spec/result grid, one per cell. The index
/// prefix keeps labels unique when a sweep repeats (engine, workload,
/// threads) tuples with different machine or engine configs.
pub fn latency_rows<'a>(
    specs: &[CellSpec],
    results: impl IntoIterator<Item = &'a RunResult>,
) -> Vec<(String, LatencyStats)> {
    specs
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (s, r))| {
            (
                format!(
                    "{i:02}:{}/{}/x{}",
                    s.engine.name(),
                    s.workload.name(),
                    s.run_cfg.threads
                ),
                r.latency.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_simulator::config::MachineConfig;

    /// One cell, simulated on the calling thread.
    fn run_one(ekind: EngineKind, wkind: WorkloadKind, run_cfg: &RunConfig) -> RunResult {
        let cfg = MachineConfig::default().with_cores(1);
        let spec = CellSpec::new(
            ekind,
            wkind,
            &cfg,
            &SspConfig::default(),
            Scale::SMOKE,
            run_cfg,
        );
        MatrixRunner::with_pool(1)
            .without_cache()
            .run(&[spec])
            .remove(0)
    }

    #[test]
    fn factories_produce_every_cell() {
        let run_cfg = RunConfig {
            txns: 20,
            warmup: 5,
            threads: 1,
            seed: 1,
            mode: ExecMode::Threaded,
        };
        for ekind in EngineKind::PAPER {
            let r = run_one(ekind, WorkloadKind::Sps, &run_cfg);
            assert_eq!(r.txn_stats.committed, 20, "{}", ekind.name());
            assert!(r.tps > 0.0);
        }
    }

    #[test]
    fn all_workloads_run_under_ssp() {
        let run_cfg = RunConfig {
            txns: 10,
            warmup: 2,
            threads: 1,
            seed: 2,
            mode: ExecMode::Threaded,
        };
        for wkind in WorkloadKind::ALL {
            let r = run_one(EngineKind::Ssp, wkind, &run_cfg);
            assert_eq!(r.txn_stats.committed, 10, "{}", wkind.name());
        }
    }

    #[test]
    fn engine_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            EngineKind::PAPER.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
