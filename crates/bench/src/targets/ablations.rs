//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **Consolidation on/off** — the space-for-writes trade-off of
//!   Section 3.4: disabling it removes consolidation writes but leaves
//!   every touched page holding two frames forever.
//! * **Write-set buffer size** — how small the hardware budget can get
//!   before the software fall-back path engages (Section 3.5).
//! * **Conventional shadow paging** — the page-granularity CoW the paper
//!   dismisses analytically ("up to 64x more cache lines").
//! * **Checkpoint threshold** — journal space vs checkpoint write traffic.
//! * **Sub-page granularity** (Section 4.3) — 64 B tracking (64-bit
//!   bitmaps) vs Optane's 256 B persist granularity (16-bit bitmaps):
//!   smaller TLB cost, more write amplification.
//!
//! All five sections submit one combined [`MatrixRunner::run_full`] batch
//! (the probes need engines back, so the result memo cannot serve them):
//! the three repeats across sections (SSP-at-defaults on SPS once, on
//! Hash-Rand twice) are simulated again.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;
use ssp_simulator::stats::WriteClass;

use super::quick_mode;
use crate::json::Json;
use crate::{
    attach_latency, cell_json, env_setup, fmt_ratio, latency_rows, print_matrix, BenchReport,
    CellOut, CellSpec, EngineKind, MatrixRunner, SspConfig, WorkloadKind,
};

const CONSOLIDATION_WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::BTreeRand,
    WorkloadKind::Sps,
    WorkloadKind::HashZipf,
];
const WRITE_SET_CAPACITIES: [usize; 5] = [64, 8, 4, 3, 2];
const SHADOW_WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Sps, WorkloadKind::HashRand];
const CHECKPOINT_THRESHOLDS: [u64; 3] = [16 * 1024, 64 * 1024, 256 * 1024];
const SUBPAGE_SETTINGS: [(usize, &str); 3] = [(1, "64 B"), (4, "256 B"), (8, "512 B")];

/// Builds the combined grid; section boundaries are by construction:
/// consolidation (6), write-set (5), shadow paging (4), checkpoint (3),
/// sub-page (3).
fn specs() -> Vec<CellSpec> {
    let cfg = MachineConfig::default().with_cores(1);
    let (run_cfg, scale) = env_setup(1);
    let mut specs = Vec::new();

    for wkind in CONSOLIDATION_WORKLOADS {
        for enabled in [true, false] {
            let ssp_cfg = SspConfig {
                consolidation_enabled: enabled,
                ..SspConfig::default()
            };
            specs.push(CellSpec::new(
                EngineKind::Ssp,
                wkind,
                &cfg,
                &ssp_cfg,
                scale,
                &run_cfg,
            ));
        }
    }
    for capacity in WRITE_SET_CAPACITIES {
        let ssp_cfg = SspConfig {
            write_set_capacity: capacity,
            ..SspConfig::default()
        };
        specs.push(CellSpec::new(
            EngineKind::Ssp,
            WorkloadKind::RbTreeRand,
            &cfg,
            &ssp_cfg,
            scale,
            &run_cfg,
        ));
    }
    let default_ssp = SspConfig::default();
    for wkind in SHADOW_WORKLOADS {
        for ekind in [EngineKind::Ssp, EngineKind::Shadow] {
            specs.push(CellSpec::new(
                ekind,
                wkind,
                &cfg,
                &default_ssp,
                scale,
                &run_cfg,
            ));
        }
    }
    for threshold in CHECKPOINT_THRESHOLDS {
        let ssp_cfg = SspConfig {
            checkpoint_threshold_bytes: threshold,
            ..SspConfig::default()
        };
        specs.push(CellSpec::new(
            EngineKind::Ssp,
            WorkloadKind::HashRand,
            &cfg,
            &ssp_cfg,
            scale,
            &run_cfg,
        ));
    }
    for (lps, _) in SUBPAGE_SETTINGS {
        let ssp_cfg = SspConfig {
            lines_per_subpage: lps,
            ..SspConfig::default()
        };
        specs.push(CellSpec::new(
            EngineKind::Ssp,
            WorkloadKind::HashRand,
            &cfg,
            &ssp_cfg,
            scale,
            &run_cfg,
        ));
    }
    specs
}

fn consolidation_section(outs: &[CellOut]) -> Json {
    let mut section = Vec::new();
    let mut rows = Vec::new();
    let mut it = outs.iter();
    for wkind in CONSOLIDATION_WORKLOADS {
        let mut cells = Vec::new();
        for enabled in [true, false] {
            let out = it.next().expect("one output per spec");
            let double_pages = out.engines[0]
                .as_ssp()
                .expect("SSP cell")
                .pages_holding_two_frames();
            cells.push(format!(
                "{}w/{}dbl",
                out.result.nvram_writes(),
                double_pages
            ));
            let mut cell = cell_json(1, &out.result);
            cell.set("consolidation_enabled", Json::Bool(enabled));
            cell.set("pages_holding_two_frames", Json::U64(double_pages as u64));
            section.push(cell);
        }
        rows.push((wkind.name().to_string(), cells));
    }
    print_matrix(
        "Ablation: eager consolidation vs none (NVRAM writes / pages holding 2 frames)",
        &["eager", "disabled"],
        &rows,
    );
    Json::Arr(section)
}

fn write_set_section(outs: &[CellOut]) -> Json {
    let mut section = Vec::new();
    let mut rows = Vec::new();
    for (&capacity, out) in WRITE_SET_CAPACITIES.iter().zip(outs) {
        let r = &out.result;
        rows.push((
            format!("{capacity} pages"),
            vec![
                format!("{}", r.txn_stats.fallbacks),
                format!("{:.0}k", r.tps / 1000.0),
            ],
        ));
        let mut cell = cell_json(1, r);
        cell.set("write_set_capacity", Json::U64(capacity as u64));
        section.push(cell);
    }
    print_matrix(
        "Ablation: write-set buffer capacity (RBTree-Rand)",
        &["fallbacks", "TPS"],
        &rows,
    );
    println!("paper: a 64-entry buffer suffices for every evaluated workload");
    Json::Arr(section)
}

fn shadow_section(outs: &[CellOut]) -> Json {
    let mut section = Vec::new();
    let mut rows = Vec::new();
    for (wi, wkind) in SHADOW_WORKLOADS.iter().enumerate() {
        let ssp = &outs[wi * 2].result;
        let shadow = &outs[wi * 2 + 1].result;
        section.push(cell_json(1, ssp));
        section.push(cell_json(1, shadow));
        rows.push((
            wkind.name().to_string(),
            vec![
                fmt_ratio(shadow.nvram_writes() as f64 / ssp.nvram_writes() as f64),
                fmt_ratio(ssp.tps / shadow.tps),
                format!("{}", shadow.writes_of(WriteClass::PageCopy)),
            ],
        ));
    }
    print_matrix(
        "Ablation: conventional shadow paging vs SSP",
        &["writes x", "SSP speedup", "page-copy w"],
        &rows,
    );
    println!("paper: conventional shadow paging writes up to 64x more lines");
    Json::Arr(section)
}

fn checkpoint_section(outs: &[CellOut]) -> Json {
    let mut section = Vec::new();
    let mut rows = Vec::new();
    for (&threshold, out) in CHECKPOINT_THRESHOLDS.iter().zip(outs) {
        let checkpoints = out.engines[0].as_ssp().expect("SSP cell").checkpoints();
        rows.push((
            format!("{} KiB", threshold / 1024),
            vec![
                format!("{checkpoints}"),
                format!("{}", out.result.writes_of(WriteClass::Checkpoint)),
            ],
        ));
        let mut cell = cell_json(1, &out.result);
        cell.set("checkpoint_threshold_bytes", Json::U64(threshold));
        cell.set("checkpoints", Json::U64(checkpoints));
        section.push(cell);
    }
    print_matrix(
        "Ablation: checkpoint threshold (Hash-Rand)",
        &["checkpoints", "ckpt writes"],
        &rows,
    );
    Json::Arr(section)
}

fn subpage_section(outs: &[CellOut]) -> Json {
    let mut section = Vec::new();
    let mut rows = Vec::new();
    for (&(lps, label), out) in SUBPAGE_SETTINGS.iter().zip(outs) {
        let r = &out.result;
        rows.push((
            label.to_string(),
            vec![
                format!("{} bits", 64 / lps),
                format!("{}", r.writes_of(WriteClass::Data)),
                format!("{:.0}k", r.tps / 1000.0),
            ],
        ));
        let mut cell = cell_json(1, r);
        cell.set("lines_per_subpage", Json::U64(lps as u64));
        section.push(cell);
    }
    print_matrix(
        "Ablation: sub-page granularity (Hash-Rand) — Section 4.3 trade-off",
        &["bitmap", "data writes", "TPS"],
        &rows,
    );
    println!("paper: 256 B sub-pages cut the TLB bitmap cost 4x; the price is");
    println!("flushing whole groups (write amplification for sparse updates)");
    Json::Arr(section)
}

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let specs = specs();
    let outs = runner.run_full(&specs);
    let (consolidation, rest) = outs.split_at(CONSOLIDATION_WORKLOADS.len() * 2);
    let (write_set, rest) = rest.split_at(WRITE_SET_CAPACITIES.len());
    let (shadow, rest) = rest.split_at(SHADOW_WORKLOADS.len() * 2);
    let (checkpoint, subpage) = rest.split_at(CHECKPOINT_THRESHOLDS.len());

    let mut report = BenchReport::new("ablations", quick_mode());
    report.sim("consolidation", consolidation_section(consolidation));
    report.sim("write_set_capacity", write_set_section(write_set));
    report.sim("shadow_paging", shadow_section(shadow));
    report.sim("checkpoint_threshold", checkpoint_section(checkpoint));
    report.sim("subpage_granularity", subpage_section(subpage));
    attach_latency(
        &mut report,
        "Ablations: txn latency percentiles (cycles)",
        &latency_rows(&specs, outs.iter().map(|o| &o.result)),
    );
    report.host_wall(t0.elapsed());
    report
}
