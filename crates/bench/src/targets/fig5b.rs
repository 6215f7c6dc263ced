//! Figure 5b (contention) — cost per transaction as 1 → 8 clients share
//! one memory-channel group, against the partitioned reference.
//!
//! Every client is a machine shard of constant size (an eighth of the
//! Table 2 machine: one core, 1.5 MiB of L3, 8 DRAM + 4 NVRAM banks) that
//! runs a constant per-client transaction count over its own working set;
//! only the *interconnect* differs between the two sweeps:
//!
//! * **shared** — all clients' memory traffic is merged through one
//!   channel group with the full Table 2 bank counts (64 DRAM /
//!   32 NVRAM), under fair, bounded bank arbitration plus the shared-LLC
//!   and coherence actors ([`InterconnectConfig::shared_hierarchy`]).
//!   Adding clients adds queueing: cycles per transaction must rise
//!   monotonically — and stay *bounded* (the per-shard in-flight cap
//!   keeps eight clients within 10x of one; the unfair FIFO controller
//!   this PR replaced collapsed ~16x over the 4 → 8 step alone).
//! * **partitioned** — each client owns a private group sized like its
//!   bank slice (8 DRAM / 4 NVRAM). A client's traffic never meets
//!   another's, so the curve stays flat as clients are added — this is
//!   the hardware-scales-with-clients reference the shared curve is read
//!   against.

use std::time::Instant;

use ssp_simulator::config::{InterconnectConfig, MachineConfig};
use ssp_workloads::runner::{ExecMode, RunConfig};

use super::{quick_mode, row_is, row_u64};
use crate::json::Json;
use crate::{
    attach_latency, latency_rows, print_matrix, BenchReport, CellSpec, EngineKind, MatrixRunner,
    RunResult, Scale, SspConfig, WorkloadKind,
};

const CLIENTS: [usize; 4] = [1, 2, 4, 8];

/// One sweep point's measurements.
struct Point {
    clients: usize,
    cycles_per_txn: u64,
    bankq_delay: u64,
    bankq_conflicts: u64,
    row_hit_rate: f64,
    port_stall: u64,
    llc_extra_misses: u64,
    coh_invalidations: u64,
}

fn specs_for(
    interconnect: &InterconnectConfig,
    txns_per_client: u64,
    scale: Scale,
) -> Vec<CellSpec> {
    // A constant per-client machine slice (1/8 of Table 2), so the only
    // thing that changes along the sweep is how many clients exist.
    let mut client_cfg = MachineConfig::default().shard_slice(8);
    client_cfg.interconnect = *interconnect;
    let ssp_cfg = SspConfig::default();
    CLIENTS
        .iter()
        .map(|&clients| {
            let run_cfg = RunConfig {
                txns: txns_per_client * clients as u64,
                warmup: 50 * clients as u64,
                threads: clients,
                seed: 0x55d0_2019,
                mode: ExecMode::Threaded,
            };
            CellSpec::new(
                EngineKind::Ssp,
                WorkloadKind::Sps,
                &client_cfg,
                &ssp_cfg,
                scale,
                &run_cfg,
            )
            .sharded()
            .per_worker()
        })
        .collect()
}

fn points(results: &[RunResult], txns_per_client: u64) -> Vec<Point> {
    CLIENTS
        .iter()
        .zip(results)
        .map(|(&clients, r)| {
            let rows = r.stats.bankq_row_hits + r.stats.bankq_row_misses;
            Point {
                clients,
                // Wall-clock is the slowest client; each runs
                // `txns_per_client`, so this is cycles per transaction on
                // the contended critical path.
                cycles_per_txn: r.elapsed_cycles / txns_per_client,
                bankq_delay: r.stats.bankq_delay_cycles,
                bankq_conflicts: r.stats.bankq_conflicts,
                row_hit_rate: if rows == 0 {
                    0.0
                } else {
                    r.stats.bankq_row_hits as f64 / rows as f64
                },
                port_stall: r.stats.bankq_stall_cycles,
                llc_extra_misses: r.stats.llc_extra_misses,
                coh_invalidations: r.stats.coh_cross_invalidations,
            }
        })
        .collect()
}

fn json_series(mode: &str, points: &[Point]) -> Vec<Json> {
    points
        .iter()
        .map(|p| {
            let mut obj = Json::obj();
            obj.set("mode", Json::Str(mode.to_string()));
            obj.set("clients", Json::U64(p.clients as u64));
            obj.set("cycles_per_txn", Json::U64(p.cycles_per_txn));
            obj.set("bankq_delay_cycles", Json::U64(p.bankq_delay));
            obj.set("bankq_conflicts", Json::U64(p.bankq_conflicts));
            obj.set("row_hit_rate", Json::F64(p.row_hit_rate));
            obj.set("port_stall_cycles", Json::U64(p.port_stall));
            obj.set("llc_extra_misses", Json::U64(p.llc_extra_misses));
            obj.set("coh_invalidations", Json::U64(p.coh_invalidations));
            obj
        })
        .collect()
}

/// The saturation gate over the emitted `sim.series` rows: fair, bounded
/// arbitration must keep the most-contended shared point within an order
/// of magnitude of the uncontended one (the unfair FIFO controller it
/// guards against collapsed ~16x over the 4 → 8 step alone).
pub fn gate(series: &[Json]) -> Result<(), String> {
    let mut shared = Vec::new();
    for row in series.iter().filter(|r| row_is(r, "mode", "shared")) {
        shared.push((row_u64(row, "clients")?, row_u64(row, "cycles_per_txn")?));
    }
    let (&(least, one), &(most, top)) = shared
        .iter()
        .min()
        .zip(shared.iter().max())
        .ok_or("no shared-mode rows")?;
    if top > 10 * one {
        return Err(format!(
            "saturation collapse: {most}-client shared point {top} exceeds 10x \
             the {least}-client point {one}"
        ));
    }
    Ok(())
}

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let quick = quick_mode();
    // Per-client working set: 8192 elements = 64 KiB = 32 NVRAM rows, so
    // one client's traffic spreads across the whole 32-bank shared pool
    // and contention grows smoothly with every added client (a tiny
    // array parks each client on a handful of banks and the 2-client
    // point reads as noise instead).
    let scale = Scale {
        sps_elems: 8_192,
        ..Scale::SMOKE
    };
    let txns_per_client = if quick { 150 } else { 600 };

    let mut specs = specs_for(
        &InterconnectConfig::shared_hierarchy(),
        txns_per_client,
        scale,
    );
    // The partitioned reference gets the same per-client bank budget the
    // 8-way shared slice grants (64/8 DRAM, 32/8 NVRAM), private.
    specs.extend(specs_for(
        &InterconnectConfig::partitioned(64 / 8, 32 / 8),
        txns_per_client,
        scale,
    ));
    let results = runner.run(&specs);
    let shared = points(&results[..CLIENTS.len()], txns_per_client);
    let partitioned = points(&results[CLIENTS.len()..], txns_per_client);

    let fmt_row = |points: &[Point], f: &dyn Fn(&Point) -> String| -> Vec<String> {
        points.iter().map(f).collect()
    };
    print_matrix(
        "Figure 5b (contention): SSP/SPS cycles per txn vs clients",
        &["1", "2", "4", "8"],
        &[
            (
                "shared cyc/txn".to_string(),
                fmt_row(&shared, &|p| p.cycles_per_txn.to_string()),
            ),
            (
                "shared q-delay".to_string(),
                fmt_row(&shared, &|p| p.bankq_delay.to_string()),
            ),
            (
                "shared stall".to_string(),
                fmt_row(&shared, &|p| p.port_stall.to_string()),
            ),
            (
                "shared llc+coh".to_string(),
                fmt_row(&shared, &|p| {
                    format!("{}+{}", p.llc_extra_misses, p.coh_invalidations)
                }),
            ),
            (
                "part. cyc/txn".to_string(),
                fmt_row(&partitioned, &|p| p.cycles_per_txn.to_string()),
            ),
            (
                "part. q-delay".to_string(),
                fmt_row(&partitioned, &|p| p.bankq_delay.to_string()),
            ),
        ],
    );
    println!("\npaper shape: clients contending for one channel group pay a");
    println!("monotonically growing — and, under fair bounded arbitration,");
    println!("bounded — per-txn cost (queueing at the shared banks, shared-LLC");
    println!("capacity and cross-shard coherence); per-client (partitioned)");
    println!("channel groups stay flat — the gap is the contention penalty");
    println!("Fig 5b's multi-client bars fold into throughput");

    let mut report = BenchReport::new("fig5b_contention", quick);
    report.sim("engine", Json::Str("SSP".into()));
    report.sim("workload", Json::Str("SPS".into()));
    report.sim("txns_per_client", Json::U64(txns_per_client));
    let mut series = json_series("shared", &shared);
    series.extend(json_series("partitioned", &partitioned));
    gate(&series).unwrap_or_else(|e| panic!("fig5b gate: {e}"));
    report.sim("series", Json::Arr(series));
    attach_latency(
        &mut report,
        "Figure 5b: txn latency percentiles (cycles; shared sweep first)",
        &latency_rows(&specs, &results),
    );
    report.host_wall(t0.elapsed());
    report
}

#[cfg(test)]
mod tests {
    use super::super::gate_fixtures::{baseline_rows, broken};
    use super::*;

    #[test]
    fn gate_passes_the_baseline_and_fails_on_saturation_collapse() {
        let series = baseline_rows(
            include_str!("../../benches/baselines/BENCH_fig5b_contention.json"),
            "series",
        );
        assert_eq!(gate(&series), Ok(()));

        let top = |r: &Json| row_is(r, "mode", "shared") && row_u64(r, "clients") == Ok(8);
        let cpt = row_u64(series.iter().find(|r| top(r)).unwrap(), "cycles_per_txn").unwrap();
        let err = broken(gate, series, top, ("cycles_per_txn", cpt * 20));
        assert!(err.contains("saturation collapse"), "{err}");
    }
}
