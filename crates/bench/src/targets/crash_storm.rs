//! Crash-storm benchmark: recovery and data-loss curves per engine under
//! scheduled power cuts at full workload traffic.
//!
//! Sweeps crash density (storm period in simulated cycles) × engine ×
//! thread count, cutting power mid-run on every shard and recovering
//! against the oracle after each cut. **Zero data loss** — `lost_txns ==
//! 0` for all four engines: no committed transaction may disappear
//! across any storm — is asserted *in the target* on every cell, so CI
//! fails loudly rather than baking a bad number into a baseline.
//!
//! Everything reported under `sim` (storm counts, torn-transaction
//! resolution, recovery NVRAM traffic and cycle estimates, NVRAM
//! fingerprints) is deterministic simulated state and exact-gated by
//! `bench_diff` against the committed baseline, which is what pins repeat
//! determinism here; threaded == sequential == repeats is pinned for all
//! four engines by `tests/crash_storm.rs`.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;
use ssp_simulator::obs::{ObsConfig, ObsKind};
use ssp_workloads::storm::{run_storm, StormSchedule};

use super::quick_mode;
use crate::json::Json;
use crate::{
    env_setup, make_workload, print_matrix, AnyEngine, BenchReport, EngineKind, MatrixRunner,
    SspConfig, WorkloadKind,
};

const ENGINES: [EngineKind; 4] = [
    EngineKind::Undo,
    EngineKind::Redo,
    EngineKind::Ssp,
    EngineKind::Shadow,
];

/// Runs the target and returns its report.
pub fn run(_runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let quick = quick_mode();
    // Storm period in simulated cycles: smaller = denser crash schedule.
    let periods: &[u64] = if quick {
        &[3_000, 12_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 4] };

    let mut sim_rows = Vec::new();
    let mut rows = Vec::new();
    for &threads in thread_counts {
        let (mut run_cfg, scale) = env_setup(threads);
        // The storm driver oracle-checks from the first transaction;
        // there is no separate warmup phase to exclude.
        run_cfg.txns += run_cfg.warmup;
        run_cfg.warmup = 0;
        let shard_scale = scale.per_shard(threads);
        for &period in periods {
            let schedule = StormSchedule {
                points: vec![ssp_workloads::StormPoint::AfterCycles(period)],
                crash_during_recovery: true,
                rearm: true,
            };
            for engine in ENGINES {
                let cfg = MachineConfig::default();
                let ssp_cfg = SspConfig::default();
                let shard_cfgs: Vec<MachineConfig> = (0..threads)
                    .map(|w| cfg.shard_slice_for(threads, w))
                    .collect();
                let storm = run_storm(
                    |w| AnyEngine::build(engine, &shard_cfgs[w], &ssp_cfg),
                    |_w| make_workload(WorkloadKind::Sps, shard_scale),
                    &run_cfg,
                    &schedule,
                );
                let t = storm.totals();
                assert_eq!(
                    t.lost_txns,
                    0,
                    "{} p{period} x{threads} lost committed transactions: {t:?}",
                    engine.name()
                );

                rows.push((
                    format!("{} p{} x{}", engine.name(), period / 1000, threads),
                    vec![
                        format!("{}", t.storms),
                        format!("{}", t.torn_txns),
                        format!("{}", t.kept_torn_txns),
                        format!("{}", t.torn_recoveries),
                        format!("{}", t.lost_txns),
                        format!("{}", t.recovery_cycles_est),
                    ],
                ));
                let mut sim = Json::obj();
                sim.set("engine", Json::Str(engine.name().to_string()));
                sim.set("storm_period_cycles", Json::U64(period));
                sim.set("threads", Json::U64(threads as u64));
                sim.set("txns", Json::U64(t.txns));
                sim.set("storms", Json::U64(t.storms));
                sim.set("torn_txns", Json::U64(t.torn_txns));
                sim.set("kept_torn_txns", Json::U64(t.kept_torn_txns));
                sim.set("torn_recoveries", Json::U64(t.torn_recoveries));
                sim.set("lost_txns", Json::U64(t.lost_txns));
                sim.set("recovery_nvram_reads", Json::U64(t.recovery_nvram_reads));
                sim.set("recovery_nvram_writes", Json::U64(t.recovery_nvram_writes));
                sim.set("recovery_cycles_est", Json::U64(t.recovery_cycles_est));
                sim.set("elapsed_cycles", Json::U64(t.elapsed_cycles));
                sim.set("fingerprint", Json::U64(storm.combined_fingerprint()));
                sim_rows.push(sim);
            }
        }
    }
    print_matrix(
        "Crash storms (SPS): period(kcyc) x threads",
        &[
            "storms",
            "torn",
            "kept torn",
            "torn rec",
            "lost",
            "rec cycles",
        ],
        &rows,
    );
    println!("\nno engine may lose a committed transaction (lost == 0 is asserted,");
    println!("not just reported)");

    let mut report = BenchReport::new("crash_storm", quick);
    report.sim("rows", Json::Arr(sim_rows));
    report.host("flight_recorder", flight_recorder_cell());
    report.host_wall(t0.elapsed());
    report
}

/// One obs-enabled storm cell exercising the crash flight recorder: a
/// known schedule must leave a non-empty per-shard ring tail (asserted
/// here, so CI fails loudly if the recorder ever drains empty). The
/// drained tails are deterministic virtual-time state, but they are
/// surfaced under `host` — the observability layer stays out of the
/// exact-gated `sim` baselines.
fn flight_recorder_cell() -> Json {
    const THREADS: usize = 2;
    let (mut run_cfg, scale) = env_setup(THREADS);
    run_cfg.txns += run_cfg.warmup;
    run_cfg.warmup = 0;
    let shard_scale = scale.per_shard(THREADS);
    let schedule = StormSchedule {
        points: vec![ssp_workloads::StormPoint::AfterCycles(3_000)],
        crash_during_recovery: false,
        rearm: true,
    };
    let ssp_cfg = SspConfig::default();
    let cfg = MachineConfig::default();
    let shard_cfgs: Vec<MachineConfig> = (0..THREADS)
        .map(|w| {
            let mut c = cfg.shard_slice_for(THREADS, w);
            c.obs = ObsConfig::tracing();
            c.obs.worker = w as u32;
            c
        })
        .collect();
    let storm = run_storm(
        |w| AnyEngine::build(EngineKind::Ssp, &shard_cfgs[w], &ssp_cfg),
        |_w| make_workload(WorkloadKind::Sps, shard_scale),
        &run_cfg,
        &schedule,
    );

    let mut shards = Vec::new();
    for s in &storm.shards {
        assert!(
            !s.flight_tail.is_empty(),
            "flight recorder drained an empty tail on shard {} — \
             the storm tripped {} time(s) with tracing on",
            s.worker,
            s.storms
        );
        let faults = s
            .flight_tail
            .iter()
            .filter(|e| e.kind == ObsKind::Fault)
            .count();
        println!(
            "flight recorder: shard {} tail holds {} event(s) ({} fault marker(s)), \
             last at cycle {}",
            s.worker,
            s.flight_tail.len(),
            faults,
            s.flight_tail.last().map(|e| e.at).unwrap_or(0)
        );
        let mut obj = Json::obj();
        obj.set("worker", Json::U64(s.worker as u64));
        obj.set("storms", Json::U64(s.storms));
        obj.set("tail_events", Json::U64(s.flight_tail.len() as u64));
        obj.set("tail_fault_markers", Json::U64(faults as u64));
        obj.set(
            "tail_last_cycle",
            Json::U64(s.flight_tail.last().map(|e| e.at).unwrap_or(0)),
        );
        shards.push(obj);
    }
    let mut out = Json::obj();
    out.set("schedule_period_cycles", Json::U64(3_000));
    out.set("shards", Json::Arr(shards));
    out
}
