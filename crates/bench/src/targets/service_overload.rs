//! Service-mode benchmark: the always-on front end under overload,
//! group commit, and recovery-under-fire.
//!
//! Three cell families over [`run_service`], each with its clause of the
//! sweep [`gate`] (checked before the target returns):
//!
//! 1. **Overload sweep** (SSP): arrival period × admission policy at
//!    group size 1. Dialing the arrival rate up must push the shed rate
//!    up *monotonically* for every policy, and the hottest cell must
//!    actually shed.
//! 2. **Group-commit sweep**: engine × group size {1, 4, 16} at a
//!    moderate rate. Batching requests into one engine transaction must
//!    issue fewer group commits and cut journal flushes vs group size 1
//!    (for every engine that journals at all) — the measured
//!    group-commit amortization.
//! 3. **Recovery-under-fire**: engine × a periodic storm schedule with
//!    group commit on. Every cell must report storms > 0, a non-zero
//!    unavailability window and zero committed-request loss.
//!
//! Every cell runs once, threaded, and asserts exact shed/served/expired
//! conservation, a drained queue and zero loss; threaded == sequential
//! == repeats is pinned for all four engines by `tests/service_mode.rs`.
//! Everything under `sim` is integer, deterministic simulated state,
//! exact-gated by `bench_diff`.

use std::collections::BTreeMap;
use std::time::Instant;

use ssp_simulator::config::MachineConfig;
use ssp_workloads::service::{run_service, AdmissionPolicy, ServiceConfig, ServiceRun};
use ssp_workloads::storm::StormSchedule;
use ssp_workloads::{ExecMode, RunConfig};

use super::{quick_mode, row_is, row_u64};
use crate::json::Json;
use crate::{
    make_workload, print_matrix, AnyEngine, BenchReport, EngineKind, MatrixRunner, Scale,
    SspConfig, WorkloadKind,
};

const ENGINES: [EngineKind; 4] = [
    EngineKind::Undo,
    EngineKind::Redo,
    EngineKind::Ssp,
    EngineKind::Shadow,
];

/// Clients (= shards) in every cell.
const CLIENTS: usize = 2;

/// Arrival periods of the overload sweep, hot to cold (cycles between
/// arrivals per shard; smaller = hotter).
const OVERLOAD_PERIODS: [u64; 3] = [150, 600, 6_000];

/// Group sizes of the group-commit sweep.
const GROUP_SIZES: [usize; 3] = [1, 4, 16];

fn run_cfg(quick: bool) -> RunConfig {
    RunConfig {
        txns: if quick { 240 } else { 2_000 },
        warmup: if quick { 40 } else { 200 },
        threads: CLIENTS,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    }
}

fn policy_name(p: AdmissionPolicy) -> &'static str {
    match p {
        AdmissionPolicy::DropTail => "drop_tail",
        AdmissionPolicy::DeadlineShed => "deadline_shed",
        AdmissionPolicy::Backpressure { .. } => "backpressure",
    }
}

/// One service cell, with the per-cell safety asserts.
fn service_cell(
    engine: EngineKind,
    svc: &ServiceConfig,
    quick: bool,
    label: &str,
) -> ServiceRun<AnyEngine> {
    let shard = MachineConfig::default().shard_slice(CLIENTS);
    let ssp_cfg = SspConfig::default();
    let scale = Scale::SMOKE.per_shard(CLIENTS);
    let run = run_service(
        |_w| AnyEngine::build(engine, &shard, &ssp_cfg),
        |_w| make_workload(WorkloadKind::Sps, scale),
        &run_cfg(quick),
        svc,
    );
    let s = run.service;
    assert!(s.conserves(), "{label}: accounting must conserve: {s:?}");
    assert_eq!(s.in_queue, 0, "{label}: the run must drain: {s:?}");
    assert_eq!(s.lost, 0, "{label}: committed requests lost: {s:?}");
    run
}

/// Order-dependent fold of the shard fingerprints.
fn combined_fingerprint(run: &ServiceRun<AnyEngine>) -> u64 {
    run.shards
        .iter()
        .map(|s| s.fingerprint)
        .fold(0u64, |acc, f| acc.rotate_left(17) ^ f)
}

fn cell_json(
    family: &str,
    engine: EngineKind,
    svc: &ServiceConfig,
    run: &ServiceRun<AnyEngine>,
) -> Json {
    let s = &run.service;
    let mut sim = Json::obj();
    sim.set("family", Json::Str(family.to_string()));
    sim.set("engine", Json::Str(engine.name().to_string()));
    sim.set("period_cycles", Json::U64(svc.period_cycles));
    sim.set("policy", Json::Str(policy_name(svc.admission).to_string()));
    sim.set("group", Json::U64(svc.group as u64));
    sim.set("arrivals", Json::U64(s.arrivals));
    sim.set("admitted", Json::U64(s.admitted));
    sim.set("served", Json::U64(s.served));
    sim.set("shed", Json::U64(s.shed));
    sim.set("shed_admission", Json::U64(s.shed_admission));
    sim.set("shed_retry", Json::U64(s.shed_retry));
    sim.set("expired", Json::U64(s.expired));
    sim.set("retried", Json::U64(s.retried));
    sim.set("groups", Json::U64(s.groups));
    sim.set("storms", Json::U64(s.storms));
    sim.set("torn_dropped", Json::U64(s.torn_dropped));
    sim.set("torn_kept", Json::U64(s.torn_kept));
    sim.set("lost", Json::U64(s.lost));
    sim.set("unavailability_cycles", Json::U64(s.unavailability_cycles));
    sim.set("queue_peak", Json::U64(s.queue_peak));
    sim.set("shed_rate_bp", Json::U64(s.shed_rate_bp()));
    sim.set("journal_writes", Json::U64(run.result.logging_writes()));
    sim.set(
        "nvram_writes",
        Json::U64(run.result.stats.nvram_writes_total()),
    );
    sim.set("elapsed_cycles", Json::U64(run.result.elapsed_cycles));
    sim.set(
        "cycles_per_served",
        Json::U64(run.result.elapsed_cycles / s.served.max(1)),
    );
    sim.set(
        "p99_sojourn",
        Json::U64(run.result.latency.txn.percentile(99)),
    );
    sim.set("fingerprint", Json::U64(combined_fingerprint(run)));
    sim
}

/// Rows grouped by a string field, each group as `(key, row)` pairs.
type Groups<'a> = BTreeMap<&'a str, Vec<(u64, &'a Json)>>;

/// The rows of family `name`, grouped by string field `group_by` (policy
/// or engine), each group in ascending order of integer field `key`.
fn family<'a>(
    rows: &'a [Json],
    name: &str,
    group_by: &str,
    key: &str,
) -> Result<Groups<'a>, String> {
    let mut groups = Groups::new();
    for row in rows.iter().filter(|r| row_is(r, "family", name)) {
        let group = row
            .get(group_by)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{name} row without `{group_by}`"))?;
        groups
            .entry(group)
            .or_default()
            .push((row_u64(row, key)?, row));
    }
    for cells in groups.values_mut() {
        cells.sort_unstable_by_key(|c| c.0);
    }
    Ok(groups)
}

/// The service-sweep gate over the emitted `sim.rows` (see the module
/// docs for the three families' clauses).
pub fn gate(rows: &[Json]) -> Result<(), String> {
    // Descending period = cold to hot, so monotonicity reads as "shed
    // rate never drops as the rate dials up".
    for (policy, cells) in family(rows, "overload", "policy", "period_cycles")? {
        let mut rates = Vec::new();
        for (_, row) in cells.iter().rev() {
            rates.push(row_u64(row, "shed_rate_bp")?);
        }
        if rates.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "{policy}: shed rate not monotone in arrival rate, cold to hot: {rates:?} bp"
            ));
        }
        if rates.last() == Some(&0) {
            return Err(format!("{policy}: the hottest cell never shed"));
        }
    }
    for (engine, cells) in family(rows, "group", "engine", "group")? {
        let Some(((1, base), batched)) = cells.split_first() else {
            return Err(format!("{engine}: no group-1 cell to compare against"));
        };
        let base_groups = row_u64(base, "groups")?;
        let base_journal = row_u64(base, "journal_writes")?;
        for (g, row) in batched {
            let groups = row_u64(row, "groups")?;
            if groups >= base_groups {
                return Err(format!(
                    "{engine} g{g}: {groups} group commits, not fewer than g1's {base_groups}"
                ));
            }
            let journal = row_u64(row, "journal_writes")?;
            if base_journal > 0 && journal >= base_journal {
                return Err(format!(
                    "{engine} g{g}: {journal} journal writes, not fewer than g1's {base_journal}"
                ));
            }
        }
    }
    for row in rows.iter().filter(|r| row_is(r, "family", "recovery")) {
        let engine = row.get("engine").and_then(Json::as_str).unwrap_or("?");
        if row_u64(row, "storms")? == 0 {
            return Err(format!("recovery cell {engine}: no storm tripped"));
        }
        if row_u64(row, "unavailability_cycles")? == 0 {
            return Err(format!(
                "recovery cell {engine}: zero unavailability window"
            ));
        }
        let lost = row_u64(row, "lost")?;
        if lost != 0 {
            return Err(format!("recovery cell {engine}: lost {lost} requests"));
        }
    }
    Ok(())
}

/// Runs the target and returns its report.
pub fn run(_runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let quick = quick_mode();

    let mut rows = Vec::new();
    let mut sim_rows = Vec::new();

    // Family 1: overload sweep (SSP), arrival period × admission policy,
    // cold to hot.
    let policies = [
        AdmissionPolicy::DropTail,
        AdmissionPolicy::DeadlineShed,
        AdmissionPolicy::Backpressure { threshold: 16 },
    ];
    for policy in policies {
        for &period in OVERLOAD_PERIODS.iter().rev() {
            let svc = ServiceConfig {
                period_cycles: period,
                admission: policy,
                group: 1,
                queue_capacity: 32,
                deadline_cycles: 20_000,
                ..ServiceConfig::default()
            };
            let label = format!("overload {} p{period}", policy_name(policy));
            let run = service_cell(EngineKind::Ssp, &svc, quick, &label);
            let s = run.service;
            rows.push((
                format!("{} p{period}", policy_name(policy)),
                vec![
                    format!("{}", s.arrivals),
                    format!("{}", s.served),
                    format!("{}", s.shed),
                    format!("{}", s.expired),
                    format!("{:.1}%", s.shed_rate_bp() as f64 / 100.0),
                    format!("{}", s.queue_peak),
                ],
            ));
            sim_rows.push(cell_json("overload", EngineKind::Ssp, &svc, &run));
        }
    }

    // Family 2: group-commit sweep, engine × group size.
    for engine in ENGINES {
        for group in GROUP_SIZES {
            let svc = ServiceConfig {
                period_cycles: 600,
                group,
                ..ServiceConfig::default()
            };
            let label = format!("group {} g{group}", engine.name());
            let run = service_cell(engine, &svc, quick, &label);
            let s = run.service;
            rows.push((
                format!("{} g{group}", engine.name()),
                vec![
                    format!("{}", s.arrivals),
                    format!("{}", s.served),
                    format!("{}", s.groups),
                    format!("{}", run.result.logging_writes()),
                    format!("{}", run.result.stats.nvram_writes_total()),
                    format!("{}", run.result.elapsed_cycles / s.served.max(1)),
                ],
            ));
            sim_rows.push(cell_json("group", engine, &svc, &run));
        }
    }

    // Family 3: recovery-under-fire, engine × periodic storms with group
    // commit on.
    for engine in ENGINES {
        let svc = ServiceConfig {
            period_cycles: 600,
            group: 4,
            storm: Some(StormSchedule::every_cycles(40_000)),
            ..ServiceConfig::default()
        };
        let label = format!("recovery {}", engine.name());
        let run = service_cell(engine, &svc, quick, &label);
        let s = run.service;
        rows.push((
            format!("{} storm", engine.name()),
            vec![
                format!("{}", s.storms),
                format!("{}", s.served),
                format!("{}", s.shed + s.expired),
                format!("{}", s.retried),
                format!("{}", s.lost),
                format!("{}", s.unavailability_cycles),
            ],
        ));
        sim_rows.push(cell_json("recovery", engine, &svc, &run));
    }
    gate(&sim_rows).unwrap_or_else(|e| panic!("service_overload gate: {e}"));

    print_matrix(
        "Service overload (SPS): family cells",
        &[
            "arr/storm",
            "served",
            "shed/+exp",
            "grp/retr",
            "jrnl/lost",
            "tail",
        ],
        &rows,
    );
    println!("\ngated: shed rate is monotone in arrival rate and the hottest cell");
    println!("sheds, group commit cuts group commits and journal flushes, and storms");
    println!("trip, cost availability and lose nothing");

    let mut report = BenchReport::new("service_overload", quick);
    report.sim("rows", Json::Arr(sim_rows));
    report.host_wall(t0.elapsed());
    report
}

#[cfg(test)]
mod tests {
    use super::super::gate_fixtures::{baseline_rows, broken, put};
    use super::*;

    #[test]
    fn gate_passes_the_baseline_and_fails_each_broken_sweep() {
        let baseline = baseline_rows(
            include_str!("../../benches/baselines/BENCH_service_overload.json"),
            "rows",
        );
        assert_eq!(gate(&baseline), Ok(()));
        let break_row = |pick: &dyn Fn(&Json) -> bool, field: (&str, u64)| {
            broken(gate, baseline.clone(), pick, field)
        };

        // One inversion: the coldest cell sheds more than everything hotter.
        let coldest =
            |r: &Json| row_is(r, "family", "overload") && row_u64(r, "period_cycles") == Ok(6_000);
        let err = break_row(&coldest, ("shed_rate_bp", 10_000));
        assert!(err.contains("not monotone"), "{err}");
        let mut rows = baseline.clone();
        for row in rows.iter_mut().filter(|r| row_is(r, "policy", "drop_tail")) {
            put(row, "shed_rate_bp", 0);
        }
        let err = gate(&rows).unwrap_err();
        assert!(err.contains("hottest cell never shed"), "{err}");

        let group4 = |r: &Json| row_is(r, "family", "group") && row_u64(r, "group") == Ok(4);
        let err = break_row(&group4, ("groups", u64::MAX));
        assert!(err.contains("group commits, not fewer"), "{err}");
        let err = break_row(&group4, ("journal_writes", u64::MAX));
        assert!(err.contains("journal writes, not fewer"), "{err}");

        let recovery = |r: &Json| row_is(r, "family", "recovery");
        let err = break_row(&recovery, ("storms", 0));
        assert!(err.contains("no storm tripped"), "{err}");
        let err = break_row(&recovery, ("unavailability_cycles", 0));
        assert!(err.contains("zero unavailability window"), "{err}");
        let err = break_row(&recovery, ("lost", 1));
        assert!(err.contains("lost 1 requests"), "{err}");
    }
}
