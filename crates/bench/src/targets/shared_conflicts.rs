//! Shared-heap conflict sweep: clients × conflict dial over ONE
//! versioned store, reporting throughput *and* abort-rate curves.
//!
//! This is the multi-client counterpart of the partitioned scaling
//! figures: `run_shared` puts every client on the same logical array
//! (the `ConflictSps` shared region) with optimistic concurrency, so
//! contention produces real aborts and retries instead of being sliced
//! away. The sweep crosses client count (1/2/4/8) with the conflict
//! dial (the fraction of transactions touching the shared region) and
//! records, per cell, the committed throughput and the OCC outcome
//! counters.
//!
//! Four properties of the sweep are its [`gate`], checked before the
//! target returns so CI fails loudly rather than baking a bad number
//! into a baseline:
//!
//! 1. **No false conflicts** — at dial 0 the working sets are
//!    line-disjoint by construction and the abort count must be exactly
//!    zero at every client count.
//! 2. **Bounded shared-mode overhead** — at dial 0 the shared driver's
//!    cycles/txn must stay within 1.5× of the partitioned
//!    (`run_parallel`) driver on the *same* workload: speculation +
//!    epoch validation may not silently wreck the uncontended path.
//! 3. **Real conflicts** — at the high-dial, 8-client corner the abort
//!    count must be nonzero (the validator actually fires), under the
//!    uniform and the skewed key distribution alike.
//! 4. **Monotone contention** — at the high dial the abort rate never
//!    drops as clients are added.
//!
//! Every cell runs once, threaded; threaded == sequential == repeats
//! (the shared-heap determinism contract) is pinned for all four engines
//! by `tests/shared_heap_equivalence.rs`. Everything under `sim` is
//! integer, deterministic simulated state, exact-gated by `bench_diff`.

use std::time::Instant;

use ssp_core::engine::Ssp;
use ssp_core::SspConfig;
use ssp_simulator::config::MachineConfig;
use ssp_txn::engine::TxnEngine;
use ssp_workloads::conflict::ConflictSps;
use ssp_workloads::dist::KeyDist;
use ssp_workloads::runner::{run_parallel, ExecMode, RunConfig};
use ssp_workloads::shared::{run_shared, SharedHeapConfig, SharedRun};

use super::{quick_mode, row_is, row_u64};
use crate::json::Json;
use crate::{print_matrix, BenchReport, MatrixRunner};

/// Clients sweeping the x-axis (mirrors the paper's multi-client
/// figures).
const CLIENTS: [usize; 4] = [1, 2, 4, 8];
/// Conflict dial in basis points (0 = partitioned, 9000 = 90% of
/// transactions on the shared region).
const DIALS_BP: [u64; 3] = [0, 5_000, 9_000];

/// Shared-region / per-client private-region sizes in elements.
const SHARED_ELEMS: u64 = 256;
const PRIVATE_ELEMS: u64 = 256;

fn run_cfg(threads: usize, quick: bool) -> RunConfig {
    RunConfig {
        txns: if quick { 240 } else { 2_000 },
        warmup: if quick { 40 } else { 200 },
        threads,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    }
}

/// Key distribution over the shared region for one sweep family.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SweepDist {
    Uniform,
    /// The paper's skew: 80% of shared-region accesses hit 15% of keys.
    PaperZipf,
}

impl SweepDist {
    fn key_dist(self) -> KeyDist {
        match self {
            SweepDist::Uniform => KeyDist::uniform(SHARED_ELEMS),
            SweepDist::PaperZipf => KeyDist::paper_zipf(SHARED_ELEMS),
        }
    }

    fn name(self) -> &'static str {
        match self {
            SweepDist::Uniform => "uniform",
            SweepDist::PaperZipf => "paper_zipf",
        }
    }
}

fn shared_cell(clients: usize, dial_bp: u64, dist: SweepDist, quick: bool) -> SharedRun<Ssp> {
    let shard = MachineConfig::default().shard_slice(clients.max(2));
    let dial = dial_bp as f64 / 10_000.0;
    let cfg = run_cfg(clients, quick);
    run_shared(
        move |_| Ssp::new(shard.clone(), SspConfig::default()),
        move |w| {
            ConflictSps::new(
                SHARED_ELEMS,
                PRIVATE_ELEMS,
                clients,
                w,
                dial,
                dist.key_dist(),
            )
        },
        &cfg,
        &SharedHeapConfig::default(),
    )
}

/// The partitioned reference: the same dial-0 workload under
/// `run_parallel` (each worker swaps inside its own private slice on
/// its own shard — no speculation, no validation).
fn partitioned_cell(clients: usize, quick: bool) -> u64 {
    let shard = MachineConfig::default().shard_slice(clients.max(2));
    let cfg = run_cfg(clients, quick);
    let run = run_parallel(
        move |_| Ssp::new(shard.clone(), SspConfig::default()),
        move |w| ConflictSps::uniform(SHARED_ELEMS, PRIVATE_ELEMS, clients, w, 0.0),
        &cfg,
    );
    run.result.elapsed_cycles / run.result.txns.max(1)
}

/// XOR-fold of the per-shard committed NVRAM fingerprints
/// (crash + recover first, like the equivalence suite).
fn combined_fingerprint(run: &mut SharedRun<Ssp>) -> u64 {
    run.shards
        .iter_mut()
        .map(|s| {
            s.engine.crash_and_recover();
            s.engine.machine().nvram_fingerprint()
        })
        .fold(0u64, |acc, f| acc.rotate_left(17) ^ f)
}

/// `(clients, aborted, abort_rate_bp)` of `family`'s rows at its highest
/// dial, in client order — the last entry is the most-contended corner.
fn high_dial_curve(family: &[&Json]) -> Result<Vec<(u64, u64, u64)>, String> {
    let mut cells = Vec::new();
    for row in family {
        cells.push((
            row_u64(row, "conflict_bp")?,
            row_u64(row, "clients")?,
            row_u64(row, "aborted")?,
            row_u64(row, "abort_rate_bp")?,
        ));
    }
    let high = cells
        .iter()
        .map(|c| c.0)
        .max()
        .ok_or("empty sweep family")?;
    cells.retain(|c| c.0 == high);
    cells.sort_unstable();
    Ok(cells.into_iter().map(|(_, c, a, r)| (c, a, r)).collect())
}

/// The conflict-sweep gate over the emitted `sim.rows` (see the module
/// docs for the four properties). Uniform rows carry no `dist` field;
/// the skewed family is tagged `paper_zipf`.
pub fn gate(rows: &[Json]) -> Result<(), String> {
    let (zipf, uniform): (Vec<&Json>, Vec<&Json>) =
        rows.iter().partition(|r| row_is(r, "dist", "paper_zipf"));
    for row in &uniform {
        if row_u64(row, "conflict_bp")? != 0 {
            continue;
        }
        let clients = row_u64(row, "clients")?;
        let aborted = row_u64(row, "aborted")?;
        if aborted != 0 {
            return Err(format!(
                "dial 0 must never abort: {clients} clients aborted {aborted}"
            ));
        }
        let cpt = row_u64(row, "cycles_per_txn")?;
        let partitioned = row_u64(row, "partitioned_cycles_per_txn")?;
        if clients > 1 && cpt > partitioned + partitioned / 2 {
            return Err(format!(
                "shared-mode overhead at dial 0, {clients} clients: {cpt} cyc/txn \
                 exceeds 1.5x partitioned ({partitioned})"
            ));
        }
    }
    let top = high_dial_curve(&uniform)?;
    if let Some(&(clients, 0, _)) = top.last() {
        return Err(format!(
            "{clients} clients at the high dial aborted nothing: the conflict \
             validator never fired"
        ));
    }
    let rates: Vec<u64> = top.iter().map(|c| c.2).collect();
    if rates.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!(
            "abort rate not monotone in client count at the high dial: {rates:?} bp"
        ));
    }
    // The 80/15 skew concentrates contention on hot lines: its corner
    // must conflict too.
    if let Some(&(clients, 0, _)) = high_dial_curve(&zipf)?.last() {
        return Err(format!(
            "zipf corner ({clients} clients at the high dial) aborted nothing"
        ));
    }
    Ok(())
}

/// Runs the target and returns its report.
pub fn run(_runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let quick = quick_mode();

    let mut rows = Vec::new();
    let mut sim_rows = Vec::new();
    // The skewed family (the paper's 80/15 hot-spot distribution) sweeps
    // nonzero dials only: dial 0 never touches the shared region, so skew
    // is moot there. Its rows follow the uniform family's.
    let families = [
        (SweepDist::Uniform, &DIALS_BP[..]),
        (SweepDist::PaperZipf, &DIALS_BP[1..]),
    ];
    for (dist, dials) in families {
        let zipf = dist == SweepDist::PaperZipf;
        for clients in CLIENTS {
            // Only the uniform family is read against the partitioned
            // driver (the dial-0 overhead bound).
            let partitioned_cpt = (!zipf).then(|| partitioned_cell(clients, quick));
            for &dial_bp in dials {
                let mut run = shared_cell(clients, dial_bp, dist, quick);
                let s = run.shared;
                assert_eq!(
                    s.committed,
                    run.result.txns,
                    "{} x{clients} d{dial_bp}: committed != requested",
                    dist.name()
                );

                let txns = run.result.txns.max(1);
                let cycles_per_txn = run.result.elapsed_cycles / txns;
                // Basis points of validated intents that aborted: integer,
                // exact, and scale-free for the gate.
                let abort_rate_bp = (s.aborted * 10_000).checked_div(s.validated).unwrap_or(0);
                let tps_milli = (run.result.tps * 1_000.0) as u64;
                let fingerprint = combined_fingerprint(&mut run);

                rows.push((
                    format!(
                        "x{clients} dial {:.2}{}",
                        dial_bp as f64 / 10_000.0,
                        if zipf { " zipf" } else { "" }
                    ),
                    vec![
                        format!("{}", s.committed),
                        format!("{}", s.aborted),
                        format!("{:.1}%", abort_rate_bp as f64 / 100.0),
                        format!("{}", s.retries),
                        format!("{}", s.max_attempt),
                        format!("{cycles_per_txn}"),
                    ],
                ));
                let mut sim = Json::obj();
                sim.set("clients", Json::U64(clients as u64));
                sim.set("conflict_bp", Json::U64(dial_bp));
                if zipf {
                    sim.set("dist", Json::Str(dist.name().to_string()));
                }
                sim.set("txns", Json::U64(run.result.txns));
                sim.set("committed", Json::U64(s.committed));
                sim.set("aborted", Json::U64(s.aborted));
                sim.set("validated", Json::U64(s.validated));
                sim.set("conflicts", Json::U64(s.conflicts));
                sim.set("cascades", Json::U64(s.cascades));
                sim.set("retries", Json::U64(s.retries));
                sim.set("backoff_cycles", Json::U64(s.backoff_cycles));
                sim.set("max_attempt", Json::U64(s.max_attempt));
                sim.set("abort_rate_bp", Json::U64(abort_rate_bp));
                sim.set("elapsed_cycles", Json::U64(run.result.elapsed_cycles));
                sim.set("cycles_per_txn", Json::U64(cycles_per_txn));
                sim.set("tps_milli", Json::U64(tps_milli));
                if let Some(cpt) = partitioned_cpt {
                    sim.set("partitioned_cycles_per_txn", Json::U64(cpt));
                }
                sim.set("fingerprint", Json::U64(fingerprint));
                sim_rows.push(sim);
            }
        }
    }
    gate(&sim_rows).unwrap_or_else(|e| panic!("shared_conflicts gate: {e}"));

    print_matrix(
        "Shared-heap conflicts (ConflictSPS, SSP): clients x dial",
        &[
            "committed",
            "aborted",
            "abort rate",
            "retries",
            "max att",
            "cyc/txn",
        ],
        &rows,
    );
    println!("\ngated: dial 0 aborts nothing and stays within 1.5x of the partitioned");
    println!("driver; the 8-client high-dial corners abort; abort rate is monotone in");
    println!("clients at the high dial");

    let mut report = BenchReport::new("shared_conflicts", quick);
    report.sim("rows", Json::Arr(sim_rows));
    report.host_wall(t0.elapsed());
    report
}

#[cfg(test)]
mod tests {
    use super::super::gate_fixtures::{baseline_rows, broken};
    use super::*;

    #[test]
    fn gate_passes_the_baseline_and_fails_each_broken_sweep() {
        let baseline = baseline_rows(
            include_str!("../../benches/baselines/BENCH_shared_conflicts.json"),
            "rows",
        );
        assert_eq!(gate(&baseline), Ok(()));

        // Breaks the (family, clients, dial) row's `field` and returns
        // the gate's error.
        let break_cell = |zipf: bool, clients: u64, bp: u64, field: (&str, u64)| {
            let pick = |r: &Json| {
                r.get("dist").is_some() == zipf
                    && row_u64(r, "clients") == Ok(clients)
                    && row_u64(r, "conflict_bp") == Ok(bp)
            };
            broken(gate, baseline.clone(), pick, field)
        };
        let err = break_cell(false, 2, 0, ("aborted", 1));
        assert!(err.contains("dial 0 must never abort"), "{err}");
        let err = break_cell(false, 2, 0, ("cycles_per_txn", u64::MAX));
        assert!(err.contains("exceeds 1.5x partitioned"), "{err}");
        let err = break_cell(false, 8, 9_000, ("aborted", 0));
        assert!(err.contains("validator never fired"), "{err}");
        let err = break_cell(false, 4, 9_000, ("abort_rate_bp", 10_000));
        assert!(err.contains("not monotone"), "{err}");
        let err = break_cell(true, 8, 9_000, ("aborted", 0));
        assert!(err.contains("zipf corner"), "{err}");
    }
}
