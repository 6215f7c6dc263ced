//! The cross-shard memory interconnect: determinism contract and
//! contention shape.
//!
//! Two families of assertions:
//!
//! 1. **Determinism** — with the interconnect *enabled*, the PR-2
//!    contract still holds for every engine: a threaded run produces
//!    bit-identical merged counters, per-shard counters and committed
//!    persistent state as the `ExecMode::Sequential` reference and as
//!    itself across repeats. Contention is simulated from shard-local
//!    quantities only, so host scheduling must never leak in.
//! 2. **Shape** — clients sharing one channel group pay a monotonically
//!    growing per-transaction cost as the client count grows 1 → 8, while
//!    clients with private (partitioned) channel groups stay flat.

use ssp::baselines::{RedoLog, UndoLog};
use ssp::core::engine::Ssp;
use ssp::simulator::config::{InterconnectConfig, MachineConfig};
use ssp::txn::engine::TxnEngine;
use ssp::workloads::runner::{run_parallel, ExecMode, ParallelRun, RunConfig};
use ssp::workloads::{KeyDist, Sps};
use ssp::SspConfig;

const THREADS: usize = 4;
const REPEATS: usize = 3;

fn cfg(mode: ExecMode) -> RunConfig {
    RunConfig {
        txns: 240,
        warmup: 40,
        threads: THREADS,
        seed: 0x1C_2019,
        mode,
    }
}

/// A shard slice with the given interconnect enabled and a small epoch so
/// several arbitration rounds happen per run.
fn shard_with(threads: usize, interconnect: InterconnectConfig) -> MachineConfig {
    let mut shard = MachineConfig::default().shard_slice(threads);
    shard.interconnect = interconnect;
    shard.interconnect.epoch_cycles = 10_000;
    shard
}

fn sps_run_with<E: TxnEngine>(
    mk: &(impl Fn(MachineConfig) -> E + Sync),
    mode: ExecMode,
    interconnect: InterconnectConfig,
) -> ParallelRun<E> {
    let shard = shard_with(THREADS, interconnect);
    run_parallel(
        move |_| mk(shard.clone()),
        |_| Sps::new(2048, KeyDist::uniform(2048)),
        &cfg(mode),
    )
}

fn sps_run<E: TxnEngine>(
    mk: &(impl Fn(MachineConfig) -> E + Sync),
    mode: ExecMode,
) -> ParallelRun<E> {
    sps_run_with(mk, mode, InterconnectConfig::shared())
}

fn committed_fingerprints<E: TxnEngine>(run: &mut ParallelRun<E>) -> Vec<u64> {
    run.shards
        .iter_mut()
        .map(|s| {
            s.engine.crash_and_recover();
            s.engine.machine().nvram_fingerprint()
        })
        .collect()
}

/// Threaded == sequential reference == repeated threaded runs, with the
/// given interconnect enabled, for one engine factory.
fn assert_engine_equivalence_with<E: TxnEngine>(
    mk: impl Fn(MachineConfig) -> E + Sync,
    interconnect: InterconnectConfig,
) {
    assert_runs_equivalent(|mode| sps_run_with(&mk, mode, interconnect), REPEATS);
}

/// `run(Threaded)`, `repeats` times over, is bit-identical to
/// `run(Sequential)`; returns that reference run.
fn assert_runs_equivalent<E: TxnEngine>(
    run: impl Fn(ExecMode) -> ParallelRun<E>,
    repeats: usize,
) -> ParallelRun<E> {
    let mut reference = run(ExecMode::Sequential);
    assert!(
        reference.result.stats.bankq_row_hits + reference.result.stats.bankq_row_misses > 0,
        "the controller must have arbitrated the measured phase"
    );
    let ref_prints = committed_fingerprints(&mut reference);

    for rep in 0..repeats {
        let mut threaded = run(ExecMode::Threaded);
        assert_eq!(
            threaded.result, reference.result,
            "merged counters diverged from the sequential reference (rep {rep})"
        );
        for (t, r) in threaded.shards.iter().zip(&reference.shards) {
            assert_eq!(
                t.stats, r.stats,
                "shard {} machine counters (rep {rep})",
                t.worker
            );
            assert_eq!(
                t.elapsed_cycles, r.elapsed_cycles,
                "shard {} simulated cycles (rep {rep})",
                t.worker
            );
        }
        assert_eq!(
            committed_fingerprints(&mut threaded),
            ref_prints,
            "committed persistent state diverged (rep {rep})"
        );
    }
    reference
}

fn assert_engine_equivalence<E: TxnEngine>(mk: impl Fn(MachineConfig) -> E + Sync) {
    assert_engine_equivalence_with(mk, InterconnectConfig::shared());
}

#[test]
fn ssp_contended_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(|cfg| Ssp::new(cfg, SspConfig::default()));
}

#[test]
fn undo_contended_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(UndoLog::new);
}

#[test]
fn redo_contended_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(RedoLog::new);
}

/// The full PR-7 configuration — fair bounded arbitration plus the
/// shared-LLC and coherence actors — holds the same determinism contract:
/// threaded == sequential == repeats, bit for bit, for every engine.
#[test]
fn ssp_hierarchy_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence_with(
        |cfg| Ssp::new(cfg, SspConfig::default()),
        InterconnectConfig::shared_hierarchy(),
    );
}

#[test]
fn undo_hierarchy_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence_with(UndoLog::new, InterconnectConfig::shared_hierarchy());
}

#[test]
fn redo_hierarchy_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence_with(RedoLog::new, InterconnectConfig::shared_hierarchy());
}

/// The same contract when the run is mostly rendezvous: 500-cycle epochs
/// put five hundred and more arbitration rounds in each run (the runs
/// above have a few dozen), at every worker count.
#[test]
fn short_epochs_stay_deterministic_at_every_worker_count() {
    const EPOCH_CYCLES: u64 = 500;
    // Contention stretches a transaction as clients are added, so fewer
    // of them per shard fill as many epochs.
    for (threads, txns) in [(1, 400), (2, 800), (4, 800), (8, 1_200)] {
        let run = |mode| {
            let mut shard = shard_with(threads.max(2), InterconnectConfig::shared_hierarchy());
            shard.interconnect.epoch_cycles = EPOCH_CYCLES;
            let run_cfg = RunConfig {
                txns,
                threads,
                ..cfg(mode)
            };
            run_parallel(
                move |_| Ssp::new(shard.clone(), SspConfig::default()),
                |_| Sps::new(2048, KeyDist::uniform(2048)),
                &run_cfg,
            )
        };
        let reference = assert_runs_equivalent(run, 2);
        let epochs = reference.shards[0].elapsed_cycles / EPOCH_CYCLES;
        assert!(epochs >= 500, "{threads} workers: only {epochs} epochs");
    }
}

/// Runs `clients` SSP shards of constant size and workload through the
/// given interconnect; returns cycles per transaction on the critical
/// path (every client executes `txns_per_client`).
fn per_txn_cycles(interconnect: InterconnectConfig, clients: usize) -> u64 {
    const TXNS_PER_CLIENT: u64 = 80;
    // A constant per-client slice (an eighth of the machine) so the only
    // variable along a sweep is the client count.
    let mut shard = MachineConfig::default().shard_slice(8);
    shard.interconnect = interconnect;
    let run_cfg = RunConfig {
        txns: TXNS_PER_CLIENT * clients as u64,
        warmup: 20 * clients as u64,
        threads: clients,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    };
    // 8192 elements = 32 NVRAM rows per client: wide enough to spread
    // over the shared bank pool (see the fig5b_contention bench).
    let p = run_parallel(
        move |_| Ssp::new(shard.clone(), SspConfig::default()),
        |_| Sps::new(8192, KeyDist::uniform(8192)),
        &run_cfg,
    );
    p.result.elapsed_cycles / TXNS_PER_CLIENT
}

#[test]
fn shared_channels_grow_monotonically_while_partitioned_stays_flat() {
    let shared: Vec<u64> = [1, 2, 4, 8]
        .iter()
        .map(|&n| per_txn_cycles(InterconnectConfig::shared(), n))
        .collect();
    let partitioned: Vec<u64> = [1, 2, 4, 8]
        .iter()
        .map(|&n| per_txn_cycles(InterconnectConfig::partitioned(8, 4), n))
        .collect();

    // Clients sharing one channel group: per-txn cost never decreases and
    // eight clients pay strictly more than one.
    for w in shared.windows(2) {
        assert!(w[1] >= w[0], "shared curve dipped: {shared:?}");
    }
    assert!(
        shared[3] > shared[0],
        "eight clients must contend measurably: {shared:?}"
    );

    // Private channel groups: adding clients leaves per-client cost flat
    // (the critical path can only drift by the max over more identical
    // clients — allow a fraction of a percent).
    for &c in &partitioned {
        let base = partitioned[0];
        assert!(
            c >= base && c - base <= base / 100 + 2,
            "partitioned curve is not flat: {partitioned:?}"
        );
    }

    // And contention is the only difference: at one client the two
    // configurations must agree exactly (no cross traffic exists).
    assert_eq!(shared[0], partitioned[0]);
}

/// Fair, bounded bank arbitration fixes the fig5b saturation collapse:
/// the shared curve stays monotone, but the 8-client point is bounded —
/// no shard can occupy a bank more than its in-flight cap deep, so
/// saturation costs grow like the client count rather than exploding.
#[test]
fn fair_arbitration_bounds_the_shared_collapse() {
    let fair: Vec<u64> = [1, 2, 4, 8]
        .iter()
        .map(|&n| per_txn_cycles(InterconnectConfig::shared_fair(), n))
        .collect();
    for w in fair.windows(2) {
        assert!(w[1] >= w[0], "fair shared curve dipped: {fair:?}");
    }
    assert!(
        fair[3] > fair[0],
        "eight clients must still contend measurably: {fair:?}"
    );
    // The bug this PR fixes: under FIFO grants the 4 → 8 step blew up
    // ~16x. With per-shard caps the step is bounded like the added load.
    assert!(
        fair[3] <= 5 * fair[2],
        "8-client point not bounded vs 4 clients: {fair:?}"
    );
    assert!(
        fair[3] <= 10 * fair[0],
        "8-client point not bounded vs 1 client: {fair:?}"
    );
}

/// The full hierarchy actors only ever add time on top of the fair
/// arbitration — the curve stays monotone and bounded with the
/// shared-LLC and coherence actors enabled too.
#[test]
fn hierarchy_actors_keep_the_curve_monotone_and_bounded() {
    let curve: Vec<u64> = [1, 2, 4, 8]
        .iter()
        .map(|&n| per_txn_cycles(InterconnectConfig::shared_hierarchy(), n))
        .collect();
    for w in curve.windows(2) {
        assert!(w[1] >= w[0], "hierarchy curve dipped: {curve:?}");
    }
    assert!(
        curve[3] <= 10 * curve[0],
        "8-client point not bounded vs 1 client: {curve:?}"
    );
}

/// The interconnect shifts clocks and counters, never bytes: every
/// shard's committed persistent state is identical to the same seed's
/// interconnect-disabled run.
#[test]
fn contention_never_changes_committed_state() {
    let mut contended = sps_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
    );
    let plain_shard = MachineConfig::default().shard_slice(THREADS);
    let mut plain = run_parallel(
        move |_| Ssp::new(plain_shard.clone(), SspConfig::default()),
        |_| Sps::new(2048, KeyDist::uniform(2048)),
        &cfg(ExecMode::Threaded),
    );
    assert!(contended.result.elapsed_cycles >= plain.result.elapsed_cycles);
    assert_eq!(
        committed_fingerprints(&mut contended),
        committed_fingerprints(&mut plain),
        "contention must be time-only"
    );
}

/// Same byte-identity contract with every PR-7 actor switched on: fair
/// arbitration, the shared LLC and the coherence actor shift clocks and
/// counters, never the committed persistent bytes.
#[test]
fn hierarchy_actors_never_change_committed_state() {
    let mut contended = sps_run_with(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        InterconnectConfig::shared_hierarchy(),
    );
    let plain_shard = MachineConfig::default().shard_slice(THREADS);
    let mut plain = run_parallel(
        move |_| Ssp::new(plain_shard.clone(), SspConfig::default()),
        |_| Sps::new(2048, KeyDist::uniform(2048)),
        &cfg(ExecMode::Threaded),
    );
    assert_eq!(
        committed_fingerprints(&mut contended),
        committed_fingerprints(&mut plain),
        "the hierarchy actors must be time-only"
    );
}

/// Conservation of charge: over a multi-epoch run with every actor on,
/// summing the per-shard `bankq_*`/LLC/coherence counters reproduces the
/// arbiter's own running totals exactly — every cycle the controller
/// charges lands in exactly one shard's stats, none dropped, none
/// double-billed.
#[test]
fn per_shard_counters_sum_to_the_arbiters_totals() {
    use ssp::simulator::addr::PhysAddr;
    use ssp::simulator::cache::CoreId;
    use ssp::simulator::interconnect::Interconnect;
    use ssp::simulator::machine::Machine;
    use ssp::simulator::phys::NVRAM_PPN_BASE;
    use ssp::simulator::stats::WriteClass;

    const SHARDS: usize = 3;
    let mut cfg = MachineConfig::default().shard_slice(4);
    cfg.interconnect = InterconnectConfig::shared_hierarchy();
    // A tiny shared LLC so fills constantly evict across shards and the
    // coherence actor has real invalidations to charge.
    cfg.interconnect.llc_sets = 8;
    cfg.interconnect.llc_ways = 2;

    let mut machines: Vec<Machine> = (0..SHARDS).map(|_| Machine::new(cfg.clone())).collect();
    let mut ic = Interconnect::new(&cfg, SHARDS);
    let core = CoreId::new(0);
    let mut streams = vec![Vec::new(); SHARDS];
    let mut llc_streams = vec![Vec::new(); SHARDS];

    for epoch in 0..6u64 {
        for (s, m) in machines.iter_mut().enumerate() {
            for i in 0..48u64 {
                // Strided lines that overlap across shards, so the same
                // banks and LLC sets see traffic from every owner.
                let line = (epoch * 48 + i * 7 + s as u64) % 384;
                let addr = PhysAddr::new(NVRAM_PPN_BASE * 4096 + line * 64);
                m.write(core, addr, &[s as u8, i as u8], false);
                m.flush(Some(core), addr, WriteClass::Data);
            }
        }
        for (s, m) in machines.iter_mut().enumerate() {
            m.take_mem_events_into(&mut streams[s]);
            m.take_llc_events_into(&mut llc_streams[s]);
        }
        let charges = ic.arbitrate_epoch(&streams, &llc_streams);
        for (s, m) in machines.iter_mut().enumerate() {
            m.apply_epoch_charge(core, &charges[s]);
        }
    }

    let totals = ic.totals();
    assert!(
        totals.row_hits + totals.row_misses > 0,
        "the run must have arbitrated real traffic"
    );
    let sum = |f: fn(&ssp::simulator::stats::MachineStats) -> u64| -> u64 {
        machines.iter().map(|m| f(m.stats())).sum()
    };
    assert_eq!(sum(|s| s.bankq_delay_cycles), totals.delay_cycles);
    assert_eq!(sum(|s| s.bankq_conflicts), totals.conflicts);
    assert_eq!(sum(|s| s.bankq_row_hits), totals.row_hits);
    assert_eq!(sum(|s| s.bankq_row_misses), totals.row_misses);
    assert_eq!(sum(|s| s.bankq_stall_cycles), totals.port_stall_cycles);
    assert_eq!(sum(|s| s.llc_extra_misses), totals.llc_extra_misses);
    assert_eq!(sum(|s| s.llc_delay_cycles), totals.llc_delay_cycles);
    assert_eq!(sum(|s| s.coh_cross_invalidations), totals.coh_invalidations);
    assert_eq!(sum(|s| s.coh_cross_delay_cycles), totals.coh_delay_cycles);
}
