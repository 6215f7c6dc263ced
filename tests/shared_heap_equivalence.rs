//! The determinism contract of the shared-heap driver, with conflicts
//! ON: a threaded run over one versioned heap must produce
//! *bit-identical* merged counters, OCC outcome counters (including
//! abort counts), latency histograms and committed persistent state as
//! (a) the single-host-thread sequential reference and (b) itself
//! across repeated runs — for every engine.
//!
//! The thread count honors `SSP_SHARED_THREADS` (the CI matrix sets
//! 1/2/4/8) and defaults to 4.

use ssp::baselines::{RedoLog, ShadowPaging, UndoLog};
use ssp::core::engine::Ssp;
use ssp::simulator::config::{InterconnectConfig, MachineConfig};
use ssp::simulator::fault::FaultSite;
use ssp::txn::engine::TxnEngine;
use ssp::workloads::runner::{ExecMode, RunConfig};
use ssp::workloads::shared::{run_shared, run_shared_crash_probe, SharedHeapConfig, SharedRun};
use ssp::workloads::ConflictSps;
use ssp::SspConfig;

const REPEATS: usize = 5;
/// High-conflict dial used by the equivalence runs.
const DIAL: f64 = 0.7;

fn threads() -> usize {
    std::env::var("SSP_SHARED_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn cfg(mode: ExecMode, threads: usize) -> RunConfig {
    RunConfig {
        txns: 240,
        warmup: 40,
        threads,
        seed: 0x5EED_2019,
        mode,
    }
}

fn conflict_run<E: TxnEngine>(
    mk: &(impl Fn(MachineConfig) -> E + Sync),
    mode: ExecMode,
    threads: usize,
    dial: f64,
) -> SharedRun<E> {
    let shard = MachineConfig::default().shard_slice(threads.max(2));
    run_shared(
        move |_| mk(shard.clone()),
        move |w| ConflictSps::uniform(256, 256, threads, w, dial),
        &cfg(mode, threads),
        &SharedHeapConfig::default(),
    )
}

/// The committed persistent state of every shard: crash (drops volatile
/// state) + recover, then fingerprint the NVRAM region.
fn committed_fingerprints<E: TxnEngine>(run: &mut SharedRun<E>) -> Vec<u64> {
    run.shards
        .iter_mut()
        .map(|s| {
            s.engine.crash_and_recover();
            s.engine.machine().nvram_fingerprint()
        })
        .collect()
}

/// Threaded == sequential reference, and threaded == threaded
/// (`REPEATS` runs), for one engine factory, with the conflict dial up.
fn assert_engine_equivalence<E: TxnEngine>(mk: impl Fn(MachineConfig) -> E + Sync) {
    let threads = threads();
    assert_runs_equivalent(|mode| conflict_run(&mk, mode, threads, DIAL), REPEATS);
}

/// `run(Threaded)`, `repeats` times over, is bit-identical to
/// `run(Sequential)`; returns that reference run.
fn assert_runs_equivalent<E: TxnEngine>(
    run: impl Fn(ExecMode) -> SharedRun<E>,
    repeats: usize,
) -> SharedRun<E> {
    let mut reference = run(ExecMode::Sequential);
    let ref_prints = committed_fingerprints(&mut reference);

    for rep in 0..repeats {
        let mut threaded = run(ExecMode::Threaded);
        assert_eq!(
            threaded.result, reference.result,
            "merged counters diverged from the sequential reference (rep {rep})"
        );
        assert_eq!(
            threaded.shared, reference.shared,
            "OCC outcome counters diverged (rep {rep})"
        );
        for (t, r) in threaded.shards.iter().zip(&reference.shards) {
            assert_eq!(
                t.stats, r.stats,
                "shard {} machine counters (rep {rep})",
                t.worker
            );
            assert_eq!(
                t.txn_stats, r.txn_stats,
                "shard {} txn stats (rep {rep})",
                t.worker
            );
            assert_eq!(
                t.shared, r.shared,
                "shard {} OCC counters (rep {rep})",
                t.worker
            );
            assert_eq!(
                t.latency, r.latency,
                "shard {} latency histograms (rep {rep})",
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

#[test]
fn ssp_shared_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(|cfg| Ssp::new(cfg, SspConfig::default()));
}

#[test]
fn undo_shared_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(UndoLog::new);
}

#[test]
fn redo_shared_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(RedoLog::new);
}

#[test]
fn shadow_shared_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(ShadowPaging::new);
}

/// Every committed transaction is accounted for: committed == requested,
/// validated == committed + aborted, and retries drain every abort.
#[test]
fn occ_accounting_is_conserved() {
    let threads = threads();
    let run = conflict_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        threads,
        DIAL,
    );
    let s = &run.shared;
    assert_eq!(run.result.txns, 240);
    assert_eq!(s.committed, run.result.txns);
    assert_eq!(s.validated, s.committed + s.aborted);
    assert_eq!(s.retries, s.aborted, "every abort must be retried");
    assert_eq!(s.conflicts + s.cascades, s.aborted);
    assert_eq!(run.result.txn_stats.committed, s.committed);
    assert_eq!(run.result.txn_stats.aborted, s.aborted);
}

/// Conflict dial at 0 = perfectly partitioned working sets: zero aborts
/// at any worker count, by construction.
#[test]
fn dial_zero_never_aborts() {
    let threads = threads();
    let run = conflict_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        threads,
        0.0,
    );
    assert_eq!(run.shared.aborted, 0, "partitioned run must not abort");
    assert_eq!(run.shared.committed, 240);
}

/// One client has no one to conflict with: its own epoch chains always
/// validate, even at full dial.
#[test]
fn single_client_never_aborts() {
    let run = conflict_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        1,
        1.0,
    );
    assert_eq!(run.shared.aborted, 0, "a lone client must not abort");
    assert_eq!(run.shared.committed, 240);
}

/// The driver rides the interconnect's epoch machinery: with the shared
/// memory hierarchy enabled, threaded == sequential still holds
/// bit-for-bit (conflict validation and bank/LLC arbitration share one
/// rendezvous).
#[test]
fn shared_heap_with_interconnect_stays_deterministic() {
    let threads = threads().max(2);
    let mut shard = MachineConfig::default().shard_slice(threads);
    shard.interconnect = InterconnectConfig::shared_hierarchy();
    let mk = |mode| {
        run_shared(
            |_| Ssp::new(shard.clone(), SspConfig::default()),
            |w| ConflictSps::uniform(256, 256, threads, w, DIAL),
            &cfg(mode, threads),
            &SharedHeapConfig::default(),
        )
    };
    let mut a = mk(ExecMode::Threaded);
    let mut b = mk(ExecMode::Sequential);
    assert_eq!(a.result, b.result);
    assert_eq!(a.shared, b.shared);
    assert_eq!(
        committed_fingerprints(&mut a),
        committed_fingerprints(&mut b)
    );
}

/// Short epochs make the run mostly rendezvous — five hundred and more
/// per run, where the default 50 000-cycle epoch has a handful — so a lost
/// wake-up, a leader that merges twice or a verdict handed to the wrong
/// shard shows here first: threaded == sequential == repeat at every
/// worker count.
#[test]
fn short_epochs_stay_deterministic_at_every_worker_count() {
    const EPOCH_CYCLES: u64 = 500;
    let heap = SharedHeapConfig {
        epoch_cycles: EPOCH_CYCLES,
        ..SharedHeapConfig::default()
    };
    for threads in [1, 2, 4, 8] {
        let run = |mode| {
            let shard = MachineConfig::default().shard_slice(threads.max(2));
            let run_cfg = RunConfig {
                txns: 375 * threads as u64,
                warmup: 80,
                ..cfg(mode, threads)
            };
            run_shared(
                |_| Ssp::new(shard.clone(), SspConfig::default()),
                |w| ConflictSps::uniform(256, 256, threads, w, DIAL),
                &run_cfg,
                &heap,
            )
        };
        let reference = assert_runs_equivalent(run, 2);
        let epochs = reference.shards[0].elapsed_cycles / EPOCH_CYCLES;
        assert!(epochs >= 500, "{threads} workers: only {epochs} epochs");
    }
}

/// Contention must actually happen at a high dial with several clients
/// (guards against the validator silently passing everything).
#[test]
fn high_dial_produces_aborts() {
    let run = conflict_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        4,
        0.9,
    );
    assert!(
        run.shared.aborted > 0,
        "4 clients at dial 0.9 must conflict; stats: {:?}",
        run.shared
    );
}

/// A power cut inside a publication replay (commit *data* flush) must
/// roll the cut transaction back or keep it whole — never lose a
/// committed one. The zero-loss oracle contract extends to the
/// shared-heap mode.
fn crash_probe(site: FaultSite) {
    let threads = 3;
    let shard = MachineConfig::default().shard_slice(threads);
    let report = run_shared_crash_probe(
        |_| Ssp::new(shard.clone(), SspConfig::default()),
        |w| ConflictSps::uniform(256, 256, threads, w, DIAL),
        &cfg(ExecMode::Sequential, threads),
        &SharedHeapConfig::default(),
        1,
        site,
        7,
    );
    assert!(report.storms >= 1, "the cut never tripped: {report:?}");
    assert_eq!(report.lost, 0, "zero-loss violated: {report:?}");
    assert_eq!(
        report.torn_dropped + report.torn_kept,
        report.storms,
        "every storm resolves to dropped-or-kept: {report:?}"
    );
    assert_eq!(report.committed, 240 + 40, "probe must drain all work");
}

#[test]
fn commit_data_cut_during_publication_loses_nothing() {
    crash_probe(FaultSite::CommitData);
}

#[test]
fn commit_mark_cut_during_publication_loses_nothing() {
    crash_probe(FaultSite::CommitMark);
}

/// The crash probe in [`ExecMode::Threaded`]: across a 2/4-thread
/// matrix, the threaded probe's report must be bit-identical to the
/// sequential reference, and the zero-loss contract must hold in both
/// modes.
fn threaded_crash_probe_matrix(site: FaultSite) {
    for threads in [2usize, 4] {
        let shard = MachineConfig::default().shard_slice(threads);
        let probe = |mode| {
            run_shared_crash_probe(
                |_| Ssp::new(shard.clone(), SspConfig::default()),
                |w| ConflictSps::uniform(256, 256, threads, w, DIAL),
                &cfg(mode, threads),
                &SharedHeapConfig::default(),
                threads - 1,
                site,
                7,
            )
        };
        let sequential = probe(ExecMode::Sequential);
        let threaded = probe(ExecMode::Threaded);
        let repeat = probe(ExecMode::Threaded);
        assert_eq!(
            threaded, sequential,
            "x{threads} {site:?}: threaded probe diverged from the sequential reference"
        );
        assert_eq!(
            threaded, repeat,
            "x{threads} {site:?}: threaded probe drifted across repeats"
        );
        assert!(
            threaded.storms >= 1,
            "x{threads} {site:?}: the cut never tripped: {threaded:?}"
        );
        assert_eq!(threaded.lost, 0, "x{threads} {site:?}: {threaded:?}");
        assert_eq!(
            threaded.torn_dropped + threaded.torn_kept,
            threaded.storms,
            "x{threads} {site:?}: {threaded:?}"
        );
        assert_eq!(
            threaded.committed,
            240 + 40,
            "x{threads} {site:?}: probe must drain all work"
        );
    }
}

#[test]
fn threaded_commit_data_probe_matches_sequential() {
    threaded_crash_probe_matrix(FaultSite::CommitData);
}

#[test]
fn threaded_commit_mark_probe_matches_sequential() {
    threaded_crash_probe_matrix(FaultSite::CommitMark);
}
