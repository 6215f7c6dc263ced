//! The crash-storm harness end to end: scheduled power cuts under real
//! workload traffic, oracle-verified recovery, and the determinism
//! contract — bit-identical reports across threaded, sequential and
//! repeated runs for a fixed seed + crash schedule.

use ssp::baselines::{RedoLog, ShadowPaging, UndoLog};
use ssp::core::engine::Ssp;
use ssp::simulator::config::{InterconnectConfig, MachineConfig};
use ssp::simulator::fault::FaultSite;
use ssp::workloads::runner::{ExecMode, RunConfig};
use ssp::workloads::storm::{run_storm, StormPoint, StormRun, StormSchedule};
use ssp::workloads::{KeyDist, Sps};
use ssp::SspConfig;

const THREADS: usize = 2;

fn cfg(mode: ExecMode) -> RunConfig {
    RunConfig {
        txns: 160,
        warmup: 0,
        threads: THREADS,
        seed: 0x5702_2019,
        mode,
    }
}

fn storm_ssp(mode: ExecMode, schedule: &StormSchedule) -> StormRun {
    run_storm(
        |_| {
            Ssp::new(
                MachineConfig::default().shard_slice(THREADS),
                SspConfig::default(),
            )
        },
        |_| Sps::new(256, KeyDist::uniform(256)),
        &cfg(mode),
        schedule,
    )
}

/// Storm the same engine many times in a row — including cutting every
/// first recovery short — and require zero data loss throughout.
#[test]
fn repeated_storms_never_lose_committed_data() {
    let schedule = StormSchedule {
        points: vec![StormPoint::AfterCycles(6_000)],
        crash_during_recovery: true,
        rearm: true,
    };
    let run = storm_ssp(ExecMode::Threaded, &schedule);
    let t = run.totals();
    assert!(t.storms >= 4, "want a real storm series, got {t:?}");
    assert_eq!(t.torn_recoveries, t.storms, "every first recovery was cut");
    assert_eq!(t.lost_txns, 0, "{t:?}");
}

/// The determinism contract, for every engine: threaded == sequential ==
/// every repeat, down to each shard's counters and NVRAM fingerprint.
#[test]
fn storm_reports_identical_across_modes_and_repeats() {
    let schedule = StormSchedule {
        points: vec![
            StormPoint::AfterCycles(5_000),
            StormPoint::AtSite {
                site: FaultSite::CommitData,
                hits: 7,
            },
            StormPoint::AtSite {
                site: FaultSite::CommitMark,
                hits: 11,
            },
        ],
        crash_during_recovery: true,
        rearm: true,
    };
    let mk_workload = |_| Sps::new(256, KeyDist::uniform(256));
    let mcfg = || MachineConfig::default().shard_slice(THREADS);
    type Storm<'a> = Box<dyn Fn(ExecMode) -> StormRun + 'a>;
    let engines: [(&str, Storm); 4] = [
        ("SSP", Box::new(|mode| storm_ssp(mode, &schedule))),
        (
            "UNDO",
            Box::new(|mode| {
                run_storm(|_| UndoLog::new(mcfg()), mk_workload, &cfg(mode), &schedule)
            }),
        ),
        (
            "REDO",
            Box::new(|mode| {
                run_storm(|_| RedoLog::new(mcfg()), mk_workload, &cfg(mode), &schedule)
            }),
        ),
        (
            "SHADOW",
            Box::new(|mode| {
                run_storm(
                    |_| ShadowPaging::new(mcfg()),
                    mk_workload,
                    &cfg(mode),
                    &schedule,
                )
            }),
        ),
    ];
    for (name, storm) in &engines {
        let reference = storm(ExecMode::Threaded);
        assert!(reference.totals().storms > 0, "{name}");
        for _ in 0..5 {
            let repeat = storm(ExecMode::Threaded);
            assert_eq!(
                reference.shards, repeat.shards,
                "{name}: threaded repeat drifted"
            );
        }
        for _ in 0..5 {
            let seq = storm(ExecMode::Sequential);
            assert_eq!(
                reference.shards, seq.shards,
                "{name}: sequential run drifted"
            );
        }
    }
}

/// Every engine survives the same periodic storm with zero loss.
#[test]
fn all_engines_survive_a_storm_series() {
    let schedule = StormSchedule::every_cycles(8_000);
    let c = cfg(ExecMode::Threaded);
    let mk_workload = |_| Sps::new(256, KeyDist::uniform(256));
    let mcfg = || MachineConfig::default().shard_slice(THREADS);

    let runs: Vec<(&str, StormRun)> = vec![
        (
            "SSP",
            run_storm(
                |_| Ssp::new(mcfg(), SspConfig::default()),
                mk_workload,
                &c,
                &schedule,
            ),
        ),
        (
            "UNDO",
            run_storm(|_| UndoLog::new(mcfg()), mk_workload, &c, &schedule),
        ),
        (
            "REDO",
            run_storm(|_| RedoLog::new(mcfg()), mk_workload, &c, &schedule),
        ),
        (
            "SHADOW",
            run_storm(|_| ShadowPaging::new(mcfg()), mk_workload, &c, &schedule),
        ),
    ];
    for (name, run) in runs {
        let t = run.totals();
        assert!(t.storms > 0, "{name}: no storm tripped ({t:?})");
        assert_eq!(t.lost_txns, 0, "{name} lost committed data: {t:?}");
    }
}

/// SSP consolidation cut mid-drain: force constant consolidation with a
/// tiny TLB and cut inside the drain.
#[test]
fn ssp_survives_a_cut_during_consolidation() {
    let schedule = StormSchedule {
        points: vec![StormPoint::AtSite {
            site: FaultSite::Consolidation,
            hits: 3,
        }],
        crash_during_recovery: false,
        rearm: true,
    };
    let run = run_storm(
        |_| {
            let mcfg = MachineConfig {
                dtlb_entries: 4,
                ..MachineConfig::default().shard_slice(THREADS)
            };
            Ssp::new(mcfg, SspConfig::default())
        },
        |_| Sps::new(4096, KeyDist::uniform(4096)),
        &cfg(ExecMode::Threaded),
        &schedule,
    );
    let t = run.totals();
    assert!(t.storms > 0, "consolidation cut never tripped: {t:?}");
    assert_eq!(t.lost_txns, 0, "{t:?}");
}

/// Interconnect epoch storms: the whole machine loses power at the same
/// epoch boundary on every shard, recovers, and the run completes with
/// zero loss — identically in both execution modes.
#[test]
fn epoch_boundary_storm_is_machine_wide_and_deterministic() {
    let schedule = StormSchedule {
        points: vec![StormPoint::AtSite {
            site: FaultSite::EpochBoundary,
            hits: 2,
        }],
        crash_during_recovery: false,
        rearm: true,
    };
    let mk_engine = |_| {
        let mut mcfg = MachineConfig::default().shard_slice(THREADS);
        mcfg.interconnect = InterconnectConfig::shared();
        mcfg.interconnect.epoch_cycles = 10_000;
        Ssp::new(mcfg, SspConfig::default())
    };
    let mk_workload = |_| Sps::new(256, KeyDist::uniform(256));
    let threaded = run_storm(mk_engine, mk_workload, &cfg(ExecMode::Threaded), &schedule);
    let t = threaded.totals();
    assert!(t.storms > 0, "no epoch cut tripped: {t:?}");
    assert_eq!(
        t.storms % THREADS as u64,
        0,
        "a cut must take down every shard together: {t:?}"
    );
    assert_eq!(
        t.torn_txns + t.kept_torn_txns,
        0,
        "boundary cuts land between transactions"
    );
    assert_eq!(t.lost_txns, 0, "{t:?}");

    let sequential = run_storm(
        mk_engine,
        mk_workload,
        &cfg(ExecMode::Sequential),
        &schedule,
    );
    assert_eq!(
        threaded.shards, sequential.shards,
        "epoch storm modes diverged"
    );

    // No bench baseline covers epoch storms: the charged clocks and the
    // final durable image are pinned here instead.
    let elapsed: Vec<u64> = threaded.shards.iter().map(|s| s.elapsed_cycles).collect();
    assert_eq!(elapsed, [57_037, 58_227]);
    assert_eq!(threaded.combined_fingerprint(), 0xef9d_b588_ce86_6cca);
}

/// After any storm series, the recovered engines keep doing useful work:
/// fingerprints are nonzero and distinct across shards (each shard holds
/// its own data), and recovery did real NVRAM traffic.
#[test]
fn storm_reports_carry_recovery_metrics() {
    let schedule = StormSchedule::every_cycles(6_000);
    let run = storm_ssp(ExecMode::Sequential, &schedule);
    for shard in &run.shards {
        assert!(shard.storms > 0, "{shard:?}");
        assert!(shard.fingerprint != 0, "{shard:?}");
        assert!(
            shard.recovery_nvram_reads + shard.recovery_nvram_writes > 0,
            "{shard:?}"
        );
        assert!(shard.recovery_cycles_est > 0, "{shard:?}");
        assert!(shard.elapsed_cycles > 0, "{shard:?}");
    }
}
