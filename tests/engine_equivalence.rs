//! Engine equivalence: the four engines implement the same transactional
//! semantics, so an identical operation trace must leave identical data —
//! including after crashes at identical points.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssp::baselines::{RedoLog, ShadowPaging, UndoLog};
use ssp::core::engine::Ssp;
use ssp::simulator::addr::VirtAddr;
use ssp::simulator::cache::CoreId;
use ssp::simulator::config::MachineConfig;
use ssp::simulator::fault::{CrashPoint, FaultSite};
use ssp::txn::engine::TxnEngine;
use ssp::SspConfig;

const C0: CoreId = CoreId::new(0);
const C1: CoreId = CoreId::new(1);

#[derive(Debug, Clone)]
enum Op {
    Begin,
    Store {
        page: usize,
        offset: u64,
        value: u64,
    },
    Commit,
    Abort,
    Crash,
}

fn random_trace(seed: u64, rounds: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    for _ in 0..rounds {
        ops.push(Op::Begin);
        for _ in 0..rng.gen_range(1..6) {
            ops.push(Op::Store {
                page: rng.gen_range(0..4),
                offset: rng.gen_range(0..512u64) * 8,
                value: rng.gen(),
            });
        }
        match rng.gen_range(0..10) {
            0 => ops.push(Op::Abort),
            1 => ops.push(Op::Crash),
            _ => ops.push(Op::Commit),
        }
    }
    ops
}

/// Applies a trace and returns a digest of the final persistent state.
fn apply<E: TxnEngine>(engine: &mut E, ops: &[Op]) -> Vec<u64> {
    let pages: Vec<VirtAddr> = (0..4).map(|_| engine.map_new_page(C0).base()).collect();
    for op in ops {
        match *op {
            Op::Begin => engine.begin(C0),
            Op::Store {
                page,
                offset,
                value,
            } => engine.store(C0, pages[page].add(offset), &value.to_le_bytes()),
            Op::Commit => engine.commit(C0),
            Op::Abort => engine.abort(C0),
            Op::Crash => engine.crash_and_recover(),
        }
    }
    // Quiesce any open transaction so reads see committed state only.
    if engine.in_txn(C0) {
        engine.abort(C0);
    }
    let mut digest = Vec::new();
    for &p in &pages {
        for slot in 0..512u64 {
            let mut buf = [0u8; 8];
            engine.load(C0, p.add(slot * 8), &mut buf);
            digest.push(u64::from_le_bytes(buf));
        }
    }
    digest
}

fn arm_point<E: TxnEngine>(engine: &mut E, schedule: &[(FaultSite, u32)], i: usize) {
    if let Some(&(site, hits)) = schedule.get(i) {
        engine
            .machine_mut()
            .arm_crash(CrashPoint::AtSite { site, hits });
    }
}

/// Applies a trace while an identical site-based crash schedule is armed.
///
/// Each schedule entry cuts power at the k-th hit of a commit-path fault
/// site; on a trip the engine is crashed and recovered and the next entry
/// is armed. Because every engine places `CommitData` before its durable
/// commit mark and `CommitMark` after it, all four engines must recover
/// to the identical state at every cut.
fn apply_with_cut_schedule<E: TxnEngine>(
    engine: &mut E,
    ops: &[Op],
    schedule: &[(FaultSite, u32)],
) -> Vec<u64> {
    let pages: Vec<VirtAddr> = (0..4).map(|_| engine.map_new_page(C0).base()).collect();
    let mut next = 0usize;
    arm_point(engine, schedule, next);
    for op in ops {
        match *op {
            Op::Begin => engine.begin(C0),
            Op::Store {
                page,
                offset,
                value,
            } => engine.store(C0, pages[page].add(offset), &value.to_le_bytes()),
            Op::Commit => engine.commit(C0),
            Op::Abort => engine.abort(C0),
            Op::Crash => {
                engine.crash_and_recover();
                // `crash()` clears the armed point; keep the storm alive.
                arm_point(engine, schedule, next);
            }
        }
        if engine.machine().power_lost() {
            engine.crash();
            engine.recover();
            next += 1;
            arm_point(engine, schedule, next);
        }
    }
    if engine.in_txn(C0) {
        engine.abort(C0);
    }
    let mut digest = Vec::new();
    for &p in &pages {
        for slot in 0..512u64 {
            let mut buf = [0u8; 8];
            engine.load(C0, p.add(slot * 8), &mut buf);
            digest.push(u64::from_le_bytes(buf));
        }
    }
    digest
}

fn check_equivalence(seed: u64) {
    let ops = random_trace(seed, 25);
    let cfg = MachineConfig::default();

    let mut ssp = Ssp::new(cfg.clone(), SspConfig::default());
    let d_ssp = apply(&mut ssp, &ops);

    let mut undo = UndoLog::new(cfg.clone());
    let d_undo = apply(&mut undo, &ops);

    let mut redo = RedoLog::new(cfg.clone());
    let d_redo = apply(&mut redo, &ops);

    let mut shadow = ShadowPaging::new(cfg);
    let d_shadow = apply(&mut shadow, &ops);

    assert_eq!(d_ssp, d_undo, "SSP vs UNDO-LOG diverged (seed {seed})");
    assert_eq!(d_ssp, d_redo, "SSP vs REDO-LOG diverged (seed {seed})");
    assert_eq!(d_ssp, d_shadow, "SSP vs SHADOW diverged (seed {seed})");
}

#[test]
fn engines_agree_on_traces() {
    for seed in [1, 7, 42, 1234, 99999] {
        check_equivalence(seed);
    }
}

#[test]
fn engines_agree_with_frequent_crashes() {
    // Bias the trace toward crashes by running many short rounds.
    for seed in [3, 17, 2026] {
        let ops: Vec<Op> = random_trace(seed, 40);
        let crashy: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Abort => Op::Crash,
                other => other,
            })
            .collect();
        let cfg = MachineConfig::default();
        let mut ssp = Ssp::new(cfg.clone(), SspConfig::default());
        let d_ssp = apply(&mut ssp, &crashy);
        let mut undo = UndoLog::new(cfg.clone());
        let d_undo = apply(&mut undo, &crashy);
        let mut redo = RedoLog::new(cfg);
        let d_redo = apply(&mut redo, &crashy);
        assert_eq!(d_ssp, d_undo, "seed {seed}");
        assert_eq!(d_ssp, d_redo, "seed {seed}");
    }
}

/// The crash-storm differential: identical trace + identical site-based
/// crash schedule must leave all four engines in the identical state.
#[test]
fn engines_agree_under_identical_crash_schedules() {
    let schedule = [
        (FaultSite::CommitData, 3),
        (FaultSite::CommitMark, 2),
        (FaultSite::CommitData, 5),
        (FaultSite::CommitMark, 4),
    ];
    for seed in [11, 77, 4242] {
        let ops = random_trace(seed, 30);
        let cfg = MachineConfig::default();

        let mut ssp = Ssp::new(cfg.clone(), SspConfig::default());
        let d_ssp = apply_with_cut_schedule(&mut ssp, &ops, &schedule);

        let mut undo = UndoLog::new(cfg.clone());
        let d_undo = apply_with_cut_schedule(&mut undo, &ops, &schedule);

        let mut redo = RedoLog::new(cfg.clone());
        let d_redo = apply_with_cut_schedule(&mut redo, &ops, &schedule);

        let mut shadow = ShadowPaging::new(cfg);
        let d_shadow = apply_with_cut_schedule(&mut shadow, &ops, &schedule);

        assert_eq!(d_ssp, d_undo, "SSP vs UNDO-LOG diverged (seed {seed})");
        assert_eq!(d_ssp, d_redo, "SSP vs REDO-LOG diverged (seed {seed})");
        assert_eq!(d_ssp, d_shadow, "SSP vs SHADOW diverged (seed {seed})");
    }
}

/// Cut semantics are site-defined, not engine-defined: a cut at
/// `CommitData` (before the durable mark) drops the torn transaction in
/// every engine, and a cut at `CommitMark` (after it) keeps it.
#[test]
fn commit_site_cuts_have_the_same_keep_drop_semantics_everywhere() {
    fn probe<E: TxnEngine>(engine: &mut E, name: &str) {
        let p = engine.map_new_page(C0).base();
        engine.begin(C0);
        engine.store(C0, p, &1u64.to_le_bytes());
        engine.commit(C0);

        engine.machine_mut().arm_crash(CrashPoint::AtSite {
            site: FaultSite::CommitData,
            hits: 1,
        });
        engine.begin(C0);
        engine.store(C0, p, &2u64.to_le_bytes());
        engine.commit(C0);
        assert!(engine.machine().power_lost(), "{name}: CommitData not hit");
        engine.crash();
        engine.recover();
        let mut buf = [0u8; 8];
        engine.load(C0, p, &mut buf);
        assert_eq!(
            u64::from_le_bytes(buf),
            1,
            "{name}: a CommitData cut must drop the torn transaction"
        );

        engine.machine_mut().arm_crash(CrashPoint::AtSite {
            site: FaultSite::CommitMark,
            hits: 1,
        });
        engine.begin(C0);
        engine.store(C0, p, &3u64.to_le_bytes());
        engine.commit(C0);
        assert!(engine.machine().power_lost(), "{name}: CommitMark not hit");
        engine.crash();
        engine.recover();
        engine.load(C0, p, &mut buf);
        assert_eq!(
            u64::from_le_bytes(buf),
            3,
            "{name}: a CommitMark cut must keep the committed transaction"
        );
    }
    let cfg = MachineConfig::default();
    probe(&mut Ssp::new(cfg.clone(), SspConfig::default()), "SSP");
    probe(&mut UndoLog::new(cfg.clone()), "UNDO");
    probe(&mut RedoLog::new(cfg.clone()), "REDO");
    probe(&mut ShadowPaging::new(cfg), "SHADOW");
}

/// What the transaction shell guarantees is the same under every engine:
/// misuse of the `ATOMIC_*` instructions panics with the same message
/// (naming the core), and a power failure closes every core's
/// transaction.
#[test]
fn every_engine_keeps_the_shells_transaction_contract() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    type Build = fn() -> Box<dyn TxnEngine>;
    let engines: [(&str, Build); 4] = [
        ("SSP", || {
            Box::new(Ssp::new(MachineConfig::default(), SspConfig::default()))
        }),
        ("UNDO", || Box::new(UndoLog::new(MachineConfig::default()))),
        ("REDO", || Box::new(RedoLog::new(MachineConfig::default()))),
        ("SHADOW", || {
            Box::new(ShadowPaging::new(MachineConfig::default()))
        }),
    ];
    type Misuse = fn(&mut dyn TxnEngine, VirtAddr);
    let misuses: [(Misuse, &str); 4] = [
        (
            |e, _| {
                e.begin(C1);
                e.begin(C1);
            },
            "core1 already has an open transaction",
        ),
        (
            |e, addr| e.store(C1, addr, &[1]),
            "ATOMIC_STORE outside a transaction on core1",
        ),
        (
            |e, _| e.commit(C1),
            "commit without an open transaction on core1",
        ),
        (
            |e, _| e.abort(C1),
            "abort without an open transaction on core1",
        ),
    ];
    for (name, build) in engines {
        for (misuse, message) in misuses {
            let mut engine = build();
            let addr = engine.map_new_page(C0).base();
            // Another core's open transaction excuses nothing.
            engine.begin(C0);
            let panic = catch_unwind(AssertUnwindSafe(|| misuse(engine.as_mut(), addr)))
                .expect_err("misuse must panic");
            let said = panic
                .downcast_ref::<String>()
                .unwrap_or_else(|| panic!("{name}: panic payload is not a formatted message"));
            assert_eq!(said, message, "{name}");
        }

        let mut engine = build();
        let cores = engine.machine().config().cores;
        let addr = engine.map_new_page(C0).base();
        for core in (0..cores).map(CoreId::new) {
            engine.begin(core);
            assert!(engine.in_txn(core), "{name}");
        }
        engine.store(C1, addr, &7u64.to_le_bytes());
        engine.crash();
        for core in (0..cores).map(CoreId::new) {
            assert!(!engine.in_txn(core), "{name}: {core} open after crash()");
        }
        engine.recover();
        let mut buf = [0xffu8; 8];
        engine.load(C1, addr, &mut buf);
        assert_eq!(
            buf, [0u8; 8],
            "{name}: the open transaction's store survived"
        );
        for core in (0..cores).map(CoreId::new) {
            engine.begin(core); // would panic if the crash left it open
            engine.commit(core);
        }
    }
}

#[test]
fn write_traffic_ordering_matches_the_paper() {
    // Structural sanity on the headline claim: for a write-heavy trace,
    // NVRAM writes satisfy SSP < REDO <= UNDO << SHADOW.
    let ops = random_trace(0x5A5A, 60);
    let only_commits: Vec<Op> = ops
        .into_iter()
        .map(|op| match op {
            Op::Abort | Op::Crash => Op::Commit,
            other => other,
        })
        .collect();
    let cfg = MachineConfig::default();

    let mut ssp = Ssp::new(cfg.clone(), SspConfig::default());
    apply(&mut ssp, &only_commits);
    let w_ssp = ssp.machine().stats().nvram_writes_total();

    let mut undo = UndoLog::new(cfg.clone());
    apply(&mut undo, &only_commits);
    let w_undo = undo.machine().stats().nvram_writes_total();

    let mut redo = RedoLog::new(cfg.clone());
    apply(&mut redo, &only_commits);
    let w_redo = redo.machine().stats().nvram_writes_total();

    let mut shadow = ShadowPaging::new(cfg);
    apply(&mut shadow, &only_commits);
    let w_shadow = shadow.machine().stats().nvram_writes_total();

    assert!(w_ssp < w_redo, "SSP ({w_ssp}) vs REDO ({w_redo})");
    assert!(w_redo <= w_undo, "REDO ({w_redo}) vs UNDO ({w_undo})");
    assert!(
        w_shadow > 3 * w_ssp,
        "page-granularity CoW ({w_shadow}) should dwarf SSP ({w_ssp})"
    );
}
