//! Package-level tests: the decorators are transparent, digests follow the
//! seed, failures are counted, and the metric tables agree with
//! `BENCHMARK.json`.

use rand::rngs::SmallRng;
use ssp_bench::json::Json;
use ssp_bench::{AnyEngine, EngineKind, SspConfig, WorkloadKind};
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_txn::engine::TxnEngine;
use ssp_workloads::runner::{run_parallel, ExecMode, RunConfig, Workload};

use crate::measure::Measured;
use crate::metrics::{per_layer, END_TO_END};
use crate::report::contract_line;
use crate::trace::{Call, Collector};
use crate::workloads::{
    guarded, shared_cell, storm_cell, stream_cell, CellOutcome, RepOutcome, CLIENTS, WORKLOADS,
};

const STORM_PERIOD: u64 = 16_000;

fn storm(engine: EngineKind, seed: u64, txns: u64, collector: Option<&Collector>) -> CellOutcome {
    let trace = collector.map(|c| c.cell("crash_storm", engine.name(), "core", CLIENTS));
    storm_cell(
        engine.name(),
        engine,
        STORM_PERIOD,
        seed,
        txns,
        trace.as_deref(),
    )
}

#[test]
fn decorators_are_transparent_for_all_four_engines() {
    let collector = Collector::new();
    for engine in [
        EngineKind::Undo,
        EngineKind::Redo,
        EngineKind::Ssp,
        EngineKind::Shadow,
    ] {
        let plain = storm(engine, 7, 300, None);
        let traced = storm(engine, 7, 300, Some(&collector));
        assert!(plain.ops > 0, "{}: no power cut in the cell", engine.name());
        assert_eq!(plain.failed, 0, "{}", engine.name());
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: sim_digest moved under the decorators",
            engine.name()
        );
        // ... and the decorators did see the cell: every transaction, every
        // recovery.
        let cell = &collector.cells_of("crash_storm")[0];
        assert!(!collector.cells_of("crash_storm").is_empty());
        assert!(cell.total(Call::RunTxn).count > 0);
    }
    let recoveries: u64 = collector
        .cells_of("crash_storm")
        .iter()
        .map(|c| c.total(Call::Recover).count)
        .sum();
    assert!(recoveries > 0);
}

#[test]
fn decorators_are_transparent_on_the_commit_and_occ_paths() {
    let collector = Collector::new();
    let trace = collector.cell("txn_stream", "SSP.SPS", "core", CLIENTS);
    let plain = stream_cell(
        "SSP.SPS",
        EngineKind::Ssp,
        WorkloadKind::Sps,
        3,
        2_000,
        None,
    );
    let traced = stream_cell(
        "SSP.SPS",
        EngineKind::Ssp,
        WorkloadKind::Sps,
        3,
        2_000,
        Some(&trace),
    );
    assert_eq!(plain.failed, 0);
    assert_eq!(plain.digest, traced.digest);
    // One bracket per warm-up or measured transaction, one body inside each.
    assert_eq!(
        trace.total(Call::Txn).count,
        2_000 + crate::workloads::WARMUP
    );
    assert_eq!(
        trace.total(Call::RunTxn).count,
        trace.total(Call::Txn).count
    );
    assert!(trace.total(Call::RunTxn).self_ns() <= trace.total(Call::RunTxn).total_ns);

    let trace = collector.cell("shared_occ", "epoch5k", "core", CLIENTS);
    let plain = shared_cell("epoch5k", 5_000, 3, 2_000, None);
    let traced = shared_cell("epoch5k", 5_000, 3, 2_000, Some(&trace));
    assert_eq!(plain.failed, 0);
    assert_eq!(plain.ops, 2_000);
    assert_eq!(plain.digest, traced.digest);
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let a = storm(EngineKind::Ssp, 11, 300, None);
    let b = storm(EngineKind::Ssp, 11, 300, None);
    let c = storm(EngineKind::Ssp, 12, 300, None);
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest);

    let cell = |seed| {
        stream_cell(
            "UNDO-LOG.SPS",
            EngineKind::Undo,
            WorkloadKind::Sps,
            seed,
            1_000,
            None,
        )
    };
    assert_eq!(cell(5).digest, cell(5).digest);
    assert_ne!(cell(5).digest, cell(6).digest);
}

/// A workload whose fifth transaction panics inside the driver's worker
/// thread.
#[derive(Clone)]
struct Bomb {
    inner: ssp_workloads::Sps,
    left: u32,
}

impl Workload for Bomb {
    fn name(&self) -> &'static str {
        "Bomb"
    }
    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        self.inner.setup(engine, core)
    }
    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
        assert!(self.left > 0, "bomb went off");
        self.left -= 1;
        self.inner.run_txn(engine, core, rng)
    }
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}

#[test]
fn a_panicking_cell_is_counted_as_failed_and_the_run_finishes() {
    let good = storm(EngineKind::Undo, 1, 100, None);
    let bad = guarded("bomb", "core", 100, || {
        let cfg = MachineConfig::default().shard_slice(CLIENTS);
        let rc = RunConfig {
            txns: 100,
            warmup: 0,
            threads: CLIENTS,
            seed: 1,
            mode: ExecMode::Threaded,
        };
        run_parallel(
            |_| AnyEngine::build(EngineKind::Undo, &cfg, &SspConfig::default()),
            |_| Bomb {
                inner: ssp_workloads::Sps::new(1024, ssp_workloads::KeyDist::uniform(1024)),
                left: 4,
            },
            &rc,
        );
        unreachable!("the driver propagates its worker's panic");
    });
    assert!(bad.panicked);
    assert_eq!((bad.attempted, bad.failed, bad.ops), (100, 100, 0));

    let rep = || RepOutcome {
        cells: vec![good.clone(), bad.clone()],
        ..RepOutcome::default()
    };
    let m = Measured::of("test", vec![rep(), rep(), rep()], 1.0);
    assert!(!m.ok());
    assert_eq!(m.attempted, 600);
    assert_eq!(m.failed, 300);
    assert_eq!(m.failed_ops_share(), 0.5);
    assert_eq!(m.panicked, vec!["bomb".to_string()]);
    // The good cell still has its rate.
    assert!(m.end_to_end()[0].median > 0.0);
}

#[test]
fn a_cell_whose_digest_drifts_fails_all_its_transactions() {
    let good = storm(EngineKind::Undo, 1, 100, None);
    let mut drifted = good.clone();
    drifted.digest ^= 1;
    let rep = |cell: &CellOutcome| RepOutcome {
        cells: vec![cell.clone()],
        ..RepOutcome::default()
    };
    let m = Measured::of("test", vec![rep(&good), rep(&good), rep(&drifted)], 1.0);
    assert!(!m.ok());
    assert_eq!(m.failed, 100);
    assert_eq!(m.drifted, vec![good.name.clone()]);
    assert!(Measured::of("test", vec![rep(&good), rep(&good)], 1.0).ok());
}

fn field<'a>(o: &'a Json, key: &str) -> &'a Json {
    o.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry without {key:?}"))
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    match field(doc, key) {
        Json::Arr(items) => items
            .iter()
            .map(|i| field(i, "name").as_str().expect("name").to_string())
            .collect(),
        other => panic!("{key} is not a list: {other:?}"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_binary_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    assert_eq!(names(&doc, "workloads"), WORKLOADS);

    assert_eq!(
        names(&doc, "end_to_end"),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    let Json::Arr(e2e) = field(&doc, "end_to_end") else {
        panic!("end_to_end")
    };
    for (entry, def) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "unit").as_str(), Some(def.unit));
        assert_eq!(field(entry, "better").as_str(), Some(def.better));
        assert_eq!(field(entry, "bound").as_f64(), Some(def.bound));
    }

    let defs = per_layer();
    assert_eq!(
        names(&doc, "per_layer"),
        defs.iter().map(|d| d.name.clone()).collect::<Vec<_>>()
    );
    let Json::Arr(layers) = field(&doc, "per_layer") else {
        panic!("per_layer")
    };
    for (entry, def) in layers.iter().zip(&defs) {
        assert_eq!(
            field(entry, "unit").as_str(),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            field(entry, "better").as_str(),
            Some(def.better),
            "{}",
            def.name
        );
    }
}

#[test]
fn the_result_line_is_one_json_object_with_exactly_the_contract_keys() {
    let line = contract_line(
        true,
        0,
        0,
        &[
            ("wall_s".to_string(), 3.25, "s"),
            ("tiny".to_string(), 1e-9, "s"),
        ],
    );
    assert!(!line.contains('\n'));
    let doc = Json::parse(&line).expect("valid JSON");
    let Json::Obj(pairs) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    // `attempted` is at least 1 whatever ran.
    assert_eq!(field(&doc, "attempted").as_f64(), Some(1.0));
    let wall = field(field(&doc, "metrics"), "wall_s");
    assert_eq!(field(wall, "value").as_f64(), Some(3.25));
    assert_eq!(field(wall, "unit").as_str(), Some("s"));
    assert_eq!(
        field(field(field(&doc, "metrics"), "tiny"), "value").as_f64(),
        Some(1e-9)
    );
}

// The two SSP storm failures ISSUE 11 found while sizing `crash_storm`,
// outside the workload's envelope (see README, "Known failures outside the
// envelope"). They assert the *failure*, so a later correctness fix turns
// them red and retires them:
// `cargo test --release --manifest-path benchmark/Cargo.toml -- --ignored`.

#[test]
#[ignore = "known SSP failure outside the benchmark envelope"]
fn known_failure_ssp_loses_transactions_at_a_4000_cycle_storm_period() {
    let cell = storm_cell("SSP.p4k", EngineKind::Ssp, 4_000, 1, 4_500, None);
    assert_eq!(cell.counters.storm.lost_txns, 819);
}

#[test]
#[ignore = "known SSP failure outside the benchmark envelope"]
fn known_failure_ssp_recovery_panics_at_8000_txns() {
    let cell = guarded("SSP.p16k", "core", 8_000, || {
        storm_cell("SSP.p16k", EngineKind::Ssp, 16_000, 1, 8_000, None)
    });
    assert!(
        cell.panicked,
        "update_mapping of unmapped page (crates/txn/src/vm.rs)"
    );
}
