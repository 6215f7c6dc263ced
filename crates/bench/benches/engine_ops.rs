//! Criterion micro-benchmarks of the simulator and engine primitives —
//! the host-side cost of the simulation itself (not the simulated cycles).

use criterion::Criterion;
use ssp_baselines::{RedoLog, UndoLog};
use ssp_core::engine::Ssp;
use ssp_core::SspConfig;
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_txn::engine::TxnEngine;

const C0: CoreId = CoreId::new(0);

fn bench_ssp_txn(c: &mut Criterion) {
    let mut engine = Ssp::new(MachineConfig::default(), SspConfig::default());
    let page = engine.map_new_page(C0).base();
    let mut i = 0u64;
    c.bench_function("ssp_small_txn", |b| {
        b.iter(|| {
            engine.begin(C0);
            engine.store(C0, page.add((i % 32) * 64), &i.to_le_bytes());
            engine.commit(C0);
            i += 1;
        })
    });
}

fn bench_undo_txn(c: &mut Criterion) {
    let mut engine = UndoLog::new(MachineConfig::default());
    let page = engine.map_new_page(C0).base();
    let mut i = 0u64;
    c.bench_function("undo_small_txn", |b| {
        b.iter(|| {
            engine.begin(C0);
            engine.store(C0, page.add((i % 32) * 64), &i.to_le_bytes());
            engine.commit(C0);
            i += 1;
        })
    });
}

fn bench_redo_txn(c: &mut Criterion) {
    let mut engine = RedoLog::new(MachineConfig::default());
    let page = engine.map_new_page(C0).base();
    let mut i = 0u64;
    c.bench_function("redo_small_txn", |b| {
        b.iter(|| {
            engine.begin(C0);
            engine.store(C0, page.add((i % 32) * 64), &i.to_le_bytes());
            engine.commit(C0);
            i += 1;
        })
    });
}

fn bench_ssp_load(c: &mut Criterion) {
    let mut engine = Ssp::new(MachineConfig::default(), SspConfig::default());
    let page = engine.map_new_page(C0).base();
    engine.begin(C0);
    for l in 0..32u64 {
        engine.store(C0, page.add(l * 64), &l.to_le_bytes());
    }
    engine.commit(C0);
    let mut buf = [0u8; 8];
    let mut i = 0u64;
    c.bench_function("ssp_cached_load", |b| {
        b.iter(|| {
            engine.load(C0, page.add((i % 32) * 64), &mut buf);
            i += 1;
        })
    });
}

fn bench_recovery(c: &mut Criterion) {
    c.bench_function("ssp_crash_recover", |b| {
        let mut engine = Ssp::new(MachineConfig::default(), SspConfig::default());
        let page = engine.map_new_page(C0).base();
        engine.begin(C0);
        engine.store(C0, page, &1u64.to_le_bytes());
        engine.commit(C0);
        b.iter(|| {
            engine.crash_and_recover();
        })
    });
}

fn main() {
    let mut c = Criterion::default();
    bench_ssp_txn(&mut c);
    bench_undo_txn(&mut c);
    bench_redo_txn(&mut c);
    bench_ssp_load(&mut c);
    bench_recovery(&mut c);

    // Host-side microbenchmark times are pure wall-clock — everything
    // lands in the report's warn-only `host` section, so the regression
    // gate never fails on them (there is no deterministic counter here).
    // `ns_per_iter` keeps the historical mean; `stats` adds the shim's
    // median/min so the tracked numbers resist scheduler noise.
    let mut report = ssp_bench::BenchReport::new("engine_ops", ssp_bench::targets::quick_mode());
    let mut rows = ssp_bench::json::Json::obj();
    let mut stat_rows = ssp_bench::json::Json::obj();
    for (name, stats) in c.results() {
        rows.set(name, ssp_bench::json::Json::F64(stats.mean_ns));
        let mut entry = ssp_bench::json::Json::obj();
        entry.set("mean_ns", ssp_bench::json::Json::F64(stats.mean_ns));
        entry.set("median_ns", ssp_bench::json::Json::F64(stats.median_ns));
        entry.set("min_ns", ssp_bench::json::Json::F64(stats.min_ns));
        entry.set("iters", ssp_bench::json::Json::U64(stats.iters));
        stat_rows.set(name, entry);
    }
    report.host("ns_per_iter", rows);
    report.host("stats", stat_rows);
    report.write();
}
