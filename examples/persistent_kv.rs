//! A persistent key-value store on three different failure-atomicity
//! engines.
//!
//! Builds the memcached-like LRU cache from `ssp-workloads` on SSP,
//! UNDO-LOG and REDO-LOG, drives the same memslap-style mix (90% SET)
//! against each, and compares throughput and NVRAM write traffic — a
//! miniature of the paper's Table 4/5 experiment.
//!
//! Run with: `cargo run --release --example persistent_kv`

use ssp::baselines::{RedoLog, UndoLog};
use ssp::core::engine::Ssp;
use ssp::simulator::config::MachineConfig;
use ssp::txn::engine::TxnEngine;
use ssp::workloads::runner::{warm_single, RunConfig};
use ssp::workloads::{KeyDist, MemcachedWorkload};
use ssp::SspConfig;

fn drive<E: TxnEngine>(engine: E) -> (f64, u64, u64) {
    let workload = MemcachedWorkload::new(KeyDist::paper_zipf(2048), 512);
    let cfg = RunConfig {
        txns: 1500,
        warmup: 200,
        threads: 4, // the paper's "four clients"
        seed: 42,
        ..RunConfig::default()
    };
    let result = warm_single(engine, Box::new(workload), &cfg)
        .run_measured(cfg.txns)
        .result;
    (result.tps, result.nvram_writes(), result.logging_writes())
}

fn main() {
    let cfg = MachineConfig::default();

    let (ssp_tps, ssp_writes, ssp_log) = drive(Ssp::new(cfg.clone(), SspConfig::default()));
    let (undo_tps, undo_writes, undo_log) = drive(UndoLog::new(cfg.clone()));
    let (redo_tps, redo_writes, redo_log) = drive(RedoLog::new(cfg));

    println!("Memcached-like KV cache, 4 clients, 90% SET, zipfian keys\n");
    println!(
        "{:<10} {:>12} {:>14} {:>14}",
        "engine", "kTPS", "NVRAM writes", "logging writes"
    );
    for (name, tps, writes, log) in [
        ("UNDO-LOG", undo_tps, undo_writes, undo_log),
        ("REDO-LOG", redo_tps, redo_writes, redo_log),
        ("SSP", ssp_tps, ssp_writes, ssp_log),
    ] {
        println!("{name:<10} {:>12.0} {writes:>14} {log:>14}", tps / 1000.0);
    }

    println!(
        "\nSSP throughput: {:+.0}% vs UNDO-LOG, {:+.0}% vs REDO-LOG",
        100.0 * (ssp_tps / undo_tps - 1.0),
        100.0 * (ssp_tps / redo_tps - 1.0),
    );
    println!(
        "SSP write saving: {:.0}% vs UNDO-LOG, {:.0}% vs REDO-LOG",
        100.0 * (1.0 - ssp_writes as f64 / undo_writes as f64),
        100.0 * (1.0 - ssp_writes as f64 / redo_writes as f64),
    );
}
