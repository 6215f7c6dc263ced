//! The matrix runner's determinism contract: pooled execution over any
//! number of host threads, with the result memo on or off, is
//! **bit-identical** to per-cell sequential execution — merged counters
//! and per-shard NVRAM fingerprints included. The same discipline
//! `tests/threaded_equivalence.rs` applies to shards within one cell,
//! lifted to whole cells within one matrix.

use ssp_bench::{
    make_workload, AnyEngine, CellSpec, EngineKind, MatrixRunner, Scale, SspConfig, WorkloadKind,
};
use ssp_simulator::config::MachineConfig;
use ssp_txn::engine::TxnEngine;
use ssp_workloads::runner::{run_parallel, warm_single, ExecMode, RunConfig, RunResult};

fn run_cfg(threads: usize, mode: ExecMode) -> RunConfig {
    RunConfig {
        txns: 60,
        warmup: 12,
        threads,
        seed: 0x2019,
        mode,
    }
}

/// A grid covering both drivers, all thread counts under test and
/// duplicate cells (memo pressure).
fn grid(mode: ExecMode) -> Vec<CellSpec> {
    let cfg = MachineConfig::default().with_cores(4);
    let ssp = SspConfig::default();
    let mut specs = Vec::new();
    for ekind in [EngineKind::Ssp, EngineKind::Undo, EngineKind::Redo] {
        for threads in [1usize, 2, 4] {
            for wkind in [WorkloadKind::Sps, WorkloadKind::BTreeZipf] {
                specs.push(CellSpec::new(
                    ekind,
                    wkind,
                    &cfg,
                    &ssp,
                    Scale::SMOKE,
                    &run_cfg(threads, mode),
                ));
            }
        }
    }
    // Duplicates exercise the result memo; a shared-machine cell and a
    // forced-sharded one cover the remaining drivers.
    specs.push(specs[0].clone());
    specs.push(specs[7].clone());
    specs.push(
        CellSpec::new(
            EngineKind::Ssp,
            WorkloadKind::Memcached,
            &cfg,
            &ssp,
            Scale::SMOKE,
            &run_cfg(4, mode),
        )
        .shared_machine(),
    );
    specs.push(
        CellSpec::new(
            EngineKind::Undo,
            WorkloadKind::Sps,
            &cfg.shard_slice(4),
            &ssp,
            Scale::SMOKE,
            &run_cfg(1, mode),
        )
        .sharded(),
    );
    specs
}

/// The reference: every cell simulated, sequential, on the calling thread.
fn reference(specs: &[CellSpec]) -> Vec<RunResult> {
    let cold = MatrixRunner::with_pool(1).without_cache();
    cold.run(specs)
}

#[test]
fn pooled_cached_matches_cold_sequential() {
    let specs = grid(ExecMode::Threaded);
    let expected = reference(&specs);
    for pool in [1usize, 2, 4] {
        let runner = MatrixRunner::with_pool(pool);
        let got = runner.run(&specs);
        assert_eq!(got, expected, "pool={pool} cached");
        // Same runner again: now everything is memoized.
        let again = runner.run(&specs);
        assert_eq!(again, expected, "pool={pool} memoized");
    }
}

#[test]
fn pooled_uncached_matches_cold_sequential() {
    let specs = grid(ExecMode::Threaded);
    let expected = reference(&specs);
    let runner = MatrixRunner::with_pool(4).without_cache();
    assert_eq!(runner.run(&specs), expected, "pool=4 uncached");
}

#[test]
fn sequential_exec_mode_matches_threaded() {
    // ExecMode is a per-cell knob: the sharded driver's sequential
    // reference schedule must produce the identical results through the
    // matrix runner too.
    let threaded = MatrixRunner::with_pool(2).run(&grid(ExecMode::Threaded));
    let sequential = MatrixRunner::with_pool(1)
        .without_cache()
        .run(&grid(ExecMode::Sequential));
    assert_eq!(threaded, sequential);
}

#[test]
fn run_full_duplicates_return_identical_engines() {
    // `run_full` skips the memo, so a within-batch duplicate (the
    // `ablations` target submits three) is simulated again: results AND
    // per-shard persistent state must be bit-identical to its twin's.
    let cfg = MachineConfig::default().with_cores(4);
    let ssp = SspConfig::default();
    let mut specs = Vec::new();
    for threads in [1usize, 2, 4] {
        for _rep in 0..2 {
            specs.push(CellSpec::new(
                EngineKind::Ssp,
                WorkloadKind::Sps,
                &cfg,
                &ssp,
                Scale::SMOKE,
                &run_cfg(threads, ExecMode::Threaded),
            ));
        }
    }
    let runner = MatrixRunner::with_pool(2);
    let outs = runner.run_full(&specs);
    assert_eq!(runner.cache_stats(), (0, 0, specs.len() as u64));
    for (i, pair) in outs.chunks(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(a.result, b.result, "pair {i}");
        assert_eq!(a.engines.len(), specs[2 * i].run_cfg.threads, "pair {i}");
        assert_eq!(a.engines.len(), b.engines.len(), "pair {i}");
        for (shard, (ae, be)) in a.engines.iter().zip(&b.engines).enumerate() {
            assert_eq!(
                ae.machine().nvram_fingerprint(),
                be.machine().nvram_fingerprint(),
                "pair {i} shard {shard}"
            );
            assert_eq!(ae.txn_stats(), be.txn_stats(), "pair {i} shard {shard}");
        }
    }
}

#[test]
fn matrix_cells_match_direct_driver_calls() {
    // The runner's routing must reproduce the public drivers called
    // directly — legacy single-machine for one thread, sharded (machine
    // sliced, scale split per shard) otherwise — so the figures may not
    // shift and the runner is checked against something that is not the
    // runner.
    let cfg = MachineConfig::default().with_cores(2);
    let ssp = SspConfig::default();
    let mut specs = Vec::new();
    for ekind in EngineKind::PAPER {
        for threads in [1usize, 2] {
            specs.push(CellSpec::new(
                ekind,
                WorkloadKind::HashRand,
                &cfg,
                &ssp,
                Scale::SMOKE,
                &run_cfg(threads, ExecMode::Threaded),
            ));
        }
    }
    let results = MatrixRunner::with_pool(2).run(&specs);
    for (spec, got) in specs.iter().zip(&results) {
        let (rc, threads) = (&spec.run_cfg, spec.run_cfg.threads);
        let direct = if threads == 1 {
            let engine = AnyEngine::build(spec.engine, &cfg, &ssp);
            let workload = make_workload(spec.workload, spec.scale);
            warm_single(engine, workload, rc)
                .run_measured(rc.txns)
                .result
        } else {
            run_parallel(
                |w| AnyEngine::build(spec.engine, &cfg.shard_slice_for(threads, w), &ssp),
                |_w| make_workload(spec.workload, spec.scale.per_shard(threads)),
                rc,
            )
            .result
        };
        assert_eq!(got, &direct, "{:?}/{:?}", spec.engine, spec.workload);
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let specs = grid(ExecMode::Threaded);
    let a = MatrixRunner::with_pool(3).run(&specs);
    let b = MatrixRunner::with_pool(3).run(&specs);
    assert_eq!(a, b);
}
