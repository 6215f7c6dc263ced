//! Runs the full evaluation — every ported bench target — in one process
//! against a single shared [`MatrixRunner`], so the (engine × workload ×
//! threads) grid fans out over host threads and memoized cells flow
//! *across* targets (Figures 5a, 6, 7 and 9's baseline are
//! largely the same cells; standalone binaries re-simulate them, this
//! does not).
//!
//! ```text
//! SSP_BENCH_QUICK=1        smoke scale (CI)
//! SSP_BENCH_HOST_THREADS=N pool size (default: available parallelism)
//! SSP_BENCH_JSON_DIR=DIR   where BENCH_<name>.json land (default: .)
//! cargo run --release -p ssp-bench --bin bench_all [-- --trace out.json]
//! ```
//!
//! `--trace out.json` additionally records the Figure 5b shared-hierarchy
//! sweep with the observability ring enabled and writes the shard
//! timelines as Chrome trace-event JSON (load in `chrome://tracing`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ssp_bench::{targets, trace, MatrixRunner};

fn main() -> ExitCode {
    let mut trace_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => match args.next() {
                Some(p) => trace_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("usage: bench_all [--trace OUT.json]");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument {other}\nusage: bench_all [--trace OUT.json]");
                return ExitCode::from(2);
            }
        }
    }

    let t0 = Instant::now();
    let runner = MatrixRunner::new();
    let reports = targets::run_all(&runner);
    println!(
        "\n== bench_all: {} targets in {:.2} s ==",
        reports.len(),
        t0.elapsed().as_secs_f64()
    );
    println!("{}", runner.stats_line());

    if let Some(path) = trace_path {
        match trace::write_shared_sweep_trace(&path) {
            Ok(p) => println!("wrote chrome trace {}", p.display()),
            Err(e) => {
                eprintln!("could not write chrome trace {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}
