//! The repo benchmark: four seeded host-time workloads over the crates'
//! public drivers, end-to-end and per-layer metrics measured from outside.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --seed <u64> [--workload <name>] [--seconds <n>] [--trace <0|1|out.json>] [--out <result.json>]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare <first.json> <second.json>
//! ```
//!
//! With `--workload` the named workload is measured in this process for
//! `--seconds` seconds and the last line of standard output is the
//! driver-contract result. Without it, every workload is measured in a
//! child process of its own (so `peak_rss_mb` is per workload). `--trace`
//! other than `0` adds the traced pass after the measurement; the
//! end-to-end metrics always come from the untraced repetitions.
//! See `benchmark/README.md`.

mod digest;
mod kernels;
mod measure;
mod metrics;
mod pass;
mod report;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ssp_bench::json::Json;

use crate::measure::{measure, Measured};
use crate::metrics::{per_layer, END_TO_END};
use crate::pass::{traced_pass, Pass};
use crate::report::{
    checks, compare, contract_line, measured_json, pass_json, print_measured, print_pass,
    Provenance,
};
use crate::trace::Collector;
use crate::workloads::WORKLOADS;

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: no traced pass. `Some(path)`: traced pass, spans to `path`.
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v:?}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds {v:?}: not a non-negative number"))?;
            }
            "--trace" => trace = Some(value()?),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed <u64> is required: the workloads' inputs are made from it")?;
    let trace = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => Some(results_dir().join(format!("trace-{seed}.json"))),
        Some(path) => Some(PathBuf::from(path)),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Runs the traced pass, prints its metrics and table, writes the span
/// file.
fn run_traced(seed: u64, spans_to: &Path) -> Result<Pass, String> {
    let collector = Collector::new();
    let pass = traced_pass(seed, &collector);
    print_pass(&pass, &collector);
    write_json(spans_to, &collector.to_json())?;
    Ok(pass)
}

fn result_doc(prov: &Provenance, workloads: Vec<Json>, pass: Option<&Pass>) -> Json {
    let mut doc = Json::obj();
    doc.set("schema_version", Json::U64(1));
    doc.set("provenance", prov.to_json());
    doc.set("workloads", Json::Arr(workloads));
    if let Some(p) = pass {
        doc.set("traced_pass", pass_json(p));
    }
    doc
}

/// One workload, in this process; ends with the driver-contract line.
fn run_one(args: &Args, workload: &str, prov: &Provenance) -> Result<bool, String> {
    let m: Measured = measure(workload, args.seed, args.seconds);
    print_measured(&m);
    let pass = args
        .trace
        .as_deref()
        .map(|spans_to| run_traced(args.seed, spans_to))
        .transpose()?;
    if let Some(out) = &args.out {
        write_json(
            out,
            &result_doc(prov, vec![measured_json(&m)], pass.as_ref()),
        )?;
    }

    let mut correct = m.ok();
    let (mut attempted, mut failed) = (m.attempted, m.failed);
    let metrics: Vec<(String, f64, &str)> = match &pass {
        // The traced run reports every per-layer metric ...
        Some(p) => {
            correct &= p.ok();
            attempted += p.attempted();
            failed += p.failed();
            per_layer()
                .into_iter()
                .map(|d| {
                    let v = p.values.get(&d.name).expect("checked by traced_pass");
                    (d.name, v, d.unit)
                })
                .collect()
        }
        // ... the untraced one every end-to-end metric.
        None => m
            .end_to_end()
            .into_iter()
            .zip(END_TO_END)
            .map(|(s, def)| (def.name.to_string(), s.median, def.unit))
            .collect(),
    };
    println!("checks: {}", checks(correct));
    println!("{}", contract_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Every workload, each measured in a child process of this binary so its
/// peak memory is its own; the traced pass, if asked for, runs here.
fn run_all(args: &Args, prov: &Provenance) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut docs = Vec::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let part = results_dir().join(format!(".part-{workload}-{}.json", std::process::id()));
        let status = Command::new(&exe)
            .args(["--workload", workload, "--trace", "0"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        correct &= status.success();
        let text = std::fs::read_to_string(&part);
        let _ = std::fs::remove_file(&part);
        let doc = Json::parse(&text.map_err(|e| format!("{workload} wrote no result: {e}"))?)?;
        match doc.get("workloads") {
            Some(Json::Arr(w)) => docs.extend(w.iter().cloned()),
            _ => return Err(format!("{workload}: result without workloads")),
        }
    }
    let pass = args
        .trace
        .as_deref()
        .map(|spans_to| run_traced(args.seed, spans_to))
        .transpose()?;
    correct &= pass.as_ref().map_or(true, Pass::ok);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join(format!("{}-{}.json", prov.commit, args.seed)));
    write_json(&out, &result_doc(prov, docs, pass.as_ref()))?;
    println!("checks: {}", checks(correct));
    Ok(correct)
}

/// `--compare`: do two result files of the same code agree within the
/// benchmark's own bounds?
fn compare_files(first: &Path, second: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(first), load(second)) {
        (Ok(a), Ok(b)) => {
            let agree = compare(&a, &b);
            println!(
                "two runs of the same code agree within the bounds: {}",
                if agree { "yes" } else { "NO" }
            );
            ExitCode::from(u8::from(!agree))
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::from(2);
    }
    // A CI shell must not silently shrink the run.
    std::env::remove_var("SSP_BENCH_QUICK");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, first, second] = argv.as_slice() {
        if flag == "--compare" {
            return compare_files(Path::new(first), Path::new(second));
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = Provenance::collect(args.seed, args.seconds);
    let verdict = match &args.workload {
        Some(w) => run_one(&args, w, &prov),
        None => run_all(&args, &prov),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
