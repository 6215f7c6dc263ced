//! What a run prints and writes: the metric lines, the result document
//! with its provenance, and the one-line result of the driver contract.

use std::process::Command;

use ssp_bench::json::Json;

use crate::measure::Measured;
use crate::metrics::{per_layer, ratio, Summary, END_TO_END};
use crate::pass::{Pass, TRACE_DIV};
use crate::trace::{span_name, Agg, Call, Collector};
use crate::workloads::{op_name, CLIENTS, WORKLOADS};

/// Uniform factor on the transaction counts of ISSUE 11's prototype. The
/// re-measured sizes needed no rescaling.
pub const SCALE_FACTOR: f64 = 1.0;

/// How a result was made, so two result files can be compared without
/// guessing.
pub struct Provenance {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Host cores available to the process.
    pub nproc: usize,
    /// 1-minute load average when the run started.
    pub load_avg_1m: f64,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// Guard-rail warnings raised at start.
    pub warnings: Vec<String>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Provenance {
    /// Reads the host's state and raises the guard-rail warnings: fewer
    /// cores than clients, or a machine that is already busy.
    pub fn collect(seed: u64, seconds: f64) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let load_avg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        let mut warnings = Vec::new();
        if nproc < CLIENTS {
            warnings.push(format!(
                "nproc = {nproc} < {CLIENTS} clients: host times include time slicing"
            ));
        }
        if load_avg_1m > 1.0 {
            warnings.push(format!(
                "1-minute load average {load_avg_1m} > 1.0 at start: host times are contended"
            ));
        }
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        Self {
            seed,
            seconds,
            nproc,
            load_avg_1m,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            warnings,
        }
    }

    /// The provenance block of a result document.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("seed", Json::U64(self.seed));
        o.set("seconds", Json::F64(self.seconds));
        o.set("nproc", Json::U64(self.nproc as u64));
        o.set("clients", Json::U64(CLIENTS as u64));
        o.set("load_avg_1m", Json::F64(self.load_avg_1m));
        o.set("scale_factor", Json::F64(SCALE_FACTOR));
        o.set("trace_divisor", Json::U64(TRACE_DIV));
        o.set("build", Json::Str("release".into()));
        o.set("rustc", Json::Str(self.rustc.clone()));
        o.set("commit", Json::Str(self.commit.clone()));
        o.set(
            "warnings",
            Json::Arr(self.warnings.iter().cloned().map(Json::Str).collect()),
        );
        o
    }
}

/// `pass` or `fail`.
pub fn checks(ok: bool) -> &'static str {
    if ok {
        "pass"
    } else {
        "fail"
    }
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    let mut o = Json::obj();
    o.set("value", Json::F64(s.median));
    o.set("unit", Json::Str(unit.into()));
    o.set("min", Json::F64(s.min));
    o.set("max", Json::F64(s.max));
    o.set("n", Json::U64(s.n as u64));
    o
}

/// Prints every end-to-end metric of one measured workload by name, with
/// its unit, and the check verdict.
pub fn print_measured(m: &Measured) {
    println!(
        "\n== {} (seed-driven, {} repetitions, {CLIENTS} clients, op = {}) ==",
        m.workload,
        m.reps.len(),
        op_name(&m.workload)
    );
    for (s, def) in m.end_to_end().iter().zip(END_TO_END) {
        println!(
            "{} = {:.6} {}   (min {:.6}, max {:.6}, n = {}; {} is better, bound {:.0} %)",
            def.name,
            s.median,
            def.unit,
            s.min,
            s.max,
            s.n,
            def.better,
            def.bound * 100.0
        );
    }
    println!(
        "failed_ops_share = {} ratio   ({} failed of {} attempted)",
        m.failed_ops_share(),
        m.failed,
        m.attempted
    );
    println!("sim_digest = {:016x}", m.digest);
    for (cell, s) in m.cell_rates() {
        println!(
            "  cell {cell}: host_ops_per_s = {:.1} op/s   (min {:.1}, max {:.1})",
            s.median, s.min, s.max
        );
    }
    for cell in &m.drifted {
        println!("  cell {cell}: sim_digest differs between repetitions");
    }
    for cell in &m.panicked {
        println!("  cell {cell}: panicked");
    }
    println!("checks: {}", checks(m.ok()));
}

/// The result-document entry of one measured workload.
pub fn measured_json(m: &Measured) -> Json {
    let mut o = Json::obj();
    o.set("workload", Json::Str(m.workload.clone()));
    o.set("op", Json::Str(op_name(&m.workload).into()));
    o.set("repetitions", Json::U64(m.reps.len() as u64));
    o.set("checks", Json::Str(checks(m.ok()).into()));
    o.set("sim_digest", Json::Str(format!("{:016x}", m.digest)));
    o.set("attempted", Json::U64(m.attempted));
    o.set("failed", Json::U64(m.failed));
    o.set("failed_ops_share", Json::F64(m.failed_ops_share()));
    let mut e2e = Json::obj();
    for (s, def) in m.end_to_end().iter().zip(END_TO_END) {
        e2e.set(def.name, summary_json(s, def.unit));
    }
    o.set("end_to_end", e2e);
    let digests = &m.reps[0].cells;
    let cells = m
        .cell_rates()
        .iter()
        .zip(digests)
        .map(|((name, s), c)| {
            let mut cell = Json::obj();
            cell.set("cell", Json::Str(name.clone()));
            cell.set("host_ops_per_s", summary_json(s, "op/s"));
            cell.set("sim_digest", Json::Str(format!("{:016x}", c.digest)));
            cell.set("sim_cycles", Json::U64(c.counters.sim_cycles));
            let storm = &c.counters.storm;
            if storm.storms > 0 {
                cell.set("power_cuts", Json::U64(storm.storms));
                cell.set("torn_recoveries", Json::U64(storm.torn_recoveries));
                cell.set("lost_txns", Json::U64(storm.lost_txns));
            }
            cell
        })
        .collect();
    o.set("cells", Json::Arr(cells));
    o
}

/// Prints every per-layer metric by name with its unit, then the
/// per-layer table of the traced repetitions (self time = span minus
/// children).
pub fn print_pass(pass: &Pass, collector: &Collector) {
    println!(
        "\n== per-layer metrics (traced pass: every workload at 1/{TRACE_DIV}, plain and decorated, plus layer kernels) =="
    );
    for def in per_layer() {
        let v = pass.values.get(&def.name).unwrap_or(f64::NAN);
        println!(
            "{} = {v:.6} {}   ({} is better; source: {})",
            def.name, def.unit, def.better, def.source
        );
    }
    for w in WORKLOADS {
        println!("\n-- {w}: decorated calls, summed over cells and workers --");
        println!(
            "{:<34}{:>12}{:>14}{:>14}{:>12}",
            "layer.call", "count", "total ms", "self ms", "ns/call"
        );
        let mut rows: Vec<(String, Agg)> = Vec::new();
        for cell in collector.cells_of(w) {
            for call in Call::ALL {
                let a = cell.total(call);
                if a.count == 0 {
                    continue;
                }
                let name = span_name(cell.layer, call);
                match rows.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, agg)) => agg.merge(&a),
                    None => rows.push((name, a)),
                }
            }
        }
        for (name, a) in rows {
            println!(
                "{name:<34}{:>12}{:>14.3}{:>14.3}{:>12.1}",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns() as f64 / 1e6,
                a.total_ns as f64 / a.count as f64
            );
        }
    }
    for w in &pass.workloads {
        if !w.transparent() {
            println!(
                "{}: sim_digest differs with the decorators installed",
                w.workload
            );
        }
    }
    println!("traced pass checks: {}", checks(pass.ok()));
}

/// The result-document entry of the traced pass.
pub fn pass_json(pass: &Pass) -> Json {
    let mut o = Json::obj();
    o.set("checks", Json::Str(checks(pass.ok()).into()));
    o.set("attempted", Json::U64(pass.attempted()));
    o.set("failed", Json::U64(pass.failed()));
    let mut metrics = Json::obj();
    for def in per_layer() {
        let mut m = Json::obj();
        m.set(
            "value",
            Json::F64(pass.values.get(&def.name).unwrap_or(f64::NAN)),
        );
        m.set("unit", Json::Str(def.unit.into()));
        m.set("better", Json::Str(def.better.into()));
        m.set("source", Json::Str(def.source.into()));
        metrics.set(&def.name, m);
    }
    o.set("per_layer", metrics);
    o
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut by_name = Json::obj();
    for (name, value, unit) in metrics {
        let mut m = Json::obj();
        m.set("value", Json::F64(*value));
        m.set("unit", Json::Str(unit.to_string()));
        by_name.set(name, m);
    }
    let mut doc = Json::obj();
    doc.set("correct", Json::Bool(correct));
    doc.set("attempted", Json::U64(attempted.max(1)));
    doc.set("failed", Json::U64(failed));
    doc.set("metrics", by_name);
    // The renderer pretty-prints; names and units hold no white space, so
    // dropping the line breaks and indentation leaves the same document.
    doc.render().lines().map(str::trim).collect()
}

fn workload_entry<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    match doc.get("workloads")? {
        Json::Arr(entries) => entries
            .iter()
            .find(|e| e.get("workload").and_then(Json::as_str) == Some(workload)),
        _ => None,
    }
}

/// Compares two result documents of the same code: per workload and
/// end-to-end metric, whether the two medians agree within the metric's
/// bound, and whether the `sim_digest`s are equal. Returns whether all do.
pub fn compare(first: &Json, second: &Json) -> bool {
    let mut all_agree = true;
    for workload in WORKLOADS {
        let (Some(a), Some(b)) = (
            workload_entry(first, workload),
            workload_entry(second, workload),
        ) else {
            println!("{workload}: missing from one of the two results");
            all_agree = false;
            continue;
        };
        for def in END_TO_END {
            let median = |e: &Json| {
                e.get("end_to_end")?
                    .get(def.name)?
                    .get("value")
                    .and_then(Json::as_f64)
            };
            let (Some(x), Some(y)) = (median(a), median(b)) else {
                println!("{workload} {}: missing", def.name);
                all_agree = false;
                continue;
            };
            let delta = ratio(y - x, x);
            let agree = delta.abs() <= def.bound;
            all_agree &= agree;
            println!(
                "{workload:<13}{:<15} {x:>14.4} vs {y:>14.4} {:<5} {:>+7.2} %  within {:>2.0} %: {}",
                def.name,
                def.unit,
                delta * 100.0,
                def.bound * 100.0,
                if agree { "yes" } else { "NO" }
            );
        }
        let digest = |e: &Json| {
            e.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let same = digest(a).is_some() && digest(a) == digest(b);
        all_agree &= same;
        println!(
            "{workload:<13}sim_digest equal: {}",
            if same { "yes" } else { "NO" }
        );
    }
    all_agree
}
