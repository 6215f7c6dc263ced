//! The ported bench targets: every figure/table of the paper's Section 5
//! as a library function over one shared [`MatrixRunner`].
//!
//! Each target builds its cell grid, hands it to the runner (pooled
//! across host threads, deduplicated against cells other targets already
//! ran), prints the same plain-text tables the standalone bench binaries
//! always printed, and returns a [`BenchReport`] for the unified
//! `BENCH_<name>.json` pipeline. The thin `benches/*.rs` wrappers call
//! exactly one of these; the `bench_all` binary calls them all against a
//! single runner so memoized cells flow across targets.
//!
//! # Sweep gates
//!
//! A property of a whole sweep (not of one cell) is a pure
//! `gate(rows) -> Result<(), String>` over the emitted `sim` rows, beside
//! the target that emits them: [`fig5b::gate`] (saturation),
//! [`shared_conflicts::gate`] (conflict sweep), [`service_overload::gate`]
//! (overload / group commit / recovery). The target calls its gate before
//! it returns, so a violated gate fails `bench_all`; each gate's unit
//! test runs it over the committed baseline and over broken copies.

use crate::json::Json;
use crate::{BenchReport, MatrixRunner};

pub mod ablations;
pub mod crash_storm;
pub mod fig5;
pub mod fig5b;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod recovery;
pub mod scaling;
pub mod service_overload;
pub mod shared_conflicts;
pub mod table3;
pub mod table4;

/// Whether quick (CI smoke) mode is on — `SSP_BENCH_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("SSP_BENCH_QUICK").is_ok()
}

/// Integer field `key` of an emitted `sim` row, for the sweep gates.
fn row_u64(row: &Json, key: &str) -> Result<u64, String> {
    match row.get(key) {
        Some(Json::U64(v)) => Ok(*v),
        other => Err(format!(
            "row field `{key}`: expected an integer, found {other:?}"
        )),
    }
}

/// Whether string field `key` of an emitted `sim` row equals `value`.
fn row_is(row: &Json, key: &str, value: &str) -> bool {
    row.get(key).and_then(Json::as_str) == Some(value)
}

/// Runs every ported target against `runner` and writes each report.
/// Returns the reports in run order.
pub fn run_all(runner: &MatrixRunner) -> Vec<BenchReport> {
    let targets: [fn(&MatrixRunner) -> BenchReport; 14] = [
        fig5::run,
        fig6::run,
        fig7::run,
        fig8::run,
        fig9::run,
        table3::run,
        table4::run,
        fig5b::run,
        ablations::run,
        scaling::run,
        recovery::run,
        crash_storm::run,
        shared_conflicts::run,
        service_overload::run,
    ];
    targets
        .iter()
        .map(|target| {
            let report = target(runner);
            report.write();
            report
        })
        .collect()
}

/// Shared by the gate unit tests: the committed baseline's rows, and a
/// way to break one field of a copy.
#[cfg(test)]
mod gate_fixtures {
    use crate::json::Json;

    /// The `sim.<section>` array of a committed baseline document.
    pub fn baseline_rows(doc: &str, section: &str) -> Vec<Json> {
        let doc = Json::parse(doc).expect("committed baseline parses");
        match doc.get("sim").and_then(|sim| sim.get(section)) {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("sim.{section} is not an array: {other:?}"),
        }
    }

    /// Overwrites integer field `key` of `row`.
    pub fn put(row: &mut Json, key: &str, value: u64) {
        let Json::Obj(pairs) = row else {
            panic!("row is not an object")
        };
        let slot = pairs.iter_mut().find(|(k, _)| k == key);
        slot.unwrap_or_else(|| panic!("row has no field `{key}`")).1 = Json::U64(value);
    }

    /// `gate`'s error on `rows` with `key = value` written into the first
    /// row `pick` selects.
    pub fn broken(
        gate: fn(&[Json]) -> Result<(), String>,
        mut rows: Vec<Json>,
        pick: impl Fn(&Json) -> bool,
        (key, value): (&str, u64),
    ) -> String {
        let row = rows.iter_mut().find(|r| pick(r)).expect("row to break");
        put(row, key, value);
        gate(&rows).expect_err("a broken sweep must fail the gate")
    }
}
