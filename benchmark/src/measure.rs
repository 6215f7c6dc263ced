//! The untraced measurement of one workload: repetitions for the asked
//! number of seconds, medians over them, and the checks.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::{ratio, Summary, END_TO_END};
use crate::workloads::{run_rep, RepCfg, RepOutcome};

/// Fewest repetitions a measurement is made of, however short `--seconds`.
pub const MIN_REPS: usize = 3;

/// The measurement of one workload.
pub struct Measured {
    /// Workload name.
    pub workload: String,
    /// Every repetition, in run order.
    pub reps: Vec<RepOutcome>,
    /// `sim_digest` of the first repetition (all must equal it).
    pub digest: u64,
    /// Transactions requested over all repetitions.
    pub attempted: u64,
    /// Transactions failed: see [`Measured::of`].
    pub failed: u64,
    /// Cells whose digest changed between repetitions.
    pub drifted: Vec<String>,
    /// Cells that panicked in some repetition.
    pub panicked: Vec<String>,
    /// `VmHWM` of this process after its first repetition, in MB.
    pub peak_rss_mb: f64,
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats `workload` until `seconds` are used (at least [`MIN_REPS`]
/// times) and checks the repetitions against each other.
pub fn measure(workload: &str, seed: u64, seconds: f64) -> Measured {
    let cfg = RepCfg {
        seed,
        div: 1,
        trace: None,
    };
    let t0 = Instant::now();
    let mut reps: Vec<RepOutcome> = Vec::new();
    // Read after the first repetition, in a process that has done nothing
    // else: what one run of the workload needs. Over later repetitions the
    // high-water mark creeps up by however much freed memory the
    // allocator's per-thread arenas happened to retain — at the same seed
    // that is +-10 % from run to run on `shared_occ`, while the
    // first-repetition reading repeats within 0.3 %.
    let mut first_rep_peak = 0.0;
    loop {
        let t_rep = Instant::now();
        reps.push(run_rep(workload, cfg));
        if reps.len() == 1 {
            first_rep_peak = peak_rss_mb();
        }
        // Stop where the total lands closest to the budget: go on only if
        // half of another repetition still fits.
        let rep_s = t_rep.elapsed().as_secs_f64();
        if reps.len() >= MIN_REPS && t0.elapsed().as_secs_f64() + rep_s / 2.0 >= seconds {
            break;
        }
    }
    Measured::of(workload, reps, first_rep_peak)
}

impl Measured {
    /// Checks `reps` against each other and totals the failures: the
    /// failures every cell reported itself, plus every transaction of a
    /// cell whose `sim_digest` differs from the first repetition's (a
    /// deterministic simulator that stops repeating has failed, whatever it
    /// committed).
    pub fn of(workload: &str, reps: Vec<RepOutcome>, peak_rss_mb: f64) -> Self {
        let first = reps.first().expect("at least one repetition");
        let reference: BTreeMap<&str, u64> = first
            .cells
            .iter()
            .map(|c| (c.name.as_str(), c.digest))
            .collect();
        let (mut attempted, mut failed) = (0, 0);
        let (mut drifted, mut panicked) = (Vec::new(), Vec::new());
        for rep in &reps {
            for c in &rep.cells {
                attempted += c.attempted;
                if c.panicked {
                    panicked.push(c.name.clone());
                }
                if reference.get(c.name.as_str()) == Some(&c.digest) {
                    failed += c.failed;
                } else {
                    failed += c.attempted;
                    drifted.push(c.name.clone());
                }
            }
        }
        for names in [&mut drifted, &mut panicked] {
            names.sort();
            names.dedup();
        }
        Self {
            workload: workload.to_string(),
            digest: first.digest(),
            attempted,
            failed,
            drifted,
            panicked,
            peak_rss_mb,
            reps,
        }
    }

    /// Every repetition simulated the same thing and nothing failed.
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.drifted.is_empty() && self.panicked.is_empty()
    }

    /// failed ÷ attempted.
    pub fn failed_ops_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    fn over_reps(&self, f: impl Fn(&RepOutcome) -> f64) -> Summary {
        Summary::of(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// The end-to-end metrics in [`END_TO_END`] order: medians over the
    /// repetitions (`peak_rss_mb` is one reading of the whole process).
    pub fn end_to_end(&self) -> [Summary; END_TO_END.len()] {
        [
            self.over_reps(|r| ratio(r.ops() as f64, r.measured().as_secs_f64())),
            self.over_reps(|r| r.wall().as_secs_f64()),
            self.over_reps(|r| r.setup().as_secs_f64()),
            Summary::of(&[self.peak_rss_mb]),
        ]
    }

    /// Per-cell `host_ops_per_s` over the repetitions, in cell order.
    pub fn cell_rates(&self) -> Vec<(String, Summary)> {
        let first = &self.reps[0];
        (0..first.cells.len())
            .map(|i| {
                let rates: Vec<f64> = self
                    .reps
                    .iter()
                    .filter_map(|r| r.cells.get(i))
                    .map(|c| ratio(c.ops as f64, c.measured.as_secs_f64()))
                    .collect();
                (first.cells[i].name.clone(), Summary::of(&rates))
            })
            .collect()
    }
}
