//! Service mode: a deterministic always-on front end over the engines —
//! open-loop arrivals, bounded queues, admission control, deadlines with
//! bounded retry, group commit, and recovery-under-fire.
//!
//! The closed-loop drivers ([`run_parallel`](crate::runner::run_parallel),
//! [`run_shared`](crate::shared::run_shared)) issue the next transaction
//! the instant the previous one returns, so they can never overload. This
//! driver instead models a serving system: a seeded arrival schedule in
//! *virtual time* deposits requests whether or not the engine keeps up,
//! and the front end has to degrade gracefully instead of falling over:
//!
//! * **Arrivals** are generated per worker from the run seed before the
//!   measured phase starts — uniform, bursty, or diurnal-step
//!   inter-arrival shapes ([`ArrivalShape`]), jittered from a dedicated
//!   RNG stream. The schedule is a pure function of (seed, worker,
//!   shape, period), so it is identical in both execution modes.
//! * **Admission control** guards a bounded per-shard FIFO queue:
//!   drop-tail, deadline-aware shedding (refuse requests whose predicted
//!   queue wait already exceeds their deadline, using a deterministic
//!   integer EWMA of per-request service cycles), or a depth-threshold
//!   backpressure policy ([`AdmissionPolicy`]).
//! * **Deadlines**: a request that waited past its deadline is expired
//!   at dispatch instead of served. Requests torn out of a cut group
//!   commit are retried after a deterministic bounded-exponential
//!   backoff ([`BackoffPolicy`]), at most [`ServiceConfig::max_attempts`]
//!   times; exhausted retries are shed.
//! * **Group commit**: up to [`ServiceConfig::group`] admitted requests
//!   execute inside ONE engine transaction (begin, bodies, commit), so
//!   the commit-time journal flush and metadata persistence are paid
//!   once per group. The NVRAM-write and cycles/request savings are
//!   measured per engine by the `service_overload` bench target.
//! * **Recovery-under-fire**: an optional [`StormSchedule`] arms power
//!   cuts exactly like the crash-storm driver. A cut tears the whole
//!   in-flight group (group commit is all-or-nothing — the engines'
//!   commit guarantee), resolved against dual byte-oracle candidates
//!   (group dropped vs group kept). Arrivals keep accruing while
//!   recovery replays, so the backlog is shed/served by the normal
//!   admission path afterwards; the recovery time is reported as the
//!   shard's unavailability window.
//!
//! # Accounting contract
//!
//! Every arrival ends in exactly one terminal state, and the counters
//! conserve exactly at any step boundary:
//!
//! ```text
//! arrivals == served + shed + expired + in_queue
//! shed     == shed_admission + shed_retry
//! ```
//!
//! # Determinism contract
//!
//! Workers are independent (own engine, machine shard, workload
//! partition, RNG streams; the interconnect must be disabled), and every
//! scheduling decision reads only the shard's virtual clock — so
//! [`ExecMode::Threaded`], [`ExecMode::Sequential`] and repeated runs are
//! bit-identical: served/shed/expired/retry counts, latency histograms,
//! queue-drain curves, and post-recovery NVRAM fingerprints
//! (`tests/service_mode.rs`).
//!
//! [`ExecMode::Threaded`]: crate::runner::ExecMode::Threaded
//! [`ExecMode::Sequential`]: crate::runner::ExecMode::Sequential

use std::collections::VecDeque;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssp_simulator::obs::{LatencyStats, ObsKind};
use ssp_simulator::stats::MachineStats;
use ssp_txn::engine::{TxnEngine, TxnStats};
use ssp_txn::occ::BackoffPolicy;

use crate::kernel::{drive, Solo};
use crate::runner::{
    worker_seed, worker_share, MeasuredShard, RunConfig, RunResult, ShardBase, Workload, SHARD_CORE,
};
use crate::storm::{OracleEngine, RecoveryCost, Storm, StormSchedule, Torn};

/// Inter-arrival shape of the open-loop generator. All shapes have the
/// same mean inter-arrival time ([`ServiceConfig::period_cycles`]); they
/// differ in how arrivals clump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Evenly spaced arrivals (jitter only).
    Uniform,
    /// Clumps of `burst` arrivals a quarter-period apart, then an idle
    /// gap restoring the mean rate.
    Bursty {
        /// Arrivals per clump.
        burst: u32,
    },
    /// Alternating blocks of `block` arrivals at half-period (peak) and
    /// one-and-a-half-period (trough) spacing — a stepped diurnal curve.
    DiurnalStep {
        /// Arrivals per rate step.
        block: u32,
    },
}

/// Admission policy guarding the bounded per-shard request queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit until the queue is full; shed the newest arrival.
    DropTail,
    /// Drop-tail, plus: shed an arrival whose *predicted* queue wait
    /// (queue depth × EWMA service cycles) already exceeds its deadline
    /// — don't queue work that is doomed to expire.
    DeadlineShed,
    /// Shed once the queue depth reaches `threshold` (< capacity):
    /// explicit backpressure before the queue is physically full.
    Backpressure {
        /// Queue depth at which arrivals are refused.
        threshold: usize,
    },
}

/// Knobs of the service front end.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Arrival shape (see [`ArrivalShape`]).
    pub shape: ArrivalShape,
    /// Mean inter-arrival time per worker, in cycles. Smaller = hotter.
    pub period_cycles: u64,
    /// Bounded queue capacity per shard.
    pub queue_capacity: usize,
    /// Admission policy (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Per-request deadline, in cycles from its scheduled arrival.
    pub deadline_cycles: u64,
    /// Maximum re-execution attempts for a request torn out of a cut
    /// group (0 = never retry); exhausted retries are shed.
    pub max_attempts: u32,
    /// Deterministic backoff before each retry becomes dispatchable.
    pub backoff: BackoffPolicy,
    /// Group-commit size: requests batched into one engine transaction.
    pub group: usize,
    /// Optional crash schedule — power cuts under open-loop load.
    pub storm: Option<StormSchedule>,
    /// Sample the queue-drain curve every this many group commits.
    pub curve_stride: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shape: ArrivalShape::Uniform,
            period_cycles: 2_000,
            queue_capacity: 64,
            admission: AdmissionPolicy::DropTail,
            deadline_cycles: 50_000,
            max_attempts: 8,
            backoff: BackoffPolicy::default(),
            group: 4,
            storm: None,
            curve_stride: 8,
        }
    }
}

/// Outcome counters of a service run (per shard, and merged in worker
/// order). Conservation: `arrivals == served + shed + expired +
/// in_queue` and `shed == shed_admission + shed_retry`, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests deposited by the arrival schedule.
    pub arrivals: u64,
    /// Arrivals admitted to the queue.
    pub admitted: u64,
    /// Requests served to completion (committed durably).
    pub served: u64,
    /// Requests shed (admission refusals + exhausted retries).
    pub shed: u64,
    /// Shed at admission by the policy.
    pub shed_admission: u64,
    /// Shed after exhausting their retry budget.
    pub shed_retry: u64,
    /// Requests whose deadline passed before dispatch.
    pub expired: u64,
    /// Re-executions of requests torn out of a cut group.
    pub retried: u64,
    /// Total backoff-wait cycles scheduled before retries.
    pub backoff_cycles: u64,
    /// Group commits issued (= journal-flush batches).
    pub groups: u64,
    /// Power cuts that tripped.
    pub storms: u64,
    /// Cut groups rolled back whole by recovery (requests retried).
    pub torn_dropped: u64,
    /// Cut groups whose commit mark beat the freeze (requests served).
    pub torn_kept: u64,
    /// Committed requests lost or corrupted — must be 0.
    pub lost: u64,
    /// Cycles spent in recovery replay (the unavailability window;
    /// summed over storms and, in merged stats, over shards).
    pub unavailability_cycles: u64,
    /// High-water re-execution attempt any request needed.
    pub max_attempt: u64,
    /// High-water queue depth (main queue + waiting retries).
    pub queue_peak: u64,
    /// Requests still queued when the run stopped (0 after a drain).
    pub in_queue: u64,
}

impl ServiceStats {
    /// Folds another shard's counters in (worker-index order in the
    /// drivers, so merged results are schedule-independent).
    pub fn merge(&mut self, o: &ServiceStats) {
        self.arrivals += o.arrivals;
        self.admitted += o.admitted;
        self.served += o.served;
        self.shed += o.shed;
        self.shed_admission += o.shed_admission;
        self.shed_retry += o.shed_retry;
        self.expired += o.expired;
        self.retried += o.retried;
        self.backoff_cycles += o.backoff_cycles;
        self.groups += o.groups;
        self.storms += o.storms;
        self.torn_dropped += o.torn_dropped;
        self.torn_kept += o.torn_kept;
        self.lost += o.lost;
        self.unavailability_cycles += o.unavailability_cycles;
        self.max_attempt = self.max_attempt.max(o.max_attempt);
        self.queue_peak = self.queue_peak.max(o.queue_peak);
        self.in_queue += o.in_queue;
    }

    /// The exact conservation identity (`true` at every step boundary).
    pub fn conserves(&self) -> bool {
        self.arrivals == self.served + self.shed + self.expired + self.in_queue
            && self.shed == self.shed_admission + self.shed_retry
    }

    /// Shed fraction of all arrivals, in basis points (integer, exact).
    pub fn shed_rate_bp(&self) -> u64 {
        (self.shed * 10_000).checked_div(self.arrivals).unwrap_or(0)
    }
}

/// One sample of the queue-drain / goodput curve, in virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainPoint {
    /// Service time (cycles) of the sample.
    pub at: u64,
    /// Queue depth (main queue + waiting retries) at the sample.
    pub queue_depth: u64,
    /// Cumulative served requests.
    pub served: u64,
    /// Cumulative shed requests.
    pub shed: u64,
}

/// One worker's share of a service run.
#[derive(Debug)]
pub struct ServiceShardRun<E> {
    /// The worker's engine after the final quiesce (crash + recover).
    pub engine: E,
    /// Worker index.
    pub worker: usize,
    /// Requests this worker served.
    pub txns: u64,
    /// Service time of the run on this shard (cycles; spans power
    /// segments, includes recovery windows, excludes oracle checks).
    pub elapsed_cycles: u64,
    /// Measured-phase machine counters.
    pub stats: MachineStats,
    /// Measured-phase transaction statistics.
    pub txn_stats: TxnStats,
    /// Measured-phase latency histograms: `begin` = queue wait, `exec` =
    /// request body, `commit` = group commit, `txn` = arrival → durable
    /// completion sojourn.
    pub latency: LatencyStats,
    /// Measured-phase service counters.
    pub service: ServiceStats,
    /// Queue-drain / goodput curve samples, in virtual-time order.
    pub curve: Vec<DrainPoint>,
    /// NVRAM fingerprint of the final durable state (at the final
    /// power-off, before the last recovery).
    pub fingerprint: u64,
}

impl<E> MeasuredShard for ServiceShardRun<E> {
    fn measured(&self) -> (u64, &MachineStats, &TxnStats, &LatencyStats) {
        (
            self.elapsed_cycles,
            &self.stats,
            &self.txn_stats,
            &self.latency,
        )
    }
}

/// Result of a [`run_service`] run.
#[derive(Debug)]
pub struct ServiceRun<E> {
    /// Merged measurements (deterministic across modes and repeats);
    /// `txns` counts served requests.
    pub result: RunResult,
    /// Merged service counters.
    pub service: ServiceStats,
    /// Per-worker results in worker-index order.
    pub shards: Vec<ServiceShardRun<E>>,
    /// Host wall-clock of the measured phase (not deterministic).
    pub host_elapsed: Duration,
}

/// A queued request: schedule-time arrival stamp, retry state, and (for
/// retries) the RNG snapshot its body replays from.
#[derive(Debug, Clone)]
struct Request {
    /// Scheduled arrival, in service time.
    arrival: u64,
    /// Re-execution attempts so far (0 = fresh).
    attempt: u32,
    /// Earliest service time this request may dispatch (backoff).
    ready_at: u64,
    /// `None` = fresh (runs off the worker's main RNG stream); `Some` =
    /// the pre-body snapshot a retry replays from.
    rng: Option<SmallRng>,
}

/// Deterministic EWMA seed for per-request service cycles (the
/// deadline-shed predictor before the first group completes).
const EST_SERVICE_INIT: u64 = 1_000;

/// Builds one worker's arrival schedule: absolute service times,
/// ascending, mean spacing `period_cycles`, ±25% seeded jitter. A pure
/// function of (seed, worker, shape, period, count).
fn build_arrivals(seed: u64, w: usize, svc: &ServiceConfig, count: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(worker_seed(seed ^ 0xA221_07A1_5EED_0CA5, w));
    let p = svc.period_cycles.max(8);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        let base = match svc.shape {
            ArrivalShape::Uniform => p,
            ArrivalShape::Bursty { burst } => {
                let b = burst.max(2) as u64;
                if i % b == b - 1 {
                    // The idle gap closing each clump restores the mean.
                    p * b - (b - 1) * (p / 4)
                } else {
                    p / 4
                }
            }
            ArrivalShape::DiurnalStep { block } => {
                let b = block.max(1) as u64;
                if (i / b) % 2 == 0 {
                    p / 2
                } else {
                    p + p / 2
                }
            }
        };
        // Jitter in [0, base/4], mean base/8, re-centered so the mean
        // gap stays `base`.
        let jitter = rng.gen_range(0..base / 4 + 1);
        let gap = (base - base / 8 + jitter).max(1);
        t += gap;
        out.push(t);
    }
    out
}

/// Per-worker service state: engine (oracle-wrapped), workload, arrival
/// cursor, bounded queue, retry queue, and the accumulating counters.
struct ServiceWorker<E, W> {
    engine: OracleEngine<E>,
    workload: W,
    rng: SmallRng,
    cfg: ServiceConfig,
    arrivals: Vec<u64>,
    next_arrival: usize,
    queue: VecDeque<Request>,
    /// Torn requests waiting out their backoff, FIFO by re-queue order.
    retryq: VecDeque<Request>,
    service: ServiceStats,
    lat: LatencyStats,
    curve: Vec<DrainPoint>,
    /// EWMA of per-request service cycles (deadline-shed predictor).
    est_service: u64,
    /// The storm schedule's cursor, the record of its cuts, and the
    /// service clock across power segments.
    cuts: Storm,
    w: usize,
}

impl<E: TxnEngine, W: Workload> ServiceWorker<E, W> {
    fn new(engine: E, workload: W, cfg: &RunConfig, svc: &ServiceConfig, w: usize) -> Self {
        let count = worker_share(cfg.txns, cfg.threads, w);
        Self {
            engine: OracleEngine::new(engine),
            workload,
            rng: SmallRng::seed_from_u64(worker_seed(cfg.seed, w)),
            cfg: svc.clone(),
            arrivals: build_arrivals(cfg.seed, w, svc, count),
            next_arrival: 0,
            queue: VecDeque::new(),
            retryq: VecDeque::new(),
            service: ServiceStats::default(),
            lat: LatencyStats::default(),
            curve: Vec::new(),
            est_service: EST_SERVICE_INIT,
            cuts: Storm::new(svc.storm.clone(), w),
            w,
        }
    }

    /// Current service time: accumulated previous power segments and
    /// recovery windows plus the live segment's clock span.
    fn now(&self) -> u64 {
        self.cuts.elapsed(self.engine.machine())
    }

    /// Setup + closed-loop warm-up (excluded from every counter), then
    /// the measured-phase baseline. The arrival schedule is relative to
    /// the phase start.
    fn prepare(&mut self, warmup: u64) -> ShardBase {
        self.workload.setup(&mut self.engine, SHARD_CORE);
        for _ in 0..warmup {
            self.engine.begin(SHARD_CORE);
            self.workload
                .run_txn(&mut self.engine, SHARD_CORE, &mut self.rng);
            self.engine.commit(SHARD_CORE);
        }
        self.engine.machine_mut().discard_mem_events();
        self.cuts.power_on(&mut self.engine);
        ShardBase::snapshot(&self.engine, 1)
    }

    fn depth(&self) -> u64 {
        (self.queue.len() + self.retryq.len()) as u64
    }

    /// Admits every arrival due at the current service time, applying
    /// the admission policy in schedule order.
    fn admit_due(&mut self) {
        let now = self.now();
        while let Some(&t) = self.arrivals.get(self.next_arrival) {
            if t > now {
                break;
            }
            self.next_arrival += 1;
            self.service.arrivals += 1;
            let depth = self.depth();
            let admit = match self.cfg.admission {
                AdmissionPolicy::DropTail => self.queue.len() < self.cfg.queue_capacity,
                AdmissionPolicy::Backpressure { threshold } => {
                    self.queue.len() < self.cfg.queue_capacity.min(threshold)
                }
                AdmissionPolicy::DeadlineShed => {
                    self.queue.len() < self.cfg.queue_capacity
                        && depth * self.est_service <= self.cfg.deadline_cycles
                }
            };
            if admit {
                self.queue.push_back(Request {
                    arrival: t,
                    attempt: 0,
                    ready_at: t,
                    rng: None,
                });
                self.service.admitted += 1;
                let depth = self.depth();
                self.service.queue_peak = self.service.queue_peak.max(depth);
                self.engine
                    .machine_mut()
                    .obs_record(ObsKind::SvcEnqueue, depth);
            } else {
                self.service.shed += 1;
                self.service.shed_admission += 1;
                self.engine
                    .machine_mut()
                    .obs_record(ObsKind::SvcShed, depth);
            }
        }
    }

    /// Pops the next dispatchable request: ready retries first (FIFO),
    /// then the main queue.
    fn pop_dispatchable(&mut self, now: u64) -> Option<Request> {
        if let Some(front) = self.retryq.front() {
            if front.ready_at <= now {
                return self.retryq.pop_front();
            }
        }
        self.queue.pop_front()
    }

    /// Service time of the next schedulable event while idle: the next
    /// arrival or the earliest retry becoming ready.
    fn next_event(&self) -> Option<u64> {
        let arrival = self.arrivals.get(self.next_arrival).copied();
        let retry = self.retryq.iter().map(|r| r.ready_at).min();
        match (arrival, retry) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        }
    }

    /// One scheduling step: admit due arrivals, then serve one group or
    /// idle-advance to the next event. Returns `false` once fully
    /// drained (no arrivals, queue and retry queue empty).
    fn step(&mut self) -> bool {
        self.admit_due();
        let now = self.now();
        let dispatchable =
            !self.queue.is_empty() || self.retryq.front().is_some_and(|r| r.ready_at <= now);
        if dispatchable {
            self.serve_group();
            return true;
        }
        match self.next_event() {
            Some(at) => {
                // Idle: advance the shard's clock to the event. The gap
                // is real service time (an armed AtCycle cut can land in
                // it — a crash on an idle shard).
                let gap = at.saturating_sub(now).max(1);
                self.engine.machine_mut().add_cycles(SHARD_CORE, gap);
                if self.engine.machine().power_lost() {
                    self.storm_dance(Vec::new());
                }
                true
            }
            None => false,
        }
    }

    /// Assembles and executes one group commit: up to `group` requests
    /// inside one engine transaction — one journal flush for the batch.
    fn serve_group(&mut self) {
        let start_now = self.now();
        let deadline = self.cfg.deadline_cycles;
        let mut batch: Vec<Request> = Vec::new();
        while batch.len() < self.cfg.group.max(1) {
            let Some(req) = self.pop_dispatchable(start_now) else {
                break;
            };
            if start_now >= req.arrival + deadline {
                self.service.expired += 1;
                self.engine
                    .machine_mut()
                    .obs_record(ObsKind::SvcExpire, start_now - (req.arrival + deadline));
                continue;
            }
            if req.attempt > 0 {
                self.service.retried += 1;
                self.service.max_attempt = self.service.max_attempt.max(req.attempt as u64);
            }
            batch.push(req);
        }
        if batch.is_empty() {
            return;
        }

        let c0 = self.engine.machine().cycles(SHARD_CORE);
        self.engine.begin(SHARD_CORE);
        let mut exec_cycles = Vec::with_capacity(batch.len());
        for req in batch.iter_mut() {
            // Fresh requests run off (and advance) the main stream;
            // retries replay their snapshot without touching it. Either
            // way the request keeps a snapshot for a possible retry.
            let snap = match req.rng.take() {
                Some(r) => r,
                None => self.rng.clone(),
            };
            let mut run_rng = snap.clone();
            let e0 = self.engine.machine().cycles(SHARD_CORE);
            self.workload
                .run_txn(&mut self.engine, SHARD_CORE, &mut run_rng);
            let e1 = self.engine.machine().cycles(SHARD_CORE);
            if req.attempt == 0 {
                self.rng = run_rng;
            }
            req.rng = Some(snap);
            exec_cycles.push(e1 - e0);
        }
        let c1 = self.engine.machine().cycles(SHARD_CORE);
        self.engine.commit(SHARD_CORE);
        let c2 = self.engine.machine().cycles(SHARD_CORE);
        self.service.groups += 1;
        self.engine
            .machine_mut()
            .obs_record(ObsKind::SvcFlush, batch.len() as u64);
        // Deterministic integer EWMA of per-request service cycles.
        let per_req = (c2 - c0) / batch.len() as u64;
        self.est_service = (self.est_service * 7 + per_req) / 8;

        if self.engine.machine().power_lost() {
            self.storm_dance(batch);
        } else {
            self.engine.oracle_mut().on_commit(SHARD_CORE);
            let done_now = self.now();
            self.lat.commit.record(c2 - c1);
            for (req, exec) in batch.iter().zip(exec_cycles) {
                self.service.served += 1;
                self.lat.begin.record(start_now.saturating_sub(req.arrival));
                self.lat.exec.record(exec);
                self.lat.txn.record(done_now.saturating_sub(req.arrival));
            }
        }
        if self.service.groups % self.cfg.curve_stride.max(1) == 0 {
            self.sample_curve();
        }
    }

    fn sample_curve(&mut self) {
        self.curve.push(DrainPoint {
            at: self.now(),
            queue_depth: self.depth(),
            served: self.service.served,
            shed: self.service.shed,
        });
    }

    /// The full storm sequence after a power cut: crash, recovery
    /// (possibly itself cut), dual-candidate resolution of the in-flight
    /// group, retry scheduling for a dropped group, re-arm. `batch` is
    /// empty for cuts landing on an idle shard.
    fn storm_dance(&mut self, batch: Vec<Request>) {
        // Group commit is all-or-nothing: the whole batch either rolled
        // back or its commit mark beat the freeze. `recover()` itself
        // does not advance the core clock, so each pass's estimated
        // latency is charged to it — arrivals keep accruing through the
        // outage, and the storm sequence counts what each pass was
        // charged (a recovery that was itself cut included) as service
        // time, but not the oracle verification after it: `now()`
        // resumes at the post-recovery instant. The next point is armed
        // where recovery ends.
        let service = &mut self.service;
        let in_flight = !batch.is_empty();
        let pass = |engine: &mut OracleEngine<E>, cost: RecoveryCost, _cut| {
            engine.machine_mut().add_cycles(SHARD_CORE, cost.cycles_est);
            service.unavailability_cycles += cost.cycles_est;
        };
        let group_kept = self.cuts.recover(&mut self.engine, in_flight, pass) == Torn::Kept;

        let done_now = self.now();
        for req in batch {
            if group_kept {
                self.service.served += 1;
                self.lat.txn.record(done_now.saturating_sub(req.arrival));
            } else if req.attempt + 1 > self.cfg.max_attempts {
                self.service.shed += 1;
                self.service.shed_retry += 1;
                let depth = self.depth();
                self.engine
                    .machine_mut()
                    .obs_record(ObsKind::SvcShed, depth);
            } else {
                let attempt = req.attempt + 1;
                let delay = self.cfg.backoff.delay(attempt);
                self.service.backoff_cycles += delay;
                self.retryq.push_back(Request {
                    ready_at: done_now + delay,
                    attempt,
                    ..req
                });
                self.service.queue_peak = self.service.queue_peak.max(self.depth());
            }
        }
        self.sample_curve();
    }

    /// Final quiesce after the drain: snapshot the measured counters,
    /// then power off, fingerprint the durable image, recover, and
    /// verify the oracle one last time.
    fn finish(mut self, base: ShardBase) -> ServiceShardRun<E> {
        debug_assert!(self.queue.is_empty() && self.retryq.is_empty());
        self.service.in_queue = self.depth();
        let elapsed_cycles = self.now();
        let (stats, txn_stats) = base.measured(&self.engine);
        self.sample_curve();

        let cuts = self.cuts.finish(&mut self.engine);
        self.engine.machine_mut().discard_mem_events();
        ServiceShardRun {
            worker: self.w,
            txns: self.service.served,
            elapsed_cycles,
            stats,
            txn_stats,
            latency: self.lat,
            service: ServiceStats {
                storms: cuts.storms,
                torn_dropped: cuts.torn_txns,
                torn_kept: cuts.kept_torn_txns,
                lost: cuts.lost_txns,
                ..self.service
            },
            curve: self.curve,
            fingerprint: cuts.fingerprint,
            engine: self.engine.into_inner(),
        }
    }
}

/// Runs the service front end over `cfg.threads` independent workers
/// (see the module docs for the model and contracts). `cfg.txns` is the
/// total number of *arrivals* (split across workers); `cfg.warmup`
/// closed-loop transactions warm each shard outside the measurement.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero, a worker thread panics, or the
/// machine config enables the interconnect (service workers are
/// independent shards, like [`run_storm`](crate::storm::run_storm)).
pub fn run_service<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
    svc: &ServiceConfig,
) -> ServiceRun<E>
where
    E: TxnEngine,
    W: Workload,
{
    let prepare = |w: usize, ()| {
        let mut worker = ServiceWorker::new(mk_engine(w), mk_workload(w), cfg, svc, w);
        assert!(
            !worker.engine.machine().config().interconnect.enabled,
            "run_service requires the interconnect disabled"
        );
        let base = worker.prepare(worker_share(cfg.warmup, cfg.threads, w));
        (worker, base)
    };
    // Workers are independent: each drains its own arrival schedule, one
    // scheduling step after the other, to the end.
    let drain =
        Solo(|_, (worker, _): &mut (ServiceWorker<E, W>, ShardBase)| while worker.step() {});
    let exit = |_, (worker, base): (ServiceWorker<E, W>, ShardBase)| {
        (worker.workload.name(), worker.finish(base))
    };
    let seeds = vec![(); cfg.threads];
    let (shards, host_elapsed) = drive(cfg.mode, seeds, prepare, &drain, &mut (), exit);

    let (names, shards): (Vec<_>, Vec<ServiceShardRun<E>>) = shards.into_iter().unzip();
    let mut service = ServiceStats::default();
    for shard in &shards {
        service.merge(&shard.service);
    }
    let result = RunResult::merged(&shards[0].engine, names[0], service.served, &shards);
    ServiceRun {
        result,
        service,
        shards,
        host_elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KeyDist;
    use crate::runner::ExecMode;
    use crate::sps::Sps;
    use ssp_core::engine::Ssp;
    use ssp_core::SspConfig;
    use ssp_simulator::config::MachineConfig;

    fn cfg(mode: ExecMode, threads: usize, txns: u64) -> RunConfig {
        RunConfig {
            txns,
            warmup: 16,
            threads,
            seed: 0x5EA7_1CE5,
            mode,
        }
    }

    fn svc(period: u64) -> ServiceConfig {
        ServiceConfig {
            period_cycles: period,
            ..ServiceConfig::default()
        }
    }

    fn run(mode: ExecMode, svc_cfg: &ServiceConfig) -> ServiceRun<Ssp> {
        let threads = 2;
        let shard = MachineConfig::default().shard_slice(threads);
        run_service(
            move |_| Ssp::new(shard.clone(), SspConfig::default()),
            |_| Sps::new(512, KeyDist::uniform(512)),
            &cfg(mode, threads, 160),
            svc_cfg,
        )
    }

    #[test]
    fn light_load_serves_everything() {
        let r = run(ExecMode::Threaded, &svc(20_000));
        assert!(r.service.conserves(), "{:?}", r.service);
        assert_eq!(r.service.arrivals, 160);
        assert_eq!(r.service.served, 160, "{:?}", r.service);
        assert_eq!(r.service.shed + r.service.expired, 0);
        assert_eq!(r.service.lost, 0);
        assert!(r.service.groups > 0);
        assert!(r.result.elapsed_cycles > 0);
    }

    #[test]
    fn overload_sheds_and_conserves() {
        let mut s = svc(40);
        s.queue_capacity = 8;
        s.deadline_cycles = 4_000;
        let r = run(ExecMode::Threaded, &s);
        assert!(r.service.conserves(), "{:?}", r.service);
        assert!(
            r.service.shed > 0,
            "a 40-cycle period must overload: {:?}",
            r.service
        );
        assert_eq!(r.service.in_queue, 0, "the run must drain");
        assert_eq!(r.service.lost, 0);
    }

    #[test]
    fn threaded_matches_sequential_and_repeats() {
        let s = svc(600);
        let a = run(ExecMode::Threaded, &s);
        let b = run(ExecMode::Sequential, &s);
        let c = run(ExecMode::Threaded, &s);
        assert_eq!(a.result, b.result);
        assert_eq!(a.service, b.service);
        assert_eq!(a.result, c.result);
        assert_eq!(a.service, c.service);
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.service, y.service);
            assert_eq!(x.curve, y.curve);
            assert_eq!(x.latency, y.latency);
            assert_eq!(x.fingerprint, y.fingerprint);
        }
    }

    #[test]
    fn group_commit_reduces_journal_flushes() {
        let mut g1 = svc(600);
        g1.group = 1;
        let mut g8 = svc(600);
        g8.group = 8;
        let a = run(ExecMode::Threaded, &g1);
        let b = run(ExecMode::Threaded, &g8);
        assert_eq!(a.service.served, b.service.served);
        assert!(
            b.service.groups < a.service.groups,
            "grouping must batch: {} vs {}",
            b.service.groups,
            a.service.groups
        );
        assert!(
            b.result.logging_writes() < a.result.logging_writes(),
            "group commit must amortize journal flushes: {} vs {}",
            b.result.logging_writes(),
            a.result.logging_writes()
        );
    }

    #[test]
    fn storms_recover_with_zero_loss() {
        let mut s = svc(600);
        s.storm = Some(StormSchedule::every_cycles(30_000));
        let r = run(ExecMode::Threaded, &s);
        assert!(r.service.storms > 0, "{:?}", r.service);
        assert_eq!(r.service.lost, 0, "{:?}", r.service);
        assert!(r.service.unavailability_cycles > 0);
        assert!(r.service.conserves(), "{:?}", r.service);
        let seq = {
            let mut c = cfg(ExecMode::Sequential, 2, 160);
            c.mode = ExecMode::Sequential;
            let shard = MachineConfig::default().shard_slice(2);
            run_service(
                move |_| Ssp::new(shard.clone(), SspConfig::default()),
                |_| Sps::new(512, KeyDist::uniform(512)),
                &c,
                &s,
            )
        };
        assert_eq!(r.result, seq.result, "storms must be mode-invariant");
        assert_eq!(r.service, seq.service);
    }

    #[test]
    fn arrival_schedules_are_deterministic_and_shaped() {
        let s_uni = svc(1_000);
        let a = build_arrivals(42, 0, &s_uni, 64);
        let b = build_arrivals(42, 0, &s_uni, 64);
        assert_eq!(a, b);
        let other = build_arrivals(42, 1, &s_uni, 64);
        assert_ne!(a, other, "workers get distinct schedules");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        // All shapes keep the same mean rate (±25%).
        for shape in [
            ArrivalShape::Uniform,
            ArrivalShape::Bursty { burst: 8 },
            ArrivalShape::DiurnalStep { block: 16 },
        ] {
            let mut s = svc(1_000);
            s.shape = shape;
            let sched = build_arrivals(7, 0, &s, 256);
            let span = *sched.last().unwrap();
            let mean = span / 256;
            assert!(
                (750..=1_250).contains(&mean),
                "{shape:?}: mean gap {mean} drifted from the period"
            );
        }
    }
}
