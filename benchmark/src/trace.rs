//! Tracing from outside the crates: decorators around the two traits the
//! drivers are generic over.
//!
//! [`Traced<E>`] wraps a `TxnEngine`, [`TracedWorkload<W>`] a `Workload`;
//! both are handed to the *unmodified* drivers through their `mk_engine` /
//! `mk_workload` factories, so no product file gains a timer. Every call
//! across a layer boundary becomes a span (name, start, end, parent,
//! transaction id). Spans are aggregated per (workload, cell, worker,
//! `layer.call`) as count / total time / self time, the full tree of each
//! worker's first [`SPAN_TXNS`] transactions is kept in memory, and
//! everything is written out once, when the run ends.
//!
//! The decorators forward every call unchanged and never touch simulated
//! state, so a cell's `sim_digest` is the same with and without them
//! (`tests::decorators_are_transparent`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::SmallRng;
use ssp_bench::json::Json;
use ssp_simulator::addr::{VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::machine::Machine;
use ssp_txn::engine::{TxnEngine, TxnStats};
use ssp_workloads::runner::Workload;

/// Transactions per worker whose full span tree is kept.
pub const SPAN_TXNS: u64 = 64;

/// The layer boundary crossings that are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Engine construction inside `mk_engine`.
    New,
    /// `Workload::setup` (its own transactions nest beneath it).
    Setup,
    /// `Workload::run_txn`.
    RunTxn,
    /// The driver's bracket around one transaction: `begin` start to
    /// `commit`/`abort` end.
    Txn,
    /// `TxnEngine::begin`.
    Begin,
    /// `TxnEngine::load`.
    Load,
    /// `TxnEngine::store`.
    Store,
    /// `TxnEngine::commit`.
    Commit,
    /// `TxnEngine::abort`.
    Abort,
    /// `TxnEngine::crash`.
    Crash,
    /// `TxnEngine::recover`.
    Recover,
    /// `TxnEngine::map_new_page`.
    MapPage,
    /// `MatrixRunner::run` over one figure grid (`figure_suite`).
    RunGrid,
    /// `cell_json` + `BenchReport::to_json` + render (`figure_suite`).
    ReportJson,
}

impl Call {
    /// Every call, in table order.
    pub const ALL: [Call; 14] = [
        Call::New,
        Call::Setup,
        Call::RunTxn,
        Call::Txn,
        Call::Begin,
        Call::Load,
        Call::Store,
        Call::Commit,
        Call::Abort,
        Call::Crash,
        Call::Recover,
        Call::MapPage,
        Call::RunGrid,
        Call::ReportJson,
    ];

    /// The call's short name (`load`, `run_txn`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Call::New => "new",
            Call::Setup => "setup",
            Call::RunTxn => "run_txn",
            Call::Txn => "txn",
            Call::Begin => "begin",
            Call::Load => "load",
            Call::Store => "store",
            Call::Commit => "commit",
            Call::Abort => "abort",
            Call::Crash => "crash",
            Call::Recover => "recover",
            Call::MapPage => "map_new_page",
            Call::RunGrid => "run",
            Call::ReportJson => "report_json",
        }
    }

    /// Whether the span belongs to the `workloads` layer (drivers and
    /// data structures) rather than to the worker's engine.
    pub fn in_workloads_layer(self) -> bool {
        matches!(self, Call::Setup | Call::RunTxn | Call::Txn)
    }
}

/// The layer (crate) an engine belongs to, from its display name.
pub fn engine_layer(engine_name: &str) -> &'static str {
    match engine_name {
        "SSP" => "core",
        "UNDO-LOG" => "baselines.undo",
        "REDO-LOG" => "baselines.redo",
        "SHADOW" => "baselines.shadow",
        other => panic!("no layer known for engine {other:?}"),
    }
}

/// Count, total and child time of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls made.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// The part of `total_ns` covered by child spans.
    pub child_ns: u64,
}

impl Agg {
    /// Self time: the span's duration minus what its children cover.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }

    /// Adds another aggregate in.
    pub fn merge(&mut self, o: &Agg) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.child_ns += o.child_ns;
    }
}

/// One recorded span. Times are nanoseconds since the collector's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub call: Call,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index (into the worker's span list) of the span that caused this
    /// one.
    pub parent: Option<u32>,
    /// The worker's transaction counter when the span opened; spans of one
    /// transaction share it.
    pub txn: u64,
}

struct Frame {
    call: Call,
    start_ns: u64,
    child_ns: u64,
    span: Option<u32>,
}

/// Everything recorded on one worker of one cell.
#[derive(Default)]
pub struct WorkerTrace {
    /// Aggregates of the run phase, then of calls made beneath
    /// `Workload::setup`: set-up stores initialise whole arrays and would
    /// otherwise drown the per-call times of the transactions proper.
    agg: [[Agg; Call::ALL.len()]; 2],
    stack: Vec<Frame>,
    /// A `Workload::setup` frame is open.
    in_setup: bool,
    spans: Vec<Span>,
    txn: u64,
    /// Summed durations of spans opened with nothing above them: the time
    /// this worker spent inside decorated calls.
    top_ns: u64,
}

impl WorkerTrace {
    fn recording_spans(&self) -> bool {
        // Setup runs thousands of its own transactions; keeping their
        // trees would use up the budget before the first measured one.
        self.txn <= SPAN_TXNS && !self.in_setup
    }

    fn push_span(&mut self, call: Call, start_ns: u64, end_ns: u64) -> u32 {
        let parent = self.stack.iter().rev().find_map(|f| f.span);
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            call,
            start_ns,
            end_ns,
            parent,
            txn: self.txn,
        });
        idx
    }

    fn credit_parent(&mut self, dur: u64) {
        match self.stack.last_mut() {
            Some(top) => top.child_ns += dur,
            None => self.top_ns += dur,
        }
    }

    fn open(&mut self, call: Call, start_ns: u64) {
        let span = (call == Call::Setup || self.recording_spans())
            .then(|| self.push_span(call, start_ns, start_ns));
        self.in_setup |= call == Call::Setup;
        self.stack.push(Frame {
            call,
            start_ns,
            child_ns: 0,
            span,
        });
    }

    fn close(&mut self, call: Call, end_ns: u64) {
        // A cell that panicked mid-span leaves frames open; the trace of
        // such a cell is partial but never corrupts a later one.
        let Some(pos) = self.stack.iter().rposition(|f| f.call == call) else {
            return;
        };
        self.stack.truncate(pos + 1);
        let frame = self.stack.pop().expect("frame found above");
        if call == Call::Setup {
            // Transactions are numbered from the first one after setup.
            self.in_setup = false;
            self.txn = 0;
        }
        let dur = end_ns.saturating_sub(frame.start_ns);
        let a = &mut self.agg[usize::from(self.in_setup)][call as usize];
        a.count += 1;
        a.total_ns += dur;
        a.child_ns += frame.child_ns.min(dur);
        if let Some(i) = frame.span {
            self.spans[i as usize].end_ns = end_ns;
        }
        self.credit_parent(dur);
    }

    fn leaf(&mut self, call: Call, start_ns: u64, end_ns: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        let a = &mut self.agg[usize::from(self.in_setup)][call as usize];
        a.count += 1;
        a.total_ns += dur;
        if self.recording_spans() {
            self.push_span(call, start_ns, end_ns);
        }
        self.credit_parent(dur);
    }

    fn in_txn(&self) -> bool {
        self.stack.iter().any(|f| f.call == Call::Txn)
    }

    /// Per-call aggregates of the run phase (calls not beneath `setup`).
    pub fn agg(&self, call: Call) -> Agg {
        self.agg[0][call as usize]
    }

    /// Per-call aggregates of the calls beneath `Workload::setup`.
    pub fn setup_agg(&self, call: Call) -> Agg {
        self.agg[1][call as usize]
    }

    /// Time spent inside decorated calls (top-level spans).
    pub fn top_ns(&self) -> u64 {
        self.top_ns
    }
}

/// The handle a decorator records through.
#[derive(Clone)]
pub struct Sink {
    epoch: Instant,
    trace: Arc<Mutex<WorkerTrace>>,
}

impl Sink {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn with<R>(&self, f: impl FnOnce(&mut WorkerTrace) -> R) -> R {
        // Each worker owns its trace; the lock only makes the decorators
        // `Send + Sync`. A panicking cell may poison it, which must not
        // take later cells down.
        f(&mut self.trace.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.with(|t| t.leaf(call, t0, t1));
        r
    }
}

/// The per-worker sinks of one cell, plus the driver-call wall and the
/// operation count the self-time metrics divide by.
pub struct CellTrace {
    /// Workload the cell belongs to.
    pub workload: &'static str,
    /// Cell name.
    pub cell: String,
    /// Layer of the cell's engine.
    pub layer: &'static str,
    sinks: Vec<Sink>,
    driver_wall_ns: Mutex<(u64, u64)>,
}

impl CellTrace {
    /// Worker `w`'s sink.
    pub fn sink(&self, w: usize) -> Sink {
        self.sinks[w].clone()
    }

    /// Adds one driver call: its wall (all workers were alive for it) and
    /// the transactions it executed, warm-up included.
    pub fn add_driver_call(&self, wall_ns: u64, txns: u64) {
        let mut d = self.driver_wall_ns.lock().expect("driver wall");
        d.0 += wall_ns;
        d.1 += txns;
    }

    /// `(summed driver-call wall, transactions executed)`.
    pub fn driver_calls(&self) -> (u64, u64) {
        *self.driver_wall_ns.lock().expect("driver wall")
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.sinks.len()
    }

    /// Runs `f` over each worker's trace.
    pub fn each_worker(&self, mut f: impl FnMut(usize, &WorkerTrace)) {
        for (w, s) in self.sinks.iter().enumerate() {
            s.with(|t| f(w, t));
        }
    }

    /// One call's aggregate summed over the workers.
    pub fn total(&self, call: Call) -> Agg {
        let mut a = Agg::default();
        self.each_worker(|_, t| a.merge(&t.agg(call)));
        a
    }

    /// Time inside decorated calls, summed over the workers.
    pub fn top_ns(&self) -> u64 {
        let mut n = 0;
        self.each_worker(|_, t| n += t.top_ns());
        n
    }
}

/// Holds every span of a traced run in memory until the run ends.
pub struct Collector {
    epoch: Instant,
    cells: Mutex<Vec<Arc<CellTrace>>>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// An empty collector; span times count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            cells: Mutex::new(Vec::new()),
        }
    }

    /// The trace of `(workload, cell)`, created on first use. A cell run
    /// again (a later traced repetition) keeps adding to the same counts.
    pub fn cell(
        &self,
        workload: &'static str,
        cell: &str,
        layer: &'static str,
        workers: usize,
    ) -> Arc<CellTrace> {
        let mut cells = self.cells.lock().expect("collector");
        if let Some(c) = cells
            .iter()
            .find(|c| c.workload == workload && c.cell == cell)
        {
            return c.clone();
        }
        let c = Arc::new(CellTrace {
            workload,
            cell: cell.to_string(),
            layer,
            sinks: (0..workers)
                .map(|_| Sink {
                    epoch: self.epoch,
                    trace: Arc::new(Mutex::new(WorkerTrace::default())),
                })
                .collect(),
            driver_wall_ns: Mutex::new((0, 0)),
        });
        cells.push(c.clone());
        c
    }

    /// Every cell traced so far, in first-use order.
    pub fn cells(&self) -> Vec<Arc<CellTrace>> {
        self.cells.lock().expect("collector").clone()
    }

    /// Cells of one workload.
    pub fn cells_of(&self, workload: &str) -> Vec<Arc<CellTrace>> {
        self.cells()
            .into_iter()
            .filter(|c| c.workload == workload)
            .collect()
    }

    /// The span file: per (workload, cell, worker) the `layer.call` counts
    /// and the span trees of the first transactions.
    pub fn to_json(&self) -> Json {
        let mut cells = Vec::new();
        for c in self.cells() {
            let mut workers = Vec::new();
            c.each_worker(|w, t| {
                let calls_json = |agg: &dyn Fn(Call) -> Agg| {
                    let mut calls = Json::obj();
                    for call in Call::ALL {
                        let a = agg(call);
                        if a.count == 0 {
                            continue;
                        }
                        let mut o = Json::obj();
                        o.set("count", Json::U64(a.count));
                        o.set("total_ns", Json::U64(a.total_ns));
                        o.set("self_ns", Json::U64(a.self_ns()));
                        calls.set(&span_name(c.layer, call), o);
                    }
                    calls
                };
                let calls = calls_json(&|call| t.agg(call));
                let setup_calls = calls_json(&|call| t.setup_agg(call));
                let spans = t
                    .spans
                    .iter()
                    .map(|s| {
                        let mut o = Json::obj();
                        o.set("name", Json::Str(span_name(c.layer, s.call)));
                        o.set("start_ns", Json::U64(s.start_ns));
                        o.set("end_ns", Json::U64(s.end_ns));
                        o.set(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(u64::from(p))),
                        );
                        o.set("txn", Json::U64(s.txn));
                        o
                    })
                    .collect();
                let mut o = Json::obj();
                o.set("worker", Json::U64(w as u64));
                o.set("calls", calls);
                o.set("setup_calls", setup_calls);
                o.set("spans", Json::Arr(spans));
                workers.push(o);
            });
            let (wall_ns, txns) = c.driver_calls();
            let mut o = Json::obj();
            o.set("workload", Json::Str(c.workload.to_string()));
            o.set("cell", Json::Str(c.cell.clone()));
            o.set("driver_wall_ns", Json::U64(wall_ns));
            o.set("txns", Json::U64(txns));
            o.set("workers", Json::Arr(workers));
            cells.push(o);
        }
        let mut doc = Json::obj();
        doc.set("span_txns_per_worker", Json::U64(SPAN_TXNS));
        doc.set("cells", Json::Arr(cells));
        doc
    }
}

/// `layer.call` for a span of a worker whose engine lives in `layer`.
pub fn span_name(layer: &str, call: Call) -> String {
    let layer = if call.in_workloads_layer() {
        "workloads"
    } else {
        layer
    };
    format!("{layer}.{}", call.name())
}

/// A `TxnEngine` that records a span around every call into `inner`.
pub struct Traced<E> {
    inner: E,
    sink: Sink,
}

impl<E: TxnEngine> Traced<E> {
    /// Builds the engine with `mk`, timing the construction.
    pub fn build(sink: Sink, mk: impl FnOnce() -> E) -> Self {
        let inner = sink.time(Call::New, mk);
        Self { inner, sink }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: TxnEngine> TxnEngine for Traced<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn machine(&self) -> &Machine {
        self.inner.machine()
    }
    fn machine_mut(&mut self) -> &mut Machine {
        self.inner.machine_mut()
    }
    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        let inner = &mut self.inner;
        self.sink.time(Call::MapPage, || inner.map_new_page(core))
    }
    fn begin(&mut self, core: CoreId) {
        let t0 = self.sink.now();
        self.inner.begin(core);
        let t1 = self.sink.now();
        self.sink.with(|t| {
            t.txn += 1;
            t.open(Call::Txn, t0);
            t.leaf(Call::Begin, t0, t1);
        });
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        let inner = &mut self.inner;
        self.sink.time(Call::Load, || inner.load(core, addr, buf))
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        let inner = &mut self.inner;
        self.sink
            .time(Call::Store, || inner.store(core, addr, data))
    }
    fn commit(&mut self, core: CoreId) {
        let t0 = self.sink.now();
        self.inner.commit(core);
        let t1 = self.sink.now();
        self.sink.with(|t| {
            t.leaf(Call::Commit, t0, t1);
            t.close(Call::Txn, t1);
        });
    }
    fn abort(&mut self, core: CoreId) {
        let t0 = self.sink.now();
        self.inner.abort(core);
        let t1 = self.sink.now();
        self.sink.with(|t| {
            t.leaf(Call::Abort, t0, t1);
            t.close(Call::Txn, t1);
        });
    }
    fn crash(&mut self) {
        let inner = &mut self.inner;
        self.sink.time(Call::Crash, || inner.crash());
        // Power loss ends whatever transaction was open.
        let now = self.sink.now();
        self.sink.with(|t| t.close(Call::Txn, now));
    }
    fn recover(&mut self) {
        let inner = &mut self.inner;
        self.sink.time(Call::Recover, || inner.recover())
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}

/// A `Workload` that records a span around `setup` and every `run_txn`.
pub struct TracedWorkload<W> {
    inner: W,
    sink: Sink,
}

impl<W: Workload> TracedWorkload<W> {
    /// Wraps `inner`.
    pub fn new(inner: W, sink: Sink) -> Self {
        Self { inner, sink }
    }
}

impl<W: Workload + Clone + 'static> Workload for TracedWorkload<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        let t0 = self.sink.now();
        self.sink.with(|t| t.open(Call::Setup, t0));
        self.inner.setup(engine, core);
        let t1 = self.sink.now();
        self.sink.with(|t| t.close(Call::Setup, t1));
    }
    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
        let t0 = self.sink.now();
        self.sink.with(|t| {
            // The shared-heap driver speculates outside begin/commit;
            // such a body is a transaction of its own.
            if !t.in_txn() {
                t.txn += 1;
            }
            t.open(Call::RunTxn, t0);
        });
        self.inner.run_txn(engine, core, rng);
        let t1 = self.sink.now();
        self.sink.with(|t| t.close(Call::RunTxn, t1));
    }
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(TracedWorkload {
            inner: self.inner.clone(),
            sink: self.sink.clone(),
        })
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let c = Collector::new();
        let cell = c.cell("w", "cell", "core", 1);
        let s = cell.sink(0);
        s.with(|t| {
            t.txn += 1;
            t.open(Call::Txn, 0);
            t.leaf(Call::Begin, 0, 10);
            t.open(Call::RunTxn, 10);
            t.leaf(Call::Load, 20, 50);
            t.leaf(Call::Store, 60, 70);
            t.close(Call::RunTxn, 100);
            t.leaf(Call::Commit, 100, 130);
            t.close(Call::Txn, 130);
        });
        let run = cell.total(Call::RunTxn);
        assert_eq!((run.count, run.total_ns, run.self_ns()), (1, 90, 50));
        let txn = cell.total(Call::Txn);
        assert_eq!((txn.total_ns, txn.self_ns()), (130, 0));
        assert_eq!(cell.top_ns(), 130);
        // The tree: txn is the root, run_txn its child, load under run_txn.
        s.with(|t| {
            assert_eq!(t.spans.len(), 6);
            assert_eq!(t.spans[0].call, Call::Txn);
            assert_eq!(t.spans[0].end_ns, 130);
            assert_eq!(t.spans[2].call, Call::RunTxn);
            assert_eq!(t.spans[2].parent, Some(0));
            assert_eq!(t.spans[3].call, Call::Load);
            assert_eq!(t.spans[3].parent, Some(2));
            assert!(t.spans.iter().all(|s| s.txn == 1));
        });
    }

    #[test]
    fn span_trees_stop_after_the_first_transactions() {
        let c = Collector::new();
        let cell = c.cell("w", "cell", "core", 1);
        let s = cell.sink(0);
        s.with(|t| {
            for i in 0..(SPAN_TXNS + 10) {
                t.txn += 1;
                t.open(Call::Txn, i * 10);
                t.leaf(Call::Load, i * 10, i * 10 + 5);
                t.close(Call::Txn, i * 10 + 5);
            }
            assert_eq!(t.spans.len() as u64, SPAN_TXNS * 2);
        });
        assert_eq!(cell.total(Call::Load).count, SPAN_TXNS + 10);
    }
}
