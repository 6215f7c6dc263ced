//! The shard-loop kernel: the one scheduler every run driver goes
//! through.
//!
//! A driver describes *what* its shards do as a [`Protocol`] — four
//! functions over a worker type and a shared board — and the kernel
//! decides *how* they are scheduled:
//!
//! ```text
//! loop {
//!     local(w)            every shard, no shared state: run to the boundary
//!     deposit(w, board)   every shard hands its epoch output to the board
//!     ── rendezvous ──    the last shard to arrive runs, before it releases:
//!       merge(board)      exactly once: resolve the epoch, fill the verdicts
//!     apply(w, verdict)   every shard, no shared state: take the verdict
//! }                       until merge says the epoch was the last
//! ```
//!
//! [`ExecMode::Threaded`] runs `local`/`deposit`/`apply` on one real
//! thread per shard with **one** [`Rendezvous`] crossing per epoch: the
//! last shard to arrive — an arbitrary leader, and the only thread not
//! waiting, so it owns the board — runs `merge`, puts each shard's verdict
//! in that shard's own slot and only then releases the others, who spin
//! on one word for as long as a short epoch's stragglers take and park
//! only past that. [`ExecMode::Sequential`] calls the *same four
//! functions* in worker-index order on the calling thread. `merge` sees
//! nothing but the board, and `local`/`apply` see nothing but their own
//! worker, so as long as a protocol's `merge` is a pure function of what
//! was deposited the two modes are bit-identical — the sequential mode is
//! the reference schedule the equivalence suites compare against, not a
//! second copy of any driver's arithmetic.
//!
//! Every rendezvous [poisons](Rendezvous::poison) on a panic: a failing
//! `local`, `merge` or `apply` wakes every spinning or parked peer and
//! the coordinator, so the run fails loudly instead of deadlocking the
//! remaining rendezvous.
//!
//! A shard lives where it runs: [`drive`] turns a seed into a worker
//! inside the worker's own thread before the first epoch (`enter`) and
//! into its result in the same thread after the last (`exit` — the final
//! quiesce, the measurement diff), so a driver is one thread lifetime per
//! shard. The one phase left without a rendezvous is a warm-up whose
//! shards the *caller* keeps ([`warm_parallel`]): [`spawn_each`] builds
//! those, and a later [`drive`] takes them as its seeds.
//!
//! [`warm_parallel`]: crate::runner::warm_parallel

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::runner::ExecMode;

/// One bulk-synchronous epoch protocol over workers of type `T`.
pub(crate) trait Protocol<T>: Sync {
    /// The state the shards exchange at the epoch boundary.
    type Board: Send;
    /// What one merge hands back to each shard.
    type Verdict: Default + Send;

    /// Runs shard `w` up to its next epoch boundary.
    fn local(&self, w: usize, worker: &mut T);

    /// Hands shard `w`'s epoch output to the board. Must only touch
    /// shard `w`'s part of it: deposits of one epoch arrive in host
    /// order in threaded mode.
    fn deposit(&self, w: usize, worker: &mut T, board: &mut Self::Board);

    /// Resolves one epoch from everything deposited, leaving shard `w`'s
    /// outcome in `verdicts[w]`. Called exactly once per epoch.
    fn merge(&self, board: &mut Self::Board, verdicts: &mut [Self::Verdict]) -> Epoch;

    /// Applies shard `w`'s verdict of the epoch just merged.
    fn apply(&self, w: usize, worker: &mut T, verdict: Self::Verdict);
}

/// What a merge says about the epoch it resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Epoch {
    /// More epochs follow.
    #[default]
    Next,
    /// More epochs follow, and the span [`drive`] times restarts here: a
    /// protocol ends its unmeasured phase (warm-up) this way, so both
    /// phases run in one thread lifetime.
    Lap,
    /// This was the run's last epoch.
    Last,
}

/// The protocol of shards that never interact: one epoch in which
/// `local` runs the shard's whole share and nothing is exchanged.
pub(crate) struct Solo<F>(pub(crate) F);

impl<T, F: Fn(usize, &mut T) + Sync> Protocol<T> for Solo<F> {
    type Board = ();
    type Verdict = ();

    fn local(&self, w: usize, worker: &mut T) {
        (self.0)(w, worker)
    }
    fn deposit(&self, _w: usize, _worker: &mut T, _board: &mut ()) {}
    fn merge(&self, _board: &mut (), _verdicts: &mut [()]) -> Epoch {
        Epoch::Last
    }
    fn apply(&self, _w: usize, _worker: &mut T, _verdict: ()) {}
}

/// What the shards share during one [`drive`]: the protocol's board,
/// the verdict slice `merge` fills, and where the timed span restarted.
struct Exchange<'a, B, V> {
    board: &'a mut B,
    verdicts: Vec<V>,
    lap: Option<Instant>,
}

/// One shard's hand-back from the epoch's leader: its verdict and what
/// the merge said about the epoch. A slot (and a cache line) of its own
/// per shard, so the `n` shards a release lets go at the same instant
/// each take an uncontended lock instead of queueing on the board's.
#[derive(Default)]
#[repr(align(64))]
struct Slot<V>(Mutex<(V, Epoch)>);

impl<V> Slot<V> {
    fn lock(&self) -> MutexGuard<'_, (V, Epoch)> {
        // No protocol code ever runs under a slot's lock.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Turns each seed into its shard's worker with `enter` — *inside* the
/// worker's thread in threaded mode, so construction, setup and warm-up
/// are parallel and a shard's memory is allocated by the thread that
/// uses it — drives the workers through `protocol` until its merge
/// reports the last epoch, then turns each worker into its result with
/// `exit`, still in its own thread. Hands the results back in worker
/// order with the host wall-clock of the driven span (from the last
/// [`Epoch::Lap`] if there was one): `enter`, `exit`, thread start-up and
/// teardown are excluded. Pass ready-made workers as the seeds with
/// `|_, worker| worker`.
///
/// Each worker lives and dies in its thread, so no two shards' hot state
/// ever share a cache line. `board` outlives the call.
///
/// # Panics
///
/// Panics if there are no seeds, or if `enter`, `exit` or any protocol
/// function panics, on whichever thread.
pub(crate) fn drive<S: Send, T, R: Send, P: Protocol<T>>(
    mode: ExecMode,
    seeds: Vec<S>,
    enter: impl Fn(usize, S) -> T + Sync,
    protocol: &P,
    board: &mut P::Board,
    exit: impl Fn(usize, T) -> R + Sync,
) -> (Vec<R>, Duration) {
    let n = seeds.len();
    assert!(n >= 1, "at least one worker");
    let seeds = seeds.into_iter().enumerate();
    let mut verdicts: Vec<P::Verdict> = Vec::new();
    verdicts.resize_with(n, Default::default);
    match mode {
        ExecMode::Sequential => {
            let mut workers: Vec<T> = seeds.map(|(w, seed)| enter(w, seed)).collect();
            let mut t0 = Instant::now();
            loop {
                for (w, worker) in workers.iter_mut().enumerate() {
                    protocol.local(w, worker);
                    protocol.deposit(w, worker, board);
                }
                let epoch = protocol.merge(board, &mut verdicts);
                if epoch == Epoch::Lap {
                    t0 = Instant::now();
                }
                for (w, worker) in workers.iter_mut().enumerate() {
                    protocol.apply(w, worker, std::mem::take(&mut verdicts[w]));
                }
                if epoch == Epoch::Last {
                    break;
                }
            }
            let host_elapsed = t0.elapsed();
            let results = workers.into_iter().enumerate();
            (
                results.map(|(w, worker)| exit(w, worker)).collect(),
                host_elapsed,
            )
        }
        ExecMode::Threaded => {
            // The coordinator joins the start/end rendezvous to time the
            // span, and must sleep through it; the epoch rendezvous is
            // workers only, and may spin.
            let (start, end) = (Rendezvous::parking(n + 1), Rendezvous::parking(n + 1));
            let rendezvous = Rendezvous::spinning(n);
            let slots: Vec<Slot<P::Verdict>> = (0..n).map(|_| Slot::default()).collect();
            let exchange = Mutex::new(Exchange {
                board,
                verdicts,
                lap: None,
            });
            let lock = || exchange.lock().expect("a peer panicked holding the board");
            // Run by each epoch's last arriver while every peer waits.
            let lead = || {
                let ex = &mut *lock();
                let epoch = protocol.merge(ex.board, &mut ex.verdicts);
                if epoch == Epoch::Lap {
                    ex.lap = Some(Instant::now());
                }
                for (slot, verdict) in slots.iter().zip(&mut ex.verdicts) {
                    *slot.lock() = (std::mem::take(verdict), epoch);
                }
            };
            std::thread::scope(|scope| {
                let handles: Vec<_> = seeds
                    .map(|(w, seed)| {
                        let (start, end, rendezvous) = (&start, &end, &rendezvous);
                        let (enter, exit, lock, lead) = (&enter, &exit, &lock, &lead);
                        let slot = &slots[w];
                        scope.spawn(move || {
                            let _poison = PoisonOnPanic([start, end, rendezvous]);
                            let mut worker = enter(w, seed);
                            start.wait(|| ());
                            loop {
                                protocol.local(w, &mut worker);
                                protocol.deposit(w, &mut worker, lock().board);
                                rendezvous.wait(lead);
                                let (verdict, epoch) = std::mem::take(&mut *slot.lock());
                                protocol.apply(w, &mut worker, verdict);
                                if epoch == Epoch::Last {
                                    break;
                                }
                            }
                            end.wait(|| ());
                            exit(w, worker)
                        })
                    })
                    .collect();
                start.wait(|| ());
                let t0 = Instant::now();
                end.wait(|| ());
                let host_elapsed = lock().lap.unwrap_or(t0).elapsed();
                let results = handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked"))
                    .collect();
                (results, host_elapsed)
            })
        }
    }
}

/// Builds one value per shard with `f(w)` — each on its own thread in
/// [`ExecMode::Threaded`] (so construction cost is parallel too), in
/// worker-index order on the calling thread in [`ExecMode::Sequential`] —
/// and returns them in worker order. For shards that cannot interact yet
/// and outlive the call (a kept warm-up), so there is nothing to
/// rendezvous on.
///
/// # Panics
///
/// Panics if `n` is zero or `f` panics for any shard.
pub(crate) fn spawn_each<R: Send>(
    mode: ExecMode,
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    assert!(n >= 1, "at least one worker");
    match mode {
        ExecMode::Sequential => (0..n).map(f).collect(),
        ExecMode::Threaded => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|w| {
                    let f = &f;
                    scope.spawn(move || f(w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        }),
    }
}

/// A reusable combining rendezvous: like [`std::sync::Barrier`], except
/// that the last participant to arrive runs a closure *before* anyone is
/// released (so what would be arrive → leader works → arrive again is
/// one crossing), waiters spin before they park, and a panicking
/// participant can [`poison`](Rendezvous::poison) it.
///
/// **Waiting policy.** Waiters watch one word, [`Self::generation`]. A
/// `spinning` rendezvous whose participants all fit on the host's cores
/// polls it for a bounded stretch — the epoch protocol rendezvouses
/// thousands of times per run and its stragglers are microseconds
/// behind, far less than a futex sleep and wake-up cost — and then
/// parks on the condvar like a `parking` one does from the start. With
/// more participants than cores a spinner would only burn the time
/// slice the thread it waits for needs, so those park at once. The
/// releaser counts the parked waiters and skips `notify_all` (a futex
/// syscall in std even with nobody to wake) when there are none, so an
/// epoch nobody slept through costs no sleep and no wake-up either.
///
/// **Ordering.** The releaser's `Release` add to `generation` pairs with
/// the waiters' `Acquire` loads of it: what the leader wrote, and the
/// reset of `arrived`, happen before any waiter returns. The `AcqRel`
/// increments of `arrived` chain the arrivals, so the last arriver — the
/// leader — sees what every earlier one wrote before it arrived.
///
/// **Poisoning.** Every spinning, parked or future waiter of a poisoned
/// rendezvous panics instead of waiting forever: without it a single
/// engine panic inside one worker would deadlock the other workers (and
/// the coordinator) into an indefinite hang — in CI that is a job timeout
/// with the original panic message never surfaced.
struct Rendezvous {
    n: usize,
    /// How many polls of the generation a waiter makes before parking.
    spins: u32,
    arrived: AtomicUsize,
    /// Generations completed, counted in steps of two; [`POISONED`] is
    /// bit 0, so a spinner learns of a release and of a poisoning from
    /// the same load.
    generation: AtomicUsize,
    /// Waiters that are on (or on their way to or from) the condvar.
    parked: Mutex<usize>,
    cv: Condvar,
}

const POISONED: usize = 1;

/// Polls of the generation word before a waiter parks: the first
/// [`HOT_SPINS`] back to back (a few microseconds — an empty epoch's
/// straggler), the rest with a `yield_now` between them (half a
/// millisecond on an idle core — an epoch whose shard had work). The hot
/// stretch is short because the waiter cannot know that the thread it
/// waits for has a core of its own: a wake-up tends to leave the woken
/// thread on its waker's core, and there every hot poll only delays the
/// release it polls for, whereas a yield hands that peer (or another
/// test's, another process's) the core. With 2 048 hot polls a
/// 2-shard, 1 158-epoch debug run took 56 ms or 192 ms depending on
/// where the scheduler had put the shards; with 256 it takes 58 ms.
const SPINS: u32 = 2_048;
const HOT_SPINS: u32 = 256;

impl Rendezvous {
    /// A rendezvous of `n` whose waiters poll `spins` times, then park.
    fn new(n: usize, spins: u32) -> Self {
        Self {
            n,
            spins,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parked: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// A rendezvous of `n` whose waiters park at once.
    fn parking(n: usize) -> Self {
        Self::new(n, 0)
    }

    /// A rendezvous of `n` whose waiters spin before they park, if the
    /// host has a core for each of them. `available_parallelism` is a
    /// `sched_getaffinity` call: asked here, once per drive, never per
    /// wait.
    fn spinning(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        Self::new(n, if n <= cores { SPINS } else { 0 })
    }

    /// Recovers the count even if a panic poisoned the mutex — the
    /// generation's `POISONED` bit is the source of truth.
    fn parked(&self) -> MutexGuard<'_, usize> {
        self.parked.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until `n` participants arrive. The last to arrive runs
    /// `lead` while the others still wait, then releases them: everything
    /// `lead` wrote is visible to every participant when its `wait`
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if the rendezvous was poisoned (before or while waiting),
    /// and if `lead` does — without releasing anyone: the caller's
    /// [`PoisonOnPanic`] does that.
    fn wait(&self, lead: impl FnOnce()) {
        // Read before arriving: the generation cannot advance until this
        // participant has arrived too.
        let generation = self.generation.load(Ordering::Acquire);
        assert!(generation & POISONED == 0, "a peer worker thread panicked");
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Nobody can arrive for the next generation before the
            // release below, which is also what publishes this reset.
            self.arrived.store(0, Ordering::Relaxed);
            lead();
            // An add, not a store: a concurrent poisoning must survive.
            self.generation.fetch_add(2, Ordering::Release);
            // A waiter checks the generation under the lock before it
            // sleeps, so it either sees the release or is counted here.
            if *self.parked() > 0 {
                self.cv.notify_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::Acquire) != generation;
        for spin in 0..self.spins {
            if released() {
                break;
            }
            if spin < HOT_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if !released() {
            let mut parked = self.parked();
            *parked += 1;
            while !released() {
                parked = self.cv.wait(parked).unwrap_or_else(|e| e.into_inner());
            }
            *parked -= 1;
        }
        let poisoned = self.generation.load(Ordering::Acquire) & POISONED != 0;
        assert!(!poisoned, "a peer worker thread panicked");
    }

    fn poison(&self) {
        self.generation.fetch_or(POISONED, Ordering::Release);
        // Under the lock, so a waiter between its check and its sleep is
        // not missed.
        let _parked = self.parked();
        self.cv.notify_all();
    }
}

/// Poisons every rendezvous of the run if the owning thread unwinds, so a
/// panic anywhere in a worker fails the whole run loudly instead of
/// deadlocking the remaining rendezvous.
struct PoisonOnPanic<'a>([&'a Rendezvous; 3]);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for rendezvous in self.0 {
                rendezvous.poison();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every protocol call a run makes, as `(function, worker, epoch,
    /// argument)` — the argument being whatever per-worker value the
    /// function was handed.
    type Call = (&'static str, usize, u64, u64);

    /// A toy protocol: each shard counts up by `w + 1` per epoch, the
    /// merge sums the deposits, the verdict is that sum. Logs every call;
    /// optionally panics in one worker's `local` or in `merge`.
    struct Toy {
        epochs: u64,
        log: Mutex<Vec<Call>>,
        bomb_local: Option<usize>,
        bomb_merge: bool,
    }

    #[derive(Default)]
    struct ToyWorker {
        epoch: u64,
        value: u64,
        /// The thread `enter` ran on, where a test records it.
        born: Option<std::thread::ThreadId>,
    }

    #[derive(Default)]
    struct ToyBoard {
        epoch: u64,
        deposits: Vec<u64>,
    }

    impl Toy {
        fn new(epochs: u64) -> Self {
            Self {
                epochs,
                log: Mutex::new(Vec::new()),
                bomb_local: None,
                bomb_merge: false,
            }
        }
        fn record(&self, call: Call) {
            self.log.lock().unwrap().push(call);
        }
    }

    impl Protocol<ToyWorker> for Toy {
        type Board = ToyBoard;
        type Verdict = u64;

        fn local(&self, w: usize, worker: &mut ToyWorker) {
            assert!(self.bomb_local != Some(w) || worker.epoch < 2, "local boom");
            self.record(("local", w, worker.epoch, worker.value));
            worker.value = worker.value.wrapping_add(w as u64 + 1);
        }
        fn deposit(&self, w: usize, worker: &mut ToyWorker, board: &mut ToyBoard) {
            self.record(("deposit", w, worker.epoch, worker.value));
            board.deposits[w] = worker.value;
        }
        fn merge(&self, board: &mut ToyBoard, verdicts: &mut [u64]) -> Epoch {
            assert!(!self.bomb_merge || board.epoch < 2, "merge boom");
            let sum = board
                .deposits
                .iter()
                .fold(0u64, |sum, d| sum.wrapping_add(*d));
            self.record(("merge", usize::MAX, board.epoch, sum));
            for (w, v) in verdicts.iter_mut().enumerate() {
                *v = sum.wrapping_add(w as u64);
            }
            board.epoch += 1;
            if board.epoch == self.epochs {
                Epoch::Last
            } else if board.epoch == 1 {
                Epoch::Lap
            } else {
                Epoch::Next
            }
        }
        fn apply(&self, w: usize, worker: &mut ToyWorker, verdict: u64) {
            self.record(("apply", w, worker.epoch, verdict));
            worker.value ^= verdict;
            worker.epoch += 1;
        }
    }

    fn toy_run(mode: ExecMode, toy: &Toy, n: usize) -> (Vec<u64>, Vec<Call>) {
        let workers: Vec<ToyWorker> = (0..n).map(|_| ToyWorker::default()).collect();
        let mut board = ToyBoard {
            epoch: 0,
            deposits: vec![0; n],
        };
        let pass = |_, worker| worker;
        let (workers, _) = drive(mode, workers, pass, toy, &mut board, pass);
        let mut log = std::mem::take(&mut *toy.log.lock().unwrap());
        // Host order within a phase is free in threaded mode; the calls
        // themselves (who, when, with what) are the contract.
        log.sort_unstable();
        (workers.iter().map(|w| w.value).collect(), log)
    }

    #[test]
    fn both_modes_make_identical_calls_with_one_merge_per_epoch() {
        const N: usize = 4;
        const EPOCHS: u64 = 25;
        let (seq_values, seq_log) = toy_run(ExecMode::Sequential, &Toy::new(EPOCHS), N);
        let (thr_values, thr_log) = toy_run(ExecMode::Threaded, &Toy::new(EPOCHS), N);
        assert_eq!(seq_values, thr_values);
        assert_eq!(seq_log, thr_log);
        for epoch in 0..EPOCHS {
            let merges = seq_log
                .iter()
                .filter(|c| c.0 == "merge" && c.2 == epoch)
                .count();
            assert_eq!(merges, 1, "epoch {epoch}");
            for f in ["local", "deposit", "apply"] {
                let calls = thr_log.iter().filter(|c| c.0 == f && c.2 == epoch).count();
                assert_eq!(calls, N, "{f} in epoch {epoch}");
            }
        }
        assert_eq!(seq_log.len() as u64, EPOCHS * (3 * N as u64 + 1));
    }

    #[test]
    fn exit_runs_once_per_worker_in_its_own_thread_after_the_last_epoch() {
        const EPOCHS: u64 = 5;
        for mode in [ExecMode::Threaded, ExecMode::Sequential] {
            let mut board = ToyBoard {
                epoch: 0,
                deposits: vec![0; 3],
            };
            let enter = |_, ()| ToyWorker {
                born: Some(std::thread::current().id()),
                ..ToyWorker::default()
            };
            let exit = |w, worker: ToyWorker| {
                let same_thread = worker.born == Some(std::thread::current().id());
                (w, worker.epoch, same_thread)
            };
            let toy = Toy::new(EPOCHS);
            let (results, _) = drive(mode, vec![(); 3], enter, &toy, &mut board, exit);
            let each = |w| (w, EPOCHS, true);
            assert_eq!(results, [each(0), each(1), each(2)], "{mode:?}");
        }
    }

    #[test]
    fn sequential_mode_runs_in_worker_index_order() {
        let toy = Toy::new(2);
        let workers: Vec<ToyWorker> = (0..3).map(|_| ToyWorker::default()).collect();
        let mut board = ToyBoard {
            epoch: 0,
            deposits: vec![0; 3],
        };
        drive(
            ExecMode::Sequential,
            workers,
            |_, worker| worker,
            &toy,
            &mut board,
            |_, worker| worker,
        );
        let order: Vec<(&str, usize)> = toy
            .log
            .lock()
            .unwrap()
            .iter()
            .take(10)
            .map(|c| (c.0, c.1))
            .collect();
        assert_eq!(
            order,
            [
                ("local", 0),
                ("deposit", 0),
                ("local", 1),
                ("deposit", 1),
                ("local", 2),
                ("deposit", 2),
                ("merge", usize::MAX),
                ("apply", 0),
                ("apply", 1),
                ("apply", 2),
            ]
        );
    }

    #[test]
    #[should_panic]
    fn a_panic_in_local_fails_the_drive_instead_of_hanging() {
        let toy = Toy {
            bomb_local: Some(1),
            ..Toy::new(10)
        };
        toy_run(ExecMode::Threaded, &toy, 3);
    }

    #[test]
    #[should_panic]
    fn a_panic_in_enter_fails_the_drive_instead_of_hanging() {
        let toy = Toy::new(10);
        let mut board = ToyBoard {
            epoch: 0,
            deposits: vec![0; 3],
        };
        let enter = |w, ()| {
            assert_ne!(w, 2, "enter boom");
            ToyWorker::default()
        };
        let exit = |_, worker| worker;
        drive(
            ExecMode::Threaded,
            vec![(); 3],
            enter,
            &toy,
            &mut board,
            exit,
        );
    }

    #[test]
    #[should_panic]
    fn a_panic_in_the_leaders_merge_fails_the_drive_instead_of_hanging() {
        let toy = Toy {
            bomb_merge: true,
            ..Toy::new(10)
        };
        toy_run(ExecMode::Threaded, &toy, 3);
    }

    #[test]
    fn one_worker_and_oversubscribed_workers_match_sequential_call_for_call() {
        // One worker is always its own leader; eight workers outnumber any
        // CI host's cores, so every one of the 10 000 rendezvous parks.
        for (n, epochs) in [(1, 100), (8, 10_000)] {
            let (seq_values, seq_log) = toy_run(ExecMode::Sequential, &Toy::new(epochs), n);
            let (thr_values, thr_log) = toy_run(ExecMode::Threaded, &Toy::new(epochs), n);
            assert_eq!(seq_values, thr_values, "{n} workers");
            assert!(seq_log == thr_log, "{n} workers: call logs differ");
            assert_eq!(seq_log.len() as u64, epochs * (3 * n as u64 + 1));
        }
    }

    #[test]
    fn the_leader_runs_once_per_generation_before_any_waiter_returns() {
        const N: usize = 4;
        const GENERATIONS: usize = 2_000;
        for spins in [0, SPINS] {
            let rendezvous = Rendezvous::new(N, spins);
            let led = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..N {
                    scope.spawn(|| {
                        for generation in 0..GENERATIONS {
                            rendezvous.wait(|| {
                                led.fetch_add(1, Ordering::Relaxed);
                            });
                            // This generation's leader ran, and the next
                            // one's cannot before this thread arrives again.
                            assert_eq!(led.load(Ordering::Relaxed), generation + 1);
                        }
                    });
                }
            });
            assert_eq!(led.load(Ordering::Relaxed), GENERATIONS);
        }
    }

    #[test]
    fn a_rendezvous_of_one_leads_every_generation_itself() {
        let rendezvous = Rendezvous::spinning(1);
        let mut led = 0;
        for _ in 0..3 {
            rendezvous.wait(|| led += 1);
        }
        assert_eq!(led, 3);
    }

    #[test]
    fn poison_wakes_a_spinning_waiter_and_a_parked_one() {
        // `u32::MAX` polls outlast the test: that waiter never parks.
        for (spins, parks) in [(u32::MAX, 0), (0, 1)] {
            let rendezvous = Rendezvous::new(2, spins);
            let waiter_panicked = std::thread::scope(|scope| {
                let waiter = scope.spawn(|| rendezvous.wait(|| ()));
                while rendezvous.arrived.load(Ordering::Acquire) == 0
                    || *rendezvous.parked() < parks
                {
                    std::thread::yield_now();
                }
                assert_eq!(*rendezvous.parked(), parks);
                rendezvous.poison();
                waiter.join().is_err()
            });
            assert!(waiter_panicked, "spins = {spins}");
        }
    }

    #[test]
    #[should_panic(expected = "a peer worker thread panicked")]
    fn a_poisoned_rendezvous_refuses_new_waiters() {
        let rendezvous = Rendezvous::parking(2);
        rendezvous.poison();
        rendezvous.wait(|| ());
    }

    #[test]
    fn spawn_each_keeps_worker_order_in_both_modes() {
        for mode in [ExecMode::Threaded, ExecMode::Sequential] {
            let built = spawn_each(mode, 5, |w| w * 10);
            assert_eq!(built, [0, 10, 20, 30, 40]);
        }
    }

    #[test]
    #[should_panic]
    fn a_panic_in_spawn_each_propagates() {
        spawn_each(ExecMode::Threaded, 3, |w| assert_ne!(w, 2));
    }
}
