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
//!     ── rendezvous ──
//!     merge(board)        exactly once: resolve the epoch, fill the verdicts
//!     ── rendezvous ──
//!     apply(w, verdict)   every shard, no shared state: take the verdict
//! }                       until merge says the epoch was the last
//! ```
//!
//! [`ExecMode::Threaded`] runs `local`/`deposit`/`apply` on one real
//! thread per shard, with two barrier crossings per epoch and an
//! arbitrary barrier leader running `merge`; [`ExecMode::Sequential`]
//! calls the *same four functions* in worker-index order on the calling
//! thread. `merge` sees nothing but the board, and `local`/`apply` see
//! nothing but their own worker, so as long as a protocol's `merge` is a
//! pure function of what was deposited the two modes are bit-identical —
//! the sequential mode is the reference schedule the equivalence suites
//! compare against, not a second copy of any driver's arithmetic.
//!
//! Every barrier [poisons](PoisonBarrier) on a panic: a failing `local`,
//! `merge` or `apply` wakes every parked peer and the coordinator, so the
//! run fails loudly instead of deadlocking the remaining rendezvous.
//!
//! Shards are built where they run: [`drive`] turns a seed into a worker
//! inside the worker's own thread before the first epoch, and
//! [`spawn_each`] / [`map_each`] cover the phases that need no rendezvous
//! at all — warming shards the caller keeps, the final per-shard quiesce.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Epoch {
    /// More epochs follow.
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

/// What the shards share during one [`drive`]: the protocol's board plus
/// the kernel's own per-epoch hand-back slots.
struct Exchange<'a, B, V> {
    board: &'a mut B,
    verdicts: Vec<V>,
    epoch: Epoch,
    lap: Option<Instant>,
}

/// Turns each seed into its shard's worker with `enter` — *inside* the
/// worker's thread in threaded mode, so construction, setup and warm-up
/// are parallel and a shard's memory is allocated by the thread that
/// uses it — then drives the workers through `protocol` until its merge
/// reports the last epoch. Hands the workers back with the host
/// wall-clock of the driven span (from the last [`Epoch::Lap`] if there
/// was one): `enter`, thread start-up and teardown are excluded. Pass
/// ready-made workers as the seeds with `|_, worker| worker`.
///
/// Each worker lives in its thread for the span, so no two shards' hot
/// state ever share a cache line. `board` outlives the call.
///
/// # Panics
///
/// Panics if `enter` or any protocol function panics, on whichever
/// thread.
pub(crate) fn drive<S: Send, T: Send, P: Protocol<T>>(
    mode: ExecMode,
    seeds: Vec<S>,
    enter: impl Fn(usize, S) -> T + Sync,
    protocol: &P,
    board: &mut P::Board,
) -> (Vec<T>, Duration) {
    let n = seeds.len();
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
                    return (workers, t0.elapsed());
                }
            }
        }
        ExecMode::Threaded => {
            // The coordinator joins the start/end rendezvous to time the
            // span; the epoch rendezvous is workers only.
            let (start, end) = (PoisonBarrier::new(n + 1), PoisonBarrier::new(n + 1));
            let rendezvous = PoisonBarrier::new(n);
            let exchange = Mutex::new(Exchange {
                board,
                verdicts,
                epoch: Epoch::Next,
                lap: None,
            });
            let lock = || exchange.lock().expect("a peer panicked holding the board");
            std::thread::scope(|scope| {
                let handles: Vec<_> = seeds
                    .map(|(w, seed)| {
                        let (start, end, rendezvous) = (&start, &end, &rendezvous);
                        let (enter, lock) = (&enter, &lock);
                        scope.spawn(move || {
                            let _poison = PoisonOnPanic([start, end, rendezvous]);
                            let mut worker = enter(w, seed);
                            start.wait();
                            loop {
                                protocol.local(w, &mut worker);
                                protocol.deposit(w, &mut worker, lock().board);
                                if rendezvous.wait() {
                                    let ex = &mut *lock();
                                    ex.epoch = protocol.merge(ex.board, &mut ex.verdicts);
                                    if ex.epoch == Epoch::Lap {
                                        ex.lap = Some(Instant::now());
                                    }
                                }
                                rendezvous.wait();
                                let (verdict, epoch) = {
                                    let mut ex = lock();
                                    (std::mem::take(&mut ex.verdicts[w]), ex.epoch)
                                };
                                protocol.apply(w, &mut worker, verdict);
                                if epoch == Epoch::Last {
                                    break;
                                }
                            }
                            end.wait();
                            worker
                        })
                    })
                    .collect();
                start.wait();
                let t0 = Instant::now();
                end.wait();
                let host_elapsed = lock().lap.unwrap_or(t0).elapsed();
                let workers = handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked"))
                    .collect();
                (workers, host_elapsed)
            })
        }
    }
}

/// Maps `f(w, items[w])` over the shards — each on its own thread in
/// [`ExecMode::Threaded`], in worker-index order on the calling thread in
/// [`ExecMode::Sequential`] — and returns the results in worker order.
/// For the phases in which shards cannot interact (construction, setup,
/// warm-up, final quiesce), so there is nothing to rendezvous on.
///
/// # Panics
///
/// Panics if `f` panics for any shard.
pub(crate) fn map_each<T: Send, R: Send>(
    mode: ExecMode,
    items: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let items = items.into_iter().enumerate();
    match mode {
        ExecMode::Sequential => items.map(|(w, item)| f(w, item)).collect(),
        ExecMode::Threaded => std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .map(|(w, item)| {
                    let f = &f;
                    scope.spawn(move || f(w, item))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        }),
    }
}

/// Builds one value per shard with [`map_each`]'s scheduling: `f(w)` runs
/// *inside* worker `w`'s thread in threaded mode, so construction cost is
/// parallel too.
pub(crate) fn spawn_each<R: Send>(
    mode: ExecMode,
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    map_each(mode, vec![(); n], |w, ()| f(w))
}

/// A reusable rendezvous like [`std::sync::Barrier`], except that a
/// panicking participant can [`poison`](PoisonBarrier::poison) it: every
/// parked or future waiter panics instead of staying parked forever. The
/// epoch protocol rendezvouses hundreds of times per run, so without
/// poisoning a single engine panic inside one worker would deadlock the
/// other workers (and the coordinator) into an indefinite hang — in CI
/// that is a job timeout with the original panic message never surfaced.
struct PoisonBarrier {
    n: usize,
    state: Mutex<PoisonBarrierState>,
    cv: Condvar,
}

struct PoisonBarrierState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::new(PoisonBarrierState {
                count: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Recovers the state even if a panic inside `wait` poisoned the
    /// mutex — the barrier's own `poisoned` flag is the source of truth.
    fn lock(&self) -> MutexGuard<'_, PoisonBarrierState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until `n` participants arrive; returns `true` for exactly
    /// one of them (the leader).
    ///
    /// # Panics
    ///
    /// Panics if the barrier was poisoned (before or while waiting).
    fn wait(&self) -> bool {
        let mut st = self.lock();
        assert!(!st.poisoned, "a peer worker thread panicked");
        let generation = st.generation;
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            self.cv.notify_all();
            return true;
        }
        while st.generation == generation && !st.poisoned {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        assert!(!st.poisoned, "a peer worker thread panicked");
        false
    }

    fn poison(&self) {
        self.lock().poisoned = true;
        self.cv.notify_all();
    }
}

/// Poisons every barrier of the run if the owning thread unwinds, so a
/// panic anywhere in a worker fails the whole run loudly instead of
/// deadlocking the remaining rendezvous.
struct PoisonOnPanic<'a>([&'a PoisonBarrier; 3]);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for barrier in self.0 {
                barrier.poison();
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
            worker.value += w as u64 + 1;
        }
        fn deposit(&self, w: usize, worker: &mut ToyWorker, board: &mut ToyBoard) {
            self.record(("deposit", w, worker.epoch, worker.value));
            board.deposits[w] = worker.value;
        }
        fn merge(&self, board: &mut ToyBoard, verdicts: &mut [u64]) -> Epoch {
            assert!(!self.bomb_merge || board.epoch < 2, "merge boom");
            let sum: u64 = board.deposits.iter().sum();
            self.record(("merge", usize::MAX, board.epoch, sum));
            for (w, v) in verdicts.iter_mut().enumerate() {
                *v = sum + w as u64;
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
        let (workers, _) = drive(mode, workers, |_, worker| worker, toy, &mut board);
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
        drive(ExecMode::Threaded, vec![(); 3], enter, &toy, &mut board);
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
    fn map_each_keeps_worker_order_in_both_modes() {
        for mode in [ExecMode::Threaded, ExecMode::Sequential] {
            let built = spawn_each(mode, 5, |w| w * 10);
            assert_eq!(built, [0, 10, 20, 30, 40]);
            let mapped = map_each(mode, built, |w, x| x + w);
            assert_eq!(mapped, [0, 11, 22, 33, 44]);
        }
    }

    #[test]
    #[should_panic]
    fn a_panic_in_map_each_propagates() {
        spawn_each(ExecMode::Threaded, 3, |w| assert_ne!(w, 2));
    }
}
