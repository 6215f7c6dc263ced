//! # ssp-workloads — the paper's benchmark programs
//!
//! Persistent data structures built on the transactional interface, the
//! key distributions of Section 5.1, and the drivers that measure them:
//!
//! * [`btree`] — persistent B+-tree (BTree-Rand / BTree-Zipf)
//! * [`rbtree`] — persistent red-black tree (RBTree-Rand / RBTree-Zipf)
//! * [`hash`] — persistent chained hashtable (Hash-Rand / Hash-Zipf)
//! * [`sps`] — array element swaps (SPS)
//! * [`kvcache`] — memcached-like LRU cache + memslap-style generator
//! * [`vacation`] — STAMP-Vacation-like reservation OLTP emulation
//! * [`dist`] — uniform and "80% of updates to 15% of keys" skew
//! * [`conflict`] — the conflict-dial workload ([`conflict::ConflictSps`]):
//!   SPS swaps over a shared region + per-worker private slices
//!
//! # Run drivers
//!
//! [`runner::warm_single`] is the legacy single-machine driver:
//! transactions round-robin over the simulated cores of *one* machine, on
//! the calling thread (Tables 4/5's four-clients-on-one-machine cells have no sharded
//! equivalent). Every other driver shards the machine per worker and is a
//! *protocol* over one crate-private scheduler, `kernel.rs`: a shard is
//! built, run and finished inside its own thread — `local` runs it to
//! its epoch boundary, `deposit` hands the epoch's output to a shared
//! board, exactly one `merge` per epoch resolves it, `apply` takes each
//! shard's verdict. [`runner::ExecMode::Threaded`] schedules those four
//! functions on one real thread per shard with one rendezvous per epoch
//! (the last shard to arrive runs `merge`, then releases the others);
//! [`runner::ExecMode::Sequential`] calls the same four functions
//! in worker-index order on the calling thread, which is why the two
//! modes are bit-identical for every driver.
//!
//! | Driver | `local` | `merge` | `apply` | Board |
//! |---|---|---|---|---|
//! | [`runner::run_parallel`], [`storm::run_storm`] (the same closed-loop shard; the storm's is oracle-wrapped and carries a fault plan) | transactions up to the epoch boundary — the whole share with the interconnect off (storm: the storm sequence after every cut) | arbitrate the interconnect streams | charge the shard clock (storm: crash + recover + verify if the charge tripped the cut) | interconnect board |
//! | [`shared::run_shared`], [`shared::run_shared_crash_probe`] | speculate against the heap snapshot | arbitrate + validate commit intents first-committer-wins | charge, replay winners through the engine (probe: the same fault plan after each replay), queue losers | heap + intents + interconnect board |
//! | [`service::run_service`] | scheduling steps until the arrivals drain | — (one epoch) | — | none |
//!
//! * [`runner`] — [`runner::warm_single`], [`runner::run_parallel`] and
//!   their warm/measure splits, all producing [`runner::RunResult`]
//! * [`storm`] — the crash-storm driver: scheduled power cuts under full
//!   traffic, oracle-verified recovery after every storm
//! * [`shared`] — the shared-heap driver: N clients against ONE
//!   versioned store, optimistic concurrency with deterministic
//!   epoch-boundary conflict resolution
//! * [`service`] — the service-mode driver: open-loop arrivals, bounded
//!   queues, admission control, deadlines with bounded retry, group
//!   commit, and recovery-under-fire

#![warn(missing_docs)]

pub mod btree;
pub mod conflict;
pub mod dist;
pub mod hash;
mod kernel;
pub mod kvcache;
pub mod rbtree;
pub mod runner;
pub mod service;
pub mod shared;
pub mod sps;
pub mod storm;
pub mod vacation;

pub use btree::{BTree, BTreeWorkload};
pub use conflict::ConflictSps;
pub use dist::KeyDist;
pub use hash::{HashTable, HashWorkload};
pub use kvcache::{KvCache, MemcachedWorkload};
pub use rbtree::{RbTree, RbTreeWorkload};
pub use runner::{run_parallel, ExecMode, ParallelRun, RunConfig, RunResult, ShardRun, Workload};
pub use service::{
    run_service, AdmissionPolicy, ArrivalShape, DrainPoint, ServiceConfig, ServiceRun,
    ServiceShardRun, ServiceStats,
};
pub use shared::{
    run_shared, run_shared_crash_probe, SharedCrashReport, SharedHeapConfig, SharedRun,
    SharedShardRun, SharedStats,
};
pub use sps::Sps;
pub use storm::{run_storm, OracleEngine, StormPoint, StormRun, StormSchedule, StormShardReport};
pub use vacation::VacationWorkload;
