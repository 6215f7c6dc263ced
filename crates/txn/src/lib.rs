//! # ssp-txn — transaction abstractions for the SSP reproduction
//!
//! Engine-agnostic building blocks shared by the SSP engine
//! (`ssp-core`) and the logging baselines (`ssp-baselines`):
//!
//! * [`engine`] — the [`engine::TxnEngine`] trait, the simulated
//!   `ATOMIC_BEGIN` / `ATOMIC_STORE` / `ATOMIC_END` ISA extension from
//!   Section 3.1 of the paper, plus write-set statistics (Table 3).
//! * [`shell`] — [`shell::TxnShell`], the state and behaviour every
//!   engine shares (machine, page table, TLBs, open transactions, ids);
//!   an engine is a shell plus its durability mechanism.
//! * [`vm`] — the NVRAM physical layout and a crash-safe virtual-memory
//!   manager with a persistent page table.
//! * [`heap`] — a persistent allocator whose metadata is updated
//!   transactionally, so allocations roll back with their transaction.
//! * [`view`] — typed field accessors for hand-laid-out persistent nodes.
//! * [`history`] — the byte-level oracle used by crash-consistency tests.
//! * [`occ`] — optimistic concurrency over one shared versioned heap:
//!   CoW page versions, speculative read/write sets, commit intents, and
//!   the deterministic first-committer-wins epoch validator.

#![warn(missing_docs)]

pub mod engine;
pub mod heap;
pub mod history;
pub mod occ;
pub mod shell;
pub mod view;
pub mod vm;

pub use engine::{TxnEngine, TxnId, TxnStats, WriteSetTracker};
pub use heap::PersistentHeap;
pub use history::Oracle;
pub use occ::{BackoffPolicy, CommitIntent, SpecTxn, Verdict, VersionedHeap};
pub use shell::TxnShell;
pub use vm::{NvLayout, VmManager, HEAP_BASE_VPN};
