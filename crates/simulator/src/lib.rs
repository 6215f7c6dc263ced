//! # ssp-simulator — machine substrate for the SSP reproduction
//!
//! This crate replaces the MarssX86 + DRAMSim2 stack used by the paper
//! *SSP: Eliminating Redundant Writes in Failure-Atomic NVRAMs via Shadow
//! Sub-Paging* (MICRO 2019) with a deterministic, trace-driven machine
//! model:
//!
//! * [`phys`] — physical page frames split into volatile DRAM and
//!   persistent NVRAM regions, the crash boundary, and the one port every
//!   memory write passes (timed, counted and dropped after a power cut).
//! * [`timing`] — bank/open-row latency model with the paper's Table 2
//!   parameters (50 ns DRAM, 50/200 ns NVRAM read/write).
//! * [`cache`] — per-core L1, per-core L2 tags, shared inclusive L3 with an
//!   MSI directory, transactional (TX) line bits, and SSP's line *retag*.
//! * [`tlb`] — a fully-associative LRU DTLB generic over an extension
//!   payload (SSP widens entries; baselines use `()`).
//! * [`machine`] — the facade gluing these together with per-core cycle
//!   accounting and NVRAM write counters classified by purpose.
//! * [`fault`] — deterministic fault injection: crash points armed at
//!   exact virtual times or named engine sites cut the power at the
//!   memory port — no write lands after the cut instant — while the
//!   simulation runs on (the crash-storm harness's trigger layer).
//! * [`interconnect`] / [`bankq`] — the deterministic *cross-shard*
//!   memory-controller model: shards record their memory events against
//!   local virtual time, and at epoch boundaries the run driver merges
//!   the streams through shared per-bank FIFO queues, charging queueing
//!   delay back to each shard's clock (disabled by default; see
//!   [`config::InterconnectConfig`]).
//!
//! The substrate is *functional*: stores move real bytes, dirty lines live
//! only in caches until written back or flushed, and
//! [`Machine::crash`](machine::Machine::crash) discards everything volatile.
//! Crash-recovery correctness of the engines built on top is therefore
//! directly testable.
//!
//! # Examples
//!
//! ```
//! use ssp_simulator::addr::PhysAddr;
//! use ssp_simulator::cache::CoreId;
//! use ssp_simulator::config::MachineConfig;
//! use ssp_simulator::machine::Machine;
//! use ssp_simulator::phys::NVRAM_PPN_BASE;
//! use ssp_simulator::stats::WriteClass;
//!
//! let mut m = Machine::new(MachineConfig::default());
//! let core = CoreId::new(0);
//! let addr = PhysAddr::new(NVRAM_PPN_BASE * 4096);
//!
//! m.write(core, addr, b"hello", false);
//! m.flush(Some(core), addr, WriteClass::Data); // clwb: survives the crash below
//! m.crash();
//!
//! let mut buf = [0u8; 5];
//! m.read(core, addr, &mut buf);
//! assert_eq!(&buf, b"hello");
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod bankq;
pub mod cache;
pub mod config;
mod fastmod;
pub mod fault;
pub mod interconnect;
pub mod machine;
pub mod obs;
pub mod phys;
pub mod stats;
pub mod timing;
pub mod tlb;

pub use addr::{LineIdx, PhysAddr, Ppn, VirtAddr, Vpn, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
pub use cache::{CoreId, TxEviction};
pub use config::{InterconnectConfig, MachineConfig};
pub use fault::{CrashPoint, FaultSite};
pub use interconnect::{EpochCharge, Interconnect, MemEvent};
pub use machine::Machine;
pub use obs::{LatencyHistogram, LatencyStats, ObsConfig, ObsEvent, ObsKind, ObsRing};
pub use stats::{MachineStats, WriteClass};
