//! Allocation-regression net for the simulator/engine hot path.
//!
//! The PR-5 optimization pass made the warm steady state of every engine
//! allocation-free: line spans and sub-page groups iterate without
//! collecting, commit/abort sorting reuses engine-owned scratch vectors,
//! per-transaction tracking state lives in per-core buffers that clear
//! but keep capacity, and the metadata journal drains its append buffer
//! in place. This test pins that property with a counting global
//! allocator so a stray `collect()` on the hot path fails CI instead of
//! silently costing throughput.
//!
//! Three workloads are driven, because they stress different structures:
//! `Sps` (two stores per transaction), `BTree-Rand` (load-dominated: the
//! TLB, the dense page tables and the L1 fast path) and a synthetic wide
//! transaction that stores to 72 distinct lines on 12 pages (the per-page
//! line bitmaps of the write-set tracker, UNDO's logged set and SSP's
//! write-set buffer; REDO's write-set map). A dense table or bitmap that
//! reallocates in the steady state, or a tracker that spills, fails here.
//!
//! "Warm" means the simulated memory the working set lives in exists on
//! the host: `PhysMem` frames are materialised on first write, by design.
//! Each workload therefore warms up until its working set has stopped
//! growing, and SSP runs with a small checkpoint threshold so its journal
//! ring has wrapped — and a checkpoint's dirty-slot walk falls inside the
//! measured window. Every engine runs every workload: the L3 holds no
//! line bytes (only an L1 does, allocated with it), so shadow paging's
//! B+-tree, whose commits keep reaching fresh (frame, line) pairs and so
//! fresh L3 sets, acquires nothing once its frames exist.
//!
//! Filling the hierarchy is held to a byte budget, not warmed past: a
//! sweep of one read per line over 12 288 lines, one in each set of the
//! default L3, may acquire at most 2 MiB (a byte counter beside the
//! allocation counter measures it). An L3 that kept a payload block per
//! set acquired 12 MiB there.
//!
//! A fourth, `HopTxn`, keeps every access off the TLB's most recently
//! used page, misses the TLB once per transaction with the TLB full, and
//! makes each store the first write to its line — under SSP, a line remap
//! (`CacheHierarchy::retag`): the three places where a hit used to move
//! memory on the host must not have started acquiring any.
//!
//! A power cycle is held to the same standard where it can be: shadow
//! paging's `crash()` + `recover()` with an empty journal allocates
//! nothing once it has run once.
//!
//! The file intentionally holds a single `#[test]`: the counter is
//! process-global, and a concurrently running test would perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ssp::simulator::addr::{PhysAddr, Vpn, PAGE_SIZE};
use ssp::simulator::cache::CoreId;
use ssp::simulator::config::{CacheConfig, MachineConfig};
use ssp::simulator::machine::Machine;
use ssp::simulator::obs::ObsConfig;
use ssp::simulator::phys::NVRAM_PPN_BASE;
use ssp::txn::engine::TxnEngine;
use ssp::workloads::dist::KeyDist;
use ssp::workloads::runner::Workload;
use ssp::workloads::sps::Sps;
use ssp::workloads::BTreeWorkload;
use ssp::{RedoLog, ShadowPaging, Ssp, SspConfig, UndoLog};

/// Counts every allocation and reallocation, and the bytes each asks
/// for; frees are uncounted (the claims are about acquiring memory, and a
/// free implies an earlier counted acquisition).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const C0: CoreId = CoreId::new(0);
const MEASURED_TXNS: u64 = 256;

/// Allocations tolerated across the whole measured phase (not per
/// transaction): a handful of one-off capacity growths that did not
/// stabilise during warm-up are acceptable; anything scaling with the
/// transaction count is a regression. 256 transactions at even one
/// allocation each would blow this bound 30× over.
const ALLOWED_ALLOCS: u64 = 8;

/// A transaction far wider than any benchmark workload's: one 8-byte
/// store to each of `WIDE_LINES_PER_PAGE` lines on each of `WIDE_PAGES`
/// pages (72 distinct lines, 12 pages — inside SSP's 64-page write-set
/// buffer, so no fall-back path), the lines rotating with every
/// transaction so the bitmaps see fresh bits, not repeats.
#[derive(Debug, Clone, Default)]
struct WideTxn {
    pages: Vec<Vpn>,
    round: u64,
}

const WIDE_PAGES: u64 = 12;
const WIDE_LINES_PER_PAGE: u64 = 6;

impl Workload for WideTxn {
    fn name(&self) -> &'static str {
        "Wide"
    }

    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        self.pages = (0..WIDE_PAGES).map(|_| engine.map_new_page(core)).collect();
    }

    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, _rng: &mut SmallRng) {
        self.round += 1;
        // Pages in descending order: the worst case for a sorted set.
        for (p, page) in self.pages.iter().enumerate().rev() {
            for l in 0..WIDE_LINES_PER_PAGE {
                let line = (self.round * 7 + p as u64 * 3 + l * 11) % 64;
                engine.store(core, page.base().add(line * 64), &self.round.to_le_bytes());
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.pages.clear();
    }
}

/// A transaction whose TX lines spill: the same two line indices stored
/// on each of `SPILL_PAGES` pages, under [`spilling_cfg`]'s 16 KiB L3. All
/// the pages' copies of one line index compete for one 8-way L1 set, so
/// from the ninth page on SSP's remap finds the set full of TX lines and
/// falls back to an explicit TX write (L1 copy dirty and transactional,
/// L3 copy clean), and REDO's TX writes are in that state from the start;
/// the next fills then push those lines out of the L3, which is smaller
/// than the L1 above it.
///
/// No public counter sees a spill (it replaces the commit-time flush of
/// the same line one for one), so the rate was counted once, with a
/// temporary counter, when this case was written: 24 spills per
/// transaction under SSP and 16 under REDO, every transaction. At the
/// parent of the PR that introduced the spill buffer each of them pushed
/// into a fresh `Vec`, and this case measured 6 144 (SSP) and 4 096
/// (REDO) allocations across the 256 transactions.
#[derive(Debug, Clone, Default)]
struct SpillTxn {
    pages: Vec<Vpn>,
    round: u64,
}

const SPILL_PAGES: u64 = 24;

impl Workload for SpillTxn {
    fn name(&self) -> &'static str {
        "Spill"
    }

    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        self.pages = (0..SPILL_PAGES)
            .map(|_| engine.map_new_page(core))
            .collect();
    }

    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, _rng: &mut SmallRng) {
        self.round += 1;
        for page in &self.pages {
            for l in 0..2 {
                let line = (self.round * 7 + l * 11) % 64;
                engine.store(core, page.base().add(line * 64), &self.round.to_le_bytes());
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.pages.clear();
    }
}

/// A transaction that hops between two pages of a ring half again as
/// large as the default 64-entry dTLB: page `round` (last touched by the
/// transaction before — a hit, but not on the MRU page once the log or
/// journal pages have been through the TLB) and page `round + 1` (last
/// touched a full lap ago — a miss that evicts the LRU entry of a full
/// TLB), loads alternating between the two, then one store to a line of
/// each that this transaction has not written: SSP's first-write path,
/// remap included.
#[derive(Debug, Clone, Default)]
struct HopTxn {
    pages: Vec<Vpn>,
    round: u64,
}

const HOP_PAGES: u64 = 96;

impl Workload for HopTxn {
    fn name(&self) -> &'static str {
        "Hop"
    }

    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        self.pages = (0..HOP_PAGES).map(|_| engine.map_new_page(core)).collect();
    }

    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, _rng: &mut SmallRng) {
        self.round += 1;
        let page = |i: u64| self.pages[((self.round + i) % HOP_PAGES) as usize];
        let line = self.round * 7 % 64;
        let mut word = [0u8; 8];
        for i in 0..4 {
            engine.load(core, page(i % 2).base().add(line * 64), &mut word);
        }
        for i in 0..2 {
            engine.store(
                core,
                page(i).base().add(line * 64),
                &self.round.to_le_bytes(),
            );
        }
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.pages.clear();
    }
}

/// The default machine with a 16-set, 16-way L3: half the L1's capacity,
/// so the inclusive L3 keeps evicting lines the L1 still holds.
fn spilling_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::default();
    cfg.l3 = CacheConfig {
        size_bytes: 16 * 16 * 64,
        ..cfg.l3
    };
    cfg
}

/// Runs `warmup` transactions, then `MEASURED_TXNS` more, and returns the
/// allocations the measured phase performed.
fn measured_allocs(
    engine: &mut dyn TxnEngine,
    workload: &mut dyn Workload,
    warmup: u64,
    rng: &mut SmallRng,
) -> u64 {
    for _ in 0..warmup {
        engine.begin(C0);
        workload.run_txn(engine, C0, rng);
        engine.commit(C0);
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..MEASURED_TXNS {
        engine.begin(C0);
        workload.run_txn(engine, C0, rng);
        engine.commit(C0);
    }
    ALLOCS.load(Ordering::SeqCst) - before
}

fn engines_with(cfg: fn() -> MachineConfig) -> [(&'static str, Box<dyn TxnEngine>); 4] {
    // 16 KiB of journal between checkpoints: 80 wide transactions.
    let ssp_cfg = SspConfig {
        checkpoint_threshold_bytes: 16 * 1024,
        ..SspConfig::default()
    };
    [
        ("SSP", Box::new(Ssp::new(cfg(), ssp_cfg))),
        ("UNDO-LOG", Box::new(UndoLog::new(cfg()))),
        ("REDO-LOG", Box::new(RedoLog::new(cfg()))),
        ("SHADOW", Box::new(ShadowPaging::new(cfg()))),
    ]
}

/// Each workload with the warm-up transactions its working set needs.
fn workloads() -> [(Box<dyn Workload>, u64); 3] {
    [
        (Box::new(Sps::new(1024, KeyDist::uniform(1024))), 400),
        (
            Box::new(BTreeWorkload::new(KeyDist::uniform(1024), 512)),
            1000,
        ),
        (Box::new(WideTxn::default()), 100),
    ]
}

fn assert_warm_budget(label: &str, cfg: fn() -> MachineConfig, workloads: usize) {
    for (mut workload, warmup) in self::workloads().into_iter().take(workloads) {
        for (name, mut engine) in engines_with(cfg) {
            workload.reset();
            workload.setup(engine.as_mut(), C0);
            let mut rng = SmallRng::seed_from_u64(0x5eed);
            let allocs = measured_allocs(engine.as_mut(), workload.as_mut(), warmup, &mut rng);
            assert!(
                allocs <= ALLOWED_ALLOCS,
                "{name} / {} ({label}): {allocs} heap allocations across {MEASURED_TXNS} \
                 warm transactions (allowed {ALLOWED_ALLOCS} total) — something on the \
                 hot path allocates again",
                workload.name()
            );
        }
    }
}

#[test]
fn warm_transaction_loop_is_allocation_free_for_every_engine() {
    // The L3 keeps no copy of the lines it holds: a sweep of one read per
    // line over 192 consecutive NVRAM pages — 12 288 lines, one in every
    // set of the default 12 MiB L3 — acquires next to nothing once the
    // machine is built. (A per-set payload block would be 12 MiB.)
    let mut machine = Machine::new(MachineConfig::default());
    let before = BYTES.load(Ordering::SeqCst);
    let base = NVRAM_PPN_BASE * PAGE_SIZE as u64;
    for line in 0..192 * 64 {
        machine.read(C0, PhysAddr::new(base + line * 64), &mut [0u8; 1]);
    }
    let acquired = BYTES.load(Ordering::SeqCst) - before;
    assert!(
        acquired <= 2 << 20,
        "a 12 288-line read sweep acquired {acquired} bytes — the L3 stores line bytes again"
    );
    drop(machine);

    // Tracing off (the default): the observability layer must not add a
    // single allocation — the ring holds no storage and every record call
    // is a branch on a cold bool.
    assert_warm_budget("tracing off", MachineConfig::default, 3);

    // Tracing fully on: the event ring is pre-sized at machine
    // construction and overwritten in place, so the warm loop stays
    // within the same budget — zero allocations per transaction. `Sps`
    // alone: what a record call costs does not depend on the workload.
    fn traced() -> MachineConfig {
        MachineConfig {
            obs: ObsConfig::tracing(),
            ..MachineConfig::default()
        }
    }
    assert_warm_budget("tracing on", traced, 1);

    // TX lines spilling out of the hierarchy in the steady state. UNDO and
    // shadow paging never write a TX line, so they have nothing to spill.
    for (name, mut engine) in engines_with(spilling_cfg) {
        if name != "SSP" && name != "REDO-LOG" {
            continue;
        }
        let mut workload = SpillTxn::default();
        workload.setup(engine.as_mut(), C0);
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let allocs = measured_allocs(engine.as_mut(), &mut workload, 200, &mut rng);
        assert!(
            allocs <= ALLOWED_ALLOCS,
            "{name} / Spill: {allocs} heap allocations across {MEASURED_TXNS} warm \
             transactions (allowed {ALLOWED_ALLOCS} total) — a TX spill allocates again"
        );
    }

    // Off the TLB's MRU page on every access, one TLB miss into a full
    // TLB per transaction and, under SSP, two line remaps.
    for (name, mut engine) in engines_with(MachineConfig::default) {
        let mut workload = HopTxn::default();
        workload.setup(engine.as_mut(), C0);
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let counters = |engine: &dyn TxnEngine| {
            let stats = engine.machine().stats();
            (stats.tlb_misses, stats.flip_broadcasts)
        };
        let (misses, remaps) = counters(engine.as_ref());
        // Two laps of the ring to warm up: every page's frames, both
        // copies of every line SSP remaps and the L3 sets they index
        // exist on the host.
        let warmup = 2 * HOP_PAGES;
        let allocs = measured_allocs(engine.as_mut(), &mut workload, warmup, &mut rng);
        let txns = warmup + MEASURED_TXNS;
        let (misses, remaps) = (
            counters(engine.as_ref()).0 - misses,
            counters(engine.as_ref()).1 - remaps,
        );
        assert!(misses >= txns, "{name} / Hop: {misses} TLB misses");
        assert_eq!(remaps, if name == "SSP" { 2 * txns } else { 0 });
        assert!(
            allocs <= ALLOWED_ALLOCS,
            "{name} / Hop: {allocs} heap allocations across {MEASURED_TXNS} warm \
             transactions (allowed {ALLOWED_ALLOCS} total) — a TLB hit off the MRU page, \
             a TLB fill or a line remap allocates again"
        );
    }

    // Shadow paging's power cycle with nothing to replay: the frame pool
    // it rebuilds is a fixed bitmap under a stack that keeps its
    // capacity, so once one cycle has run the next hundred allocate
    // nothing at all.
    let mut shadow = ShadowPaging::new(MachineConfig::default());
    for _ in 0..64 {
        shadow.map_new_page(C0);
    }
    shadow.crash_and_recover();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..100 {
        shadow.crash();
        shadow.recover();
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "SHADOW: {allocs} heap allocations across 100 crash + recover cycles with an \
         empty journal — recovery builds its frame pool on the heap again"
    );
}
