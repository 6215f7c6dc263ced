//! Conventional page-granularity shadow paging — the mechanism SSP
//! refines, kept as an ablation.
//!
//! The first transactional write to a page copies the **whole page** to a
//! shadow frame (the copy-on-write the paper calls out as writing up to
//! 64× more cache lines than necessary); further writes hit the shadow.
//! Commit flushes the dirty shadow lines, journals the `(vpn → shadow)`
//! remap list with a commit mark, and atomically repoints the page table.

use fxhash::FxHashMap;
use ssp_simulator::addr::{LineIdx, PhysAddr, Ppn, VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_simulator::fault::FaultSite;
use ssp_simulator::machine::Machine;
use ssp_simulator::stats::WriteClass;
use ssp_simulator::timing::{AccessKind, MemKind};
use ssp_txn::engine::{line_spans, sorted_scratch, TxnEngine, TxnStats};
use ssp_txn::shell::TxnShell;
use ssp_txn::vm::{HEAP_BASE_VPN, SHADOW_PAGES};

use crate::common::{CoreJournal, LogEntry};

/// Frames this engine allocates from: the first `POOL_FRAMES` pages of
/// the layout's shadow region.
const POOL_FRAMES: u64 = 16384;
const _: () = assert!(POOL_FRAMES <= SHADOW_PAGES);

/// The conventional shadow-paging engine.
///
/// # Examples
///
/// ```
/// use ssp_baselines::ShadowPaging;
/// use ssp_simulator::cache::CoreId;
/// use ssp_simulator::config::MachineConfig;
/// use ssp_txn::engine::TxnEngine;
///
/// let mut e = ShadowPaging::new(MachineConfig::default());
/// let core = CoreId::new(0);
/// let addr = e.map_new_page(core).base();
/// e.begin(core);
/// e.store(core, addr, &7u64.to_le_bytes());
/// e.commit(core);
/// e.crash_and_recover();
/// let mut buf = [0u8; 8];
/// e.load(core, addr, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 7);
/// ```
#[derive(Debug, Clone)]
pub struct ShadowPaging {
    shell: TxnShell,
    /// Remap journals (the log machinery reused: one entry per remapped
    /// page, `paddr` holds the new frame).
    journals: Vec<CoreJournal>,
    /// Per-core vpn → shadow frame for pages CoW'd by the open
    /// transaction (cleared, capacity kept, at commit/abort).
    shadows: Vec<FxHashMap<u64, Ppn>>,
    /// Per-core distinct lines actually written (flushed at commit).
    dirty_lines: Vec<Vec<PhysAddr>>,
    /// Reusable commit/abort scratch: the remap list sorted by VPN.
    scratch_remaps: Vec<(u64, Ppn)>,
    free_frames: FramePool,
}

/// The free-frame stack. A rebuild leaves every unmapped pool frame on it,
/// lowest on top — held as what that is, an ascending scan over the
/// bitmap of frames the page table references, not as 16 384 pushed
/// entries. Frames freed since (aborted shadows, the frames commits
/// repoint away from — home frames among them) sit above the scan and pop
/// first, last freed first; the next rebuild forgets them.
#[derive(Debug, Clone)]
struct FramePool {
    /// First frame of the layout's shadow region.
    base: Ppn,
    freed: Vec<Ppn>,
    /// Pool frames the page table referenced at the last rebuild, one bit
    /// per frame.
    mapped: Box<[u64; (POOL_FRAMES / 64) as usize]>,
    /// Pool frames below this index have been popped (or are mapped).
    cursor: u64,
}

impl FramePool {
    fn new(base: Ppn) -> Self {
        Self {
            base,
            freed: Vec::new(),
            mapped: Box::new([0; (POOL_FRAMES / 64) as usize]),
            cursor: 0,
        }
    }

    /// Restarts the pool as every pool frame not among `mapped` — the
    /// frames the page table references, pool frames or not.
    fn rebuild(&mut self, mapped: impl Iterator<Item = Ppn>) {
        self.freed.clear();
        self.mapped.fill(0);
        self.cursor = 0;
        for ppn in mapped {
            // A page never CoW'd still sits in its home frame, outside
            // the pool.
            let index = ppn.raw().wrapping_sub(self.base.raw());
            if index < POOL_FRAMES {
                self.mapped[(index / 64) as usize] |= 1 << (index % 64);
            }
        }
    }

    fn push(&mut self, frame: Ppn) {
        self.freed.push(frame);
    }

    fn pop(&mut self) -> Option<Ppn> {
        if let Some(frame) = self.freed.pop() {
            return Some(frame);
        }
        while self.cursor < POOL_FRAMES {
            let unmapped = !self.mapped[(self.cursor / 64) as usize] >> (self.cursor % 64);
            if unmapped != 0 {
                let index = self.cursor + unmapped.trailing_zeros() as u64;
                self.cursor = index + 1;
                return Some(Ppn::new(self.base.raw() + index));
            }
            self.cursor = (self.cursor / 64 + 1) * 64;
        }
        None
    }
}

impl ShadowPaging {
    /// Builds a shadow-paging machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let shell = TxnShell::new(cfg);
        let cores = shell.cores();
        let mut engine = Self {
            journals: CoreJournal::per_core(shell.layout(), cores),
            shadows: vec![FxHashMap::default(); cores],
            dirty_lines: vec![Vec::new(); cores],
            scratch_remaps: Vec::new(),
            free_frames: FramePool::new(shell.layout().shadow_page(0)),
            shell,
        };
        engine.rebuild_pool();
        engine
    }

    /// Refills the free-frame pool with every pool frame the page table
    /// does not reference, lowest frame on top (popped first).
    fn rebuild_pool(&mut self) {
        let vm = &self.shell.vm;
        let mapped =
            (0..vm.mapped_pages()).filter_map(|i| vm.translate(Vpn::new(HEAP_BASE_VPN + i)));
        self.free_frames.rebuild(mapped);
    }

    /// Resolves an address, honouring the transaction's shadow mappings
    /// over the page table's (whose TLB entries commit keeps current).
    fn resolve(&mut self, core: CoreId, addr: VirtAddr) -> PhysAddr {
        let (home, _) = self.shell.walk(core, addr.vpn());
        let ppn = self.shadows[core.index()]
            .get(&addr.vpn().raw())
            .copied()
            .unwrap_or(home);
        PhysAddr::new(ppn.base().raw() + addr.page_offset() as u64)
    }

    /// Copy-on-write of a whole page into a fresh shadow frame — charged to
    /// the core: this is the critical-path cost SSP eliminates.
    fn cow_page(&mut self, core: CoreId, vpn: Vpn) -> Ppn {
        let (home, _) = self.shell.walk(core, vpn);
        let shadow = self.free_frames.pop().expect("shadow frame pool exhausted");
        let machine = &mut self.shell.machine;
        let copy_cycles = machine.persist_share(
            machine.array_cycles(MemKind::Nvram, AccessKind::Read)
                + machine.array_cycles(MemKind::Nvram, AccessKind::Write),
        );
        for line in LineIdx::all() {
            // The frame may have been recycled: drop any stale cached lines
            // under its identity before the uncached copy lands.
            machine.discard_line(shadow.line_addr(line));
            machine.copy_line_uncached(
                home.line_addr(line),
                shadow.line_addr(line),
                WriteClass::PageCopy,
            );
            machine.add_cycles(core, copy_cycles.max(1));
        }
        self.shadows[core.index()].insert(vpn.raw(), shadow);
        shadow
    }

    /// A plain (non-TX) write into the page's shadow frame, which is
    /// private until commit: the hierarchy may write it home at any time.
    fn store_line(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        let vpn = addr.vpn();
        if !self.shadows[core.index()].contains_key(&vpn.raw()) {
            self.cow_page(core, vpn);
        }
        let paddr = self.resolve(core, addr);
        self.shell.machine.write(core, paddr, data, false);
        let line = paddr.line_base();
        let dirty = &mut self.dirty_lines[core.index()];
        if !dirty.contains(&line) {
            dirty.push(line);
        }
    }
}

impl TxnEngine for ShadowPaging {
    fn name(&self) -> &'static str {
        "SHADOW"
    }

    fn machine(&self) -> &Machine {
        &self.shell.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.shell.machine
    }

    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        self.shell.map_new_page(core)
    }

    fn begin(&mut self, core: CoreId) {
        self.shell.begin(core);
    }

    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        self.shell.on_load(addr);
        for span in line_spans(addr, buf.len()) {
            let paddr = self.resolve(core, span.addr);
            self.shell.machine.read(core, paddr, span.of_mut(buf));
        }
    }

    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        self.shell.on_store(core, addr, data.len());
        for span in line_spans(addr, data.len()) {
            self.store_line(core, span.addr, span.of(data));
        }
    }

    fn commit(&mut self, core: CoreId) {
        let tid = self.shell.begin_commit(core);
        let machine = &mut self.shell.machine;
        // 1. Persist the written shadow lines.
        for &line in &self.dirty_lines[core.index()] {
            machine.flush(Some(core), line, WriteClass::Data);
        }
        self.dirty_lines[core.index()].clear();
        // 2. Journal the remap list + commit mark, then repoint the page
        //    table (replayed at recovery for torn multi-page commits).
        //    Sorted by VPN: the map's hash order varies per instance, and
        //    journal order, free-list order and TLB refills all reach the
        //    machine (determinism contract of `TxnEngine`). The sort runs
        //    in an engine-owned scratch vector (no per-commit allocation).
        let remaps = sorted_scratch(
            &mut self.scratch_remaps,
            self.shadows[core.index()].drain(),
            |&(v, _)| v,
        );
        let journal = &mut self.journals[core.index()];
        for &(vpn_raw, shadow) in &remaps {
            let entry = LogEntry {
                tid,
                paddr: shadow.base(),
                vaddr: Vpn::new(vpn_raw).base(),
                data: [0u8; 64],
            };
            let cycles = journal.log.append(machine, &entry);
            machine.add_cycles(core, machine.persist_share(cycles).max(1));
        }
        journal.log.persist_head(machine, Some(core));
        // Fault site: remap journal durable, commit register not yet
        // bumped — a cut here must roll the transaction back on recovery.
        machine.fault_point(FaultSite::CommitData);
        journal.commit.commit(machine, Some(core), tid);
        // Fault site: the commit register is durable — a cut here must
        // keep the transaction (recovery replays the remaps).
        machine.fault_point(FaultSite::CommitMark);
        for &(vpn_raw, shadow) in &remaps {
            let vpn = Vpn::new(vpn_raw);
            let old = self.shell.vm.translate(vpn).expect("mapped page");
            self.shell.vm.update_mapping(machine, vpn, shadow);
            self.free_frames.push(old);
            // The TLB entry now translates to the shadow frame.
            for tlb in &mut self.shell.tlbs {
                if tlb.peek(vpn).is_some() {
                    let _ = tlb.insert(vpn, shadow);
                }
            }
        }
        self.scratch_remaps = remaps;
        journal.log.truncate();
        self.shell.finish_commit(core, tid);
    }

    fn abort(&mut self, core: CoreId) {
        self.shell.begin_abort(core);
        // Sorted by VPN: recycling order decides future frame allocation,
        // and the map's hash order varies per instance.
        let dropped = sorted_scratch(
            &mut self.scratch_remaps,
            self.shadows[core.index()].drain(),
            |&(v, _)| v,
        );
        // Shadow frames were never published: just recycle them.
        for &(_, shadow) in &dropped {
            self.free_frames.push(shadow);
        }
        self.scratch_remaps = dropped;
        for &line in &self.dirty_lines[core.index()] {
            self.shell.machine.discard_line(line);
        }
        self.dirty_lines[core.index()].clear();
        self.journals[core.index()].log.truncate();
        self.shell.finish_abort(core);
    }

    fn crash(&mut self) {
        self.shell.power_off();
        for m in &mut self.shadows {
            m.clear();
        }
        for d in &mut self.dirty_lines {
            d.clear();
        }
    }

    fn recover(&mut self) {
        self.shell.begin_recovery();
        let machine = &mut self.shell.machine;
        // Fault site: before any remap replay writes land — a crash
        // *during recovery*; rerunning recovery must succeed (remap
        // replay is idempotent).
        machine.fault_point(FaultSite::Recovery);
        let mut max_tid = 0;
        for journal in &mut self.journals {
            // Replay remaps of committed transactions (idempotent).
            let (committed, entries) = journal.recover(machine, &mut max_tid);
            for entry in entries.iter().filter(|e| e.tid <= committed) {
                self.shell
                    .vm
                    .update_mapping(machine, entry.vaddr.vpn(), entry.paddr.ppn());
            }
        }
        self.rebuild_pool();
        self.shell.resume_tids_after(max_tid);
    }

    fn in_txn(&self, core: CoreId) -> bool {
        self.shell.in_txn(core)
    }

    fn txn_stats(&self) -> &TxnStats {
        &self.shell.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId::new(0);

    fn engine() -> ShadowPaging {
        ShadowPaging::new(MachineConfig::default())
    }

    fn read_u64(e: &mut ShadowPaging, addr: VirtAddr) -> u64 {
        let mut buf = [0u8; 8];
        e.load(C0, addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    #[test]
    fn committed_survives_crash() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &5u64.to_le_bytes());
        e.commit(C0);
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, addr), 5);
    }

    #[test]
    fn uncommitted_vanishes_on_crash() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &1u64.to_le_bytes());
        e.commit(C0);
        e.begin(C0);
        e.store(C0, addr, &2u64.to_le_bytes());
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, addr), 1);
    }

    #[test]
    fn cow_copies_full_page() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &1u64.to_le_bytes()); // one tiny store
        e.commit(C0);
        // 64 lines were copied for it.
        assert_eq!(e.machine().stats().nvram_writes(WriteClass::PageCopy), 64);
    }

    #[test]
    fn unwritten_data_preserved_across_cow() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr.add(2048), &99u64.to_le_bytes());
        e.commit(C0);
        e.begin(C0);
        e.store(C0, addr, &1u64.to_le_bytes());
        e.commit(C0);
        // The line at 2048 travelled through the CoW.
        assert_eq!(read_u64(&mut e, addr.add(2048)), 99);
        assert_eq!(read_u64(&mut e, addr), 1);
    }

    #[test]
    fn abort_recycles_shadow_frames() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        let free_before = e.free_frames.as_vec().len();
        e.begin(C0);
        e.store(C0, addr, &1u64.to_le_bytes());
        e.abort(C0);
        assert_eq!(e.free_frames.as_vec().len(), free_before);
        assert_eq!(read_u64(&mut e, addr), 0);
    }

    #[test]
    fn first_tid_after_recovery_exceeds_every_durable_tid() {
        crate::common::assert_tids_resume_above_every_durable_one(&mut engine(), |e| {
            e.shell.tid(C0)
        });
    }

    #[test]
    fn multi_page_atomicity() {
        let mut e = engine();
        let a = e.map_new_page(C0).base();
        let b = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, a, &1u64.to_le_bytes());
        e.store(C0, b, &2u64.to_le_bytes());
        e.commit(C0);
        e.begin(C0);
        e.store(C0, a, &3u64.to_le_bytes());
        e.store(C0, b, &4u64.to_le_bytes());
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, a), 1);
        assert_eq!(read_u64(&mut e, b), 2);
    }

    #[test]
    fn repeated_commits_alternate_frames() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        for i in 0..5u64 {
            e.begin(C0);
            e.store(C0, addr, &i.to_le_bytes());
            e.commit(C0);
            assert_eq!(read_u64(&mut e, addr), i);
        }
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, addr), 4);
    }

    impl FramePool {
        /// The pool as the `Vec` it replaced: every free frame, last
        /// popped first (the pool itself is untouched).
        fn as_vec(&self) -> Vec<Ppn> {
            let mut pool = self.clone();
            let mut frames: Vec<Ppn> = std::iter::from_fn(|| pool.pop()).collect();
            frames.reverse();
            frames
        }
    }

    /// The pool `FramePool` replaced, kept as its reference: a `Vec`
    /// rebuilt eagerly (popped from the back) from every pool frame,
    /// filtered through a hash set of the mapped ones.
    fn pool_by_hash_set(e: &ShadowPaging) -> Vec<Ppn> {
        let layout = ssp_txn::vm::NvLayout::default();
        let used: fxhash::FxHashSet<u64> = (0..e.shell.vm.mapped_pages())
            .filter_map(|i| {
                e.shell
                    .vm
                    .translate(Vpn::new(HEAP_BASE_VPN + i))
                    .map(|p| p.raw())
            })
            .collect();
        (0..SHADOW_PAGES.min(16384))
            .rev()
            .map(|i| layout.shadow_page(i))
            .filter(|p| !used.contains(&p.raw()))
            .collect()
    }

    #[test]
    fn recovered_pool_equals_the_hash_set_filter() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        assert_eq!(engine().free_frames.as_vec(), pool_by_hash_set(&engine()));
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut e = engine();
            let pages: Vec<VirtAddr> = (0..12).map(|_| e.map_new_page(C0).base()).collect();
            for round in 0..40u64 {
                e.begin(C0);
                for _ in 0..rng.gen_range(1..5u32) {
                    let page = pages[rng.gen_range(0..pages.len())];
                    e.store(
                        C0,
                        page.add(rng.gen_range(0..512u64) * 8),
                        &round.to_le_bytes(),
                    );
                }
                match rng.gen_range(0..8u32) {
                    0 => e.abort(C0),
                    // Torn: power fails with the transaction open, or cut
                    // inside its commit on either side of the mark.
                    1 => e.crash_and_recover(),
                    2 | 3 => {
                        let site = if rng.gen_bool(0.5) {
                            FaultSite::CommitData
                        } else {
                            FaultSite::CommitMark
                        };
                        e.machine_mut()
                            .arm_crash(ssp_simulator::fault::CrashPoint::AtSite { site, hits: 1 });
                        e.commit(C0);
                        assert!(e.machine().power_lost());
                        e.crash_and_recover();
                    }
                    _ => e.commit(C0),
                }
                if round % 8 != 7 {
                    continue;
                }
                e.crash_and_recover();
                let free = e.free_frames.as_vec();
                assert_eq!(free, pool_by_hash_set(&e), "seed {seed}");
                for page in &pages {
                    let backing = e.shell.vm.translate(page.vpn()).unwrap();
                    assert!(!free.contains(&backing), "seed {seed}");
                }
            }
            assert!(
                (e.free_frames.as_vec().len() as u64) < POOL_FRAMES,
                "no page was ever remapped"
            );
        }
    }

    /// Drives the engine beside the eager `Vec` pool it replaced
    /// ([`pool_by_hash_set`] as the rebuild, `push`, `pop`): every
    /// copy-on-write must take the frame the `Vec` would have popped,
    /// through commits (which push home frames no rebuild knows), aborts,
    /// torn commits and recoveries (which forget them).
    #[test]
    fn every_cow_takes_the_frame_the_eager_vec_would_pop() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut e = engine();
            let pages: Vec<VirtAddr> = (0..12).map(|_| e.map_new_page(C0).base()).collect();
            let mut model = pool_by_hash_set(&e);
            let mut home_recycled = false;
            for round in 0..200u64 {
                e.begin(C0);
                for _ in 0..rng.gen_range(1..5u32) {
                    let page = pages[rng.gen_range(0..pages.len())];
                    let copied = !e.shadows[0].contains_key(&page.vpn().raw());
                    e.store(
                        C0,
                        page.add(rng.gen_range(0..512u64) * 8),
                        &round.to_le_bytes(),
                    );
                    if copied {
                        let took = e.shadows[0][&page.vpn().raw()];
                        assert_eq!(Some(took), model.pop(), "seed {seed} round {round}");
                        home_recycled |= took.raw() >= e.shell.layout().heap_base.raw();
                    }
                }
                // What the open transaction frees, in the order it does.
                let mut shadows: Vec<(u64, Ppn)> =
                    e.shadows[0].iter().map(|(&v, &s)| (v, s)).collect();
                shadows.sort_unstable_by_key(|&(v, _)| v);
                match rng.gen_range(0..8u32) {
                    0 => {
                        e.abort(C0);
                        model.extend(shadows.iter().map(|&(_, shadow)| shadow));
                    }
                    1 => {
                        e.crash_and_recover();
                        model = pool_by_hash_set(&e);
                    }
                    2 | 3 => {
                        let site = if rng.gen_bool(0.5) {
                            FaultSite::CommitData
                        } else {
                            FaultSite::CommitMark
                        };
                        e.machine_mut()
                            .arm_crash(ssp_simulator::fault::CrashPoint::AtSite { site, hits: 1 });
                        e.commit(C0);
                        e.crash_and_recover();
                        model = pool_by_hash_set(&e);
                    }
                    _ => {
                        let olds = shadows
                            .iter()
                            .map(|&(v, _)| e.shell.vm.translate(Vpn::new(v)).unwrap());
                        model.extend(olds);
                        e.commit(C0);
                    }
                }
            }
            assert_eq!(e.free_frames.as_vec(), model, "seed {seed}");
            assert!(home_recycled, "seed {seed}: no home frame became a shadow");
        }
    }

    #[test]
    #[should_panic(expected = "shadow frame pool exhausted")]
    fn an_exhausted_pool_panics_at_the_next_cow() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        assert_eq!(
            std::iter::from_fn(|| e.free_frames.pop()).count() as u64,
            POOL_FRAMES
        );
        e.begin(C0);
        e.store(C0, addr, &1u64.to_le_bytes());
    }

    #[test]
    fn frame_pool_rebuilt_after_recovery() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &1u64.to_le_bytes());
        e.commit(C0);
        e.crash_and_recover();
        // The frame now backing the page must not be in the free pool.
        let backing = e.shell.vm.translate(addr.vpn()).unwrap();
        assert!(!e.free_frames.as_vec().contains(&backing));
    }
}
