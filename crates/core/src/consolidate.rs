//! Page consolidation (Section 3.4 of the paper).
//!
//! When a virtual page is no longer referenced by any TLB and has no
//! in-flight transactional updates, its two physical pages are merged into
//! one so the 2× capacity overhead only applies to actively-updated pages.
//! The side holding *fewer* committed lines is copied into the other; if
//! the shadow page wins, the page roles swap and the virtual mapping is
//! repointed. The result is made durable with a single `Remap` journal
//! record — crash-safe because the copy only ever overwrites non-committed
//! line slots.

use ssp_simulator::machine::Machine;
use ssp_simulator::stats::WriteClass;
use ssp_txn::vm::VmManager;

use crate::bitmap::LineBitmap;
use crate::journal::{MetaJournal, Record, SlotId};
use crate::ssp_cache::SspCache;

/// Statistics of the consolidation machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsolidationStats {
    /// Pages consolidated (including trivial ones with nothing to copy).
    pub pages: u64,
    /// Cache lines copied between the physical pages.
    pub lines_copied: u64,
    /// Consolidations that swapped the page roles (shadow page won).
    pub swaps: u64,
}

/// The consolidation engine: a queue plus the merge routine.
///
/// The paper performs merges on a background OS thread; the simulator runs
/// them synchronously but does **not** charge their latency to any core —
/// only their NVRAM writes are counted (class
/// [`WriteClass::Consolidation`]).
#[derive(Debug, Clone)]
pub struct Consolidator {
    queue: Vec<SlotId>,
    stats: ConsolidationStats,
    /// Cache lines per tracked sub-page bit (Section 4.3; 1 = base design).
    lines_per_subpage: u8,
}

impl Default for Consolidator {
    fn default() -> Self {
        Self::new()
    }
}

impl Consolidator {
    /// Creates an idle consolidator for 64 B sub-pages.
    pub fn new() -> Self {
        Self::with_subpage(1)
    }

    /// Creates a consolidator for `lines_per_subpage`-line sub-pages.
    pub fn with_subpage(lines_per_subpage: usize) -> Self {
        Self {
            queue: Vec::new(),
            stats: ConsolidationStats::default(),
            lines_per_subpage: lines_per_subpage.max(1) as u8,
        }
    }

    /// Consolidation statistics so far.
    pub fn stats(&self) -> ConsolidationStats {
        self.stats
    }

    /// Number of queued pages (nonzero only mid-drain).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues slot `sid` if its page is inactive (no TLB holds it, no
    /// core has uncommitted updates) and not already queued.
    pub fn enqueue_if_inactive(&mut self, cache: &mut SspCache, sid: SlotId, tlb_holders: u64) {
        let Some(entry) = cache.entry(sid) else {
            return;
        };
        if tlb_holders != 0 || entry.core_refs != 0 || entry.consolidating {
            return;
        }
        if let Some(e) = cache.entry_mut(sid) {
            e.consolidating = true;
        }
        self.queue.push(sid);
    }

    /// Drains the queue, merging every queued page.
    pub fn drain(
        &mut self,
        machine: &mut Machine,
        cache: &mut SspCache,
        vm: &mut VmManager,
        journal: &mut MetaJournal,
    ) {
        while let Some(sid) = self.queue.pop() {
            self.consolidate_one(machine, cache, vm, journal, sid);
        }
    }

    /// Merges one page. The slot keeps its entry (with `committed == 0`)
    /// so it can be cheaply evicted or reused.
    fn consolidate_one(
        &mut self,
        machine: &mut Machine,
        cache: &mut SspCache,
        vm: &mut VmManager,
        journal: &mut MetaJournal,
        sid: SlotId,
    ) {
        let Some(entry) = cache.entry(sid) else {
            return;
        };
        let (vpn, ppn0, ppn1, committed) = (entry.vpn, entry.ppn0, entry.ppn1, entry.committed);
        self.stats.pages += 1;

        let in_p1 = committed.count_ones();
        let in_p0 = committed.count_zeros();

        if in_p1 == 0 {
            // Everything already lives in P0: nothing to copy, no metadata
            // change needed beyond clearing the flag.
            let e = cache.entry_mut(sid).expect("entry exists");
            e.consolidating = false;
            return;
        }

        let (winner, loser, copy_mask, swapped) = if in_p1 <= in_p0 {
            // Copy P1's committed lines into P0.
            (ppn0, ppn1, committed, false)
        } else {
            // Copy P0's committed lines into P1 and swap roles.
            (ppn1, ppn0, !committed, true)
        };

        let lps = self.lines_per_subpage;
        for bit in copy_mask.iter_ones() {
            for j in 0..lps {
                let line = ssp_simulator::addr::LineIdx::new(bit.raw() * lps + j);
                // The committed copy of `line` is on the loser side; its
                // slot on the winner side holds stale data, so the copy is
                // non-destructive and crash-safe. The background thread
                // copies through the cache, so the merged line stays
                // resident in L3 (stale copies of the overwritten identity
                // are dropped by the install). A TX line the install
                // displaces is written home by the machine, which under SSP
                // is always safe (its home is the non-committed copy).
                let data = machine.read_line_uncached(loser.line_addr(line));
                machine.install_line_cached(
                    winner.line_addr(line),
                    data,
                    WriteClass::Consolidation,
                );
                self.stats.lines_copied += 1;
            }
        }

        // Durable cut: the Remap record (journal flush is controller-side;
        // no core is charged).
        journal.append(Record::Remap {
            sid,
            vpn,
            ppn0: winner,
            ppn1: loser,
        });
        journal.flush(machine, None);

        // Repoint the virtual mapping if the shadow side won.
        if swapped {
            vm.update_mapping(machine, vpn, winner);
            cache.set_spare(sid, loser);
            self.stats.swaps += 1;
        }

        let e = cache.entry_mut(sid).expect("entry exists");
        e.ppn0 = winner;
        e.ppn1 = loser;
        e.committed = LineBitmap::ZERO;
        e.current = LineBitmap::ZERO;
        e.consolidating = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_simulator::addr::LineIdx;
    use ssp_simulator::cache::CoreId;
    use ssp_simulator::config::MachineConfig;
    use ssp_txn::vm::NvLayout;

    use crate::config::SspConfig;

    struct Rig {
        machine: Machine,
        cache: SspCache,
        vm: VmManager,
        journal: MetaJournal,
        consolidator: Consolidator,
    }

    fn setup() -> Rig {
        let machine = Machine::new(MachineConfig::default());
        let layout = NvLayout::default();
        Rig {
            machine,
            cache: SspCache::new(layout, 8, &SspConfig::default(), &MachineConfig::default()),
            vm: VmManager::new(layout),
            journal: MetaJournal::new(layout, 1024 * 1024),
            consolidator: Consolidator::new(),
        }
    }

    /// Maps a page, gives it a slot, and writes recognisable data so the
    /// merge can be checked: committed lines (per `committed`) carry value
    /// 0xB1 on P1; all other line slots carry 0xA0 on P0.
    fn prepare_page(rig: &mut Rig, committed: LineBitmap) -> (SlotId, u64) {
        let vpn = rig.vm.map_new_page(&mut rig.machine, CoreId::new(0));
        let ppn0 = rig.vm.translate(vpn).unwrap();
        let holders = ssp_txn::vm::VpnMap::new();
        let (sid, ppn1) = rig.cache.allocate(vpn, ppn0, &holders);
        for line in LineIdx::all() {
            if committed.get(line) {
                rig.machine.persist_bytes(
                    None,
                    ppn1.line_addr(line),
                    &[0xb1; 64],
                    WriteClass::Data,
                );
            } else {
                rig.machine.persist_bytes(
                    None,
                    ppn0.line_addr(line),
                    &[0xa0; 64],
                    WriteClass::Data,
                );
            }
        }
        let e = rig.cache.entry_mut(sid).unwrap();
        e.committed = committed;
        e.current = committed;
        (sid, vpn.raw())
    }

    fn run(rig: &mut Rig, sid: SlotId) {
        rig.consolidator.enqueue_if_inactive(&mut rig.cache, sid, 0);
        let Rig {
            machine,
            cache,
            vm,
            journal,
            consolidator,
        } = rig;
        consolidator.drain(machine, cache, vm, journal);
    }

    #[test]
    fn few_p1_lines_merge_into_p0() {
        let mut rig = setup();
        let committed = LineBitmap::from_raw(0b111); // 3 lines in P1
        let (sid, vpn_raw) = prepare_page(&mut rig, committed);
        let ppn0 = rig.cache.entry(sid).unwrap().ppn0;
        run(&mut rig, sid);
        let stats = rig.consolidator.stats();
        assert_eq!(stats.pages, 1);
        assert_eq!(stats.lines_copied, 3);
        assert_eq!(stats.swaps, 0);
        // Mapping unchanged; all committed data now on P0.
        assert_eq!(
            rig.vm.translate(ssp_simulator::addr::Vpn::new(vpn_raw)),
            Some(ppn0)
        );
        for line in LineIdx::all() {
            let mut buf = [0u8; 1];
            rig.machine
                .read_bytes_uncached(ppn0.line_addr(line), &mut buf);
            let expect = if committed.get(line) { 0xb1 } else { 0xa0 };
            assert_eq!(buf[0], expect, "line {line}");
        }
        let e = rig.cache.entry(sid).unwrap();
        assert!(e.committed.is_zero());
        assert!(!e.consolidating);
        assert_eq!(
            rig.machine.stats().nvram_writes(WriteClass::Consolidation),
            3
        );
    }

    #[test]
    fn many_p1_lines_swap_roles() {
        let mut rig = setup();
        let committed = !LineBitmap::from_raw(0b1); // 63 lines in P1
        let (sid, vpn_raw) = prepare_page(&mut rig, committed);
        let old_p1 = rig.cache.entry(sid).unwrap().ppn1;
        run(&mut rig, sid);
        let stats = rig.consolidator.stats();
        assert_eq!(stats.lines_copied, 1); // only line 0 copied from P0
        assert_eq!(stats.swaps, 1);
        // Mapping now points at the former shadow page.
        assert_eq!(
            rig.vm.translate(ssp_simulator::addr::Vpn::new(vpn_raw)),
            Some(old_p1)
        );
        let e = rig.cache.entry(sid).unwrap();
        assert_eq!(e.ppn0, old_p1);
        for line in LineIdx::all() {
            let mut buf = [0u8; 1];
            rig.machine
                .read_bytes_uncached(old_p1.line_addr(line), &mut buf);
            let expect = if committed.get(line) { 0xb1 } else { 0xa0 };
            assert_eq!(buf[0], expect, "line {line}");
        }
    }

    #[test]
    fn already_consolidated_page_copies_nothing() {
        let mut rig = setup();
        let (sid, _) = prepare_page(&mut rig, LineBitmap::ZERO);
        let before = rig.machine.stats().nvram_writes(WriteClass::Consolidation);
        run(&mut rig, sid);
        assert_eq!(
            rig.machine.stats().nvram_writes(WriteClass::Consolidation),
            before
        );
        assert_eq!(rig.consolidator.stats().lines_copied, 0);
    }

    #[test]
    fn active_pages_are_not_enqueued() {
        let mut rig = setup();
        let (sid, _) = prepare_page(&mut rig, LineBitmap::from_raw(1));
        // TLB still holds the page.
        rig.consolidator
            .enqueue_if_inactive(&mut rig.cache, sid, 0b1);
        assert_eq!(rig.consolidator.queued(), 0);
        // Core has uncommitted updates.
        rig.cache.entry_mut(sid).unwrap().core_refs = 0b1;
        rig.consolidator.enqueue_if_inactive(&mut rig.cache, sid, 0);
        assert_eq!(rig.consolidator.queued(), 0);
    }

    #[test]
    fn double_enqueue_is_idempotent() {
        let mut rig = setup();
        let (sid, _) = prepare_page(&mut rig, LineBitmap::from_raw(1));
        rig.consolidator.enqueue_if_inactive(&mut rig.cache, sid, 0);
        rig.consolidator.enqueue_if_inactive(&mut rig.cache, sid, 0);
        assert_eq!(rig.consolidator.queued(), 1);
    }

    #[test]
    fn remap_record_written_and_durable() {
        let mut rig = setup();
        let (sid, vpn_raw) = prepare_page(&mut rig, LineBitmap::from_raw(0b11));
        run(&mut rig, sid);
        rig.machine.crash();
        let mut j = MetaJournal::new(NvLayout::default(), 1024 * 1024);
        j.recover(&rig.machine);
        let live = j.read_live(&rig.machine);
        assert!(live.iter().any(|r| matches!(
            r,
            Record::Remap { sid: s, vpn, .. } if *s == sid && vpn.raw() == vpn_raw
        )));
    }
}
