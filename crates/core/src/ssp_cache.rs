//! The SSP cache — per-page metadata managed by the memory controller
//! (Section 4.1.2 of the paper).
//!
//! Each *slot* serves one actively-updated virtual page and records the two
//! physical page numbers, the durable *committed* bitmap and the transient
//! *current* bitmap, plus reference counts used to drive consolidation.
//! The cache is split in two, as in the paper:
//!
//! * the **transient** half (this struct's `slots`) would live in DRAM and
//!   serves all runtime requests;
//! * the **persistent** half is a fixed NVRAM array (40 bytes per slot in
//!   the `meta` region) written only by checkpointing and read only during
//!   recovery.
//!
//! Access latency models the paper's L3 slice: the most recently used
//! `l3_entries` slots hit at L3 latency, everything else pays a DRAM
//! access; Figure 9's sweep overrides this with a fixed latency.

use ssp_simulator::addr::{PhysAddr, Ppn, Vpn};
use ssp_simulator::config::MachineConfig;
use ssp_simulator::machine::Machine;
use ssp_simulator::stats::WriteClass;
use ssp_txn::vm::{NvLayout, VpnMap};

use crate::bitmap::LineBitmap;
use crate::config::SspConfig;
use crate::journal::SlotId;

/// Bytes per persistent slot record.
pub const SLOT_BYTES: u64 = 40;

/// Transient metadata for one actively-updated page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SspEntry {
    /// The virtual page served by this slot.
    pub vpn: Vpn,
    /// The mapped ("original") physical page.
    pub ppn0: Ppn,
    /// The shadow physical page.
    pub ppn1: Ppn,
    /// Which copy holds each line's durable data (bit set → `ppn1`).
    pub committed: LineBitmap,
    /// Which copy holds each line's freshest data (bit set → `ppn1`).
    pub current: LineBitmap,
    /// Bitmask of cores with uncommitted updates on this page.
    pub core_refs: u64,
    /// Whether the page is queued for / undergoing consolidation.
    pub consolidating: bool,
}

impl SspEntry {
    /// Physical address of `line` in the *current* copy.
    pub fn current_line_addr(&self, line: ssp_simulator::addr::LineIdx) -> PhysAddr {
        if self.current.get(line) {
            self.ppn1.line_addr(line)
        } else {
            self.ppn0.line_addr(line)
        }
    }

    /// Physical address of `line` in the *other* (non-current) copy.
    pub fn other_line_addr(&self, line: ssp_simulator::addr::LineIdx) -> PhysAddr {
        if self.current.get(line) {
            self.ppn0.line_addr(line)
        } else {
            self.ppn1.line_addr(line)
        }
    }
}

/// One slot: a fixed spare page plus, when active, an entry.
#[derive(Debug, Clone)]
struct Slot {
    /// The slot's spare physical page, handed to whichever virtual page the
    /// slot currently serves (pre-associated at init; swapped by
    /// consolidation).
    spare: Ppn,
    entry: Option<SspEntry>,
}

/// The memory controller's SSP cache.
#[derive(Debug, Clone)]
pub struct SspCache {
    layout: NvLayout,
    slots: Vec<Slot>,
    /// `sid_of` runs on every transactional load/store: a dense table
    /// indexed by heap page (see [`VpnMap`]).
    by_vpn: VpnMap<SlotId>,
    /// When each slot was last accessed, for the L3-slice latency model:
    /// the value `clock` took then, 0 if never since the last recovery.
    stamps: Vec<u64>,
    clock: u64,
    l3_entries: usize,
    /// An access that hits the L3-resident window (or the Figure 9
    /// override), in core cycles.
    hit_cycles: u64,
    /// An access that goes to DRAM (or the override), in core cycles —
    /// converted from nanoseconds once, at construction.
    miss_cycles: u64,
    /// Slots whose persistent image is stale (need checkpointing): one
    /// bit per slot, so marking is a shift and an OR, and a checkpoint
    /// walks `slots / 64` words in ascending slot order.
    dirty: Vec<u64>,
    /// Slots that grew beyond the initial sizing (capacity pressure stat).
    grown: usize,
}

impl SspCache {
    /// Creates the cache with `slots` slots, each pre-associated with a
    /// spare page from the shadow pool. `machine` supplies the L3 and DRAM
    /// latencies an access is charged.
    pub fn new(
        layout: NvLayout,
        slots: usize,
        ssp_cfg: &SspConfig,
        machine: &MachineConfig,
    ) -> Self {
        let slots_vec = (0..slots)
            .map(|i| Slot {
                spare: layout.shadow_page(i as u64),
                entry: None,
            })
            .collect();
        Self {
            layout,
            slots: slots_vec,
            by_vpn: VpnMap::new(),
            stamps: Vec::new(),
            clock: 0,
            l3_entries: ssp_cfg.ssp_cache_l3_entries,
            hit_cycles: ssp_cfg
                .meta_latency_override
                .unwrap_or(machine.l3.latency_cycles),
            miss_cycles: ssp_cfg
                .meta_latency_override
                .unwrap_or_else(|| machine.ns_to_cycles(machine.dram.read_ns)),
            dirty: Vec::new(),
            grown: 0,
        }
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// How many slots were added beyond the initial `N × T + O` sizing.
    pub fn grown_slots(&self) -> usize {
        self.grown
    }

    /// Looks up the slot serving `vpn`.
    #[inline]
    pub fn sid_of(&self, vpn: Vpn) -> Option<SlotId> {
        self.by_vpn.get(vpn)
    }

    /// The entry in slot `sid`, if active.
    pub fn entry(&self, sid: SlotId) -> Option<&SspEntry> {
        self.slots[sid as usize].entry.as_ref()
    }

    /// Mutable entry in slot `sid`; marks the slot's persistent image stale.
    pub fn entry_mut(&mut self, sid: SlotId) -> Option<&mut SspEntry> {
        self.mark_dirty(sid);
        self.slots[sid as usize].entry.as_mut()
    }

    fn mark_dirty(&mut self, sid: SlotId) {
        let word = sid as usize / 64;
        if word >= self.dirty.len() {
            self.dirty.resize(word + 1, 0);
        }
        self.dirty[word] |= 1 << (sid % 64);
    }

    /// The entry serving `vpn`, if any.
    pub fn entry_by_vpn(&self, vpn: Vpn) -> Option<(&SspEntry, SlotId)> {
        let sid = self.sid_of(vpn)?;
        self.entry(sid).map(|e| (e, sid))
    }

    /// Charges one SSP-cache access for `sid`: L3 latency if the slot is
    /// within the L3-resident recency window, DRAM latency otherwise
    /// (or the Figure 9 override), and makes the slot most recent.
    pub fn access_cycles(&mut self, sid: SlotId) -> u64 {
        let idx = sid as usize;
        if idx >= self.stamps.len() {
            self.stamps.resize(self.slots.len().max(idx + 1), 0);
        }
        let last = self.stamps[idx];
        // Resident if accessed before and fewer than `l3_entries` other
        // slots have been since — always, in a cache of no more slots
        // than that, which therefore counts nothing.
        let resident = last != 0
            && (self.stamps.len() <= self.l3_entries
                || self.stamps.iter().filter(|&&s| s > last).count() < self.l3_entries);
        self.clock += 1;
        self.stamps[idx] = self.clock;
        if resident {
            self.hit_cycles
        } else {
            self.miss_cycles
        }
    }

    /// Allocates a slot for `vpn` (which currently maps to `ppn0`). Prefers
    /// an empty slot, then evicts a consolidated, unreferenced entry, and
    /// grows the cache as a last resort (the paper's "resize and request
    /// more pages from the OS"). Returns the slot id and the shadow page
    /// the new entry must use.
    pub fn allocate(&mut self, vpn: Vpn, ppn0: Ppn, tlb_holders: &VpnMap<u64>) -> (SlotId, Ppn) {
        debug_assert!(self.sid_of(vpn).is_none(), "page already has a slot");
        let sid = self
            .slots
            .iter()
            .position(|s| s.entry.is_none())
            .or_else(|| {
                self.slots.iter().position(|s| {
                    s.entry.as_ref().is_some_and(|e| {
                        e.committed.is_zero()
                            && e.core_refs == 0
                            && !e.consolidating
                            && tlb_holders.get(e.vpn).unwrap_or(0) == 0
                    })
                })
            })
            .unwrap_or_else(|| {
                let i = self.slots.len();
                self.slots.push(Slot {
                    spare: self.layout.shadow_page(i as u64),
                    entry: None,
                });
                self.grown += 1;
                i
            });
        if let Some(old) = self.slots[sid].entry.take() {
            self.by_vpn.remove(old.vpn);
        }
        let spare = self.slots[sid].spare;
        let entry = SspEntry {
            vpn,
            ppn0,
            ppn1: spare,
            committed: LineBitmap::ZERO,
            current: LineBitmap::ZERO,
            core_refs: 0,
            consolidating: false,
        };
        self.slots[sid].entry = Some(entry);
        self.by_vpn.insert(vpn, sid as SlotId);
        self.mark_dirty(sid as SlotId);
        (sid as SlotId, spare)
    }

    /// Records that consolidation swapped the roles of slot `sid`'s pages:
    /// the spare becomes `new_spare`.
    pub fn set_spare(&mut self, sid: SlotId, new_spare: Ppn) {
        self.slots[sid as usize].spare = new_spare;
        self.mark_dirty(sid);
    }

    /// Slots eligible for wear-levelling spare rotation: inactive entries
    /// with all committed data consolidated into `ppn0` (nothing lives on
    /// the spare), or empty slots.
    pub fn rotatable_slots(&self) -> Vec<SlotId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| match &s.entry {
                None => true,
                Some(e) => e.committed.is_zero() && e.core_refs == 0 && !e.consolidating,
            })
            .map(|(i, _)| i as SlotId)
            .collect()
    }

    /// Replaces slot `sid`'s spare page with `fresh` (Section 4.1.2 wear
    /// levelling) and returns the retired page. The caller must journal
    /// the change for active entries.
    ///
    /// # Panics
    ///
    /// Panics if the slot's entry still holds committed data on the spare.
    pub fn rotate_spare(&mut self, sid: SlotId, fresh: Ppn) -> Ppn {
        let slot = &mut self.slots[sid as usize];
        if let Some(entry) = &mut slot.entry {
            assert!(
                entry.committed.is_zero(),
                "cannot rotate a spare holding committed data"
            );
            entry.ppn1 = fresh;
        }
        let old = slot.spare;
        slot.spare = fresh;
        self.mark_dirty(sid);
        old
    }

    /// Installs an entry into a specific slot (recovery replay).
    pub fn install(&mut self, sid: SlotId, entry: SspEntry) {
        let idx = sid as usize;
        while self.slots.len() <= idx {
            let i = self.slots.len();
            self.slots.push(Slot {
                spare: self.layout.shadow_page(i as u64),
                entry: None,
            });
        }
        if let Some(old) = self.slots[idx].entry.take() {
            self.by_vpn.remove(old.vpn);
        }
        self.slots[idx].spare = entry.ppn1;
        self.by_vpn.insert(entry.vpn, sid);
        self.slots[idx].entry = Some(entry);
        // The persistent image is stale until the next checkpoint folds
        // this in — without this, a recovery followed by a journal
        // truncation would destroy the only durable copy of the mapping.
        self.mark_dirty(sid);
    }

    /// Drops the entry in slot `sid` (after consolidation made it
    /// redundant); the slot keeps its spare page for reuse.
    pub fn evict(&mut self, sid: SlotId) {
        if let Some(entry) = self.slots[sid as usize].entry.take() {
            assert!(
                entry.committed.is_zero() && entry.core_refs == 0,
                "evicting a live SSP cache entry"
            );
            self.by_vpn.remove(entry.vpn);
            self.mark_dirty(sid);
        }
    }

    /// Writes every stale slot's persistent image (checkpointing's fold
    /// step) and returns how many slots were written.
    pub fn checkpoint(&mut self, machine: &mut Machine) -> usize {
        // Ascending slot order: the checkpoint's persist order reaches
        // the row-buffer model.
        let mut count = 0;
        for word in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[word]);
            while bits != 0 {
                let sid = (word * 64) as SlotId + bits.trailing_zeros() as SlotId;
                bits &= bits - 1;
                let addr = self.slot_addr(sid);
                let image = self.encode_slot(sid);
                machine.persist_bytes(None, addr, &image, WriteClass::Checkpoint);
                count += 1;
            }
        }
        count
    }

    /// Rebuilds the transient cache from the persistent slot images
    /// (recovery step 1). `slot_count` bounds the scan.
    pub fn recover(&mut self, machine: &Machine, slot_count: usize) {
        self.by_vpn.clear();
        self.stamps.fill(0);
        self.dirty.fill(0);
        self.slots.clear();
        for i in 0..slot_count {
            let mut image = [0u8; SLOT_BYTES as usize];
            machine.read_bytes_uncached(self.slot_addr(i as SlotId), &mut image);
            let vpn = u64::from_le_bytes(image[0..8].try_into().unwrap());
            let ppn0 = u64::from_le_bytes(image[8..16].try_into().unwrap());
            let ppn1 = u64::from_le_bytes(image[16..24].try_into().unwrap());
            let committed = u64::from_le_bytes(image[24..32].try_into().unwrap());
            let spare = if ppn1 != 0 {
                Ppn::new(ppn1)
            } else {
                self.layout.shadow_page(i as u64)
            };
            let entry = if vpn != 0 {
                self.by_vpn.insert(Vpn::new(vpn), i as SlotId);
                Some(SspEntry {
                    vpn: Vpn::new(vpn),
                    ppn0: Ppn::new(ppn0),
                    ppn1: Ppn::new(ppn1),
                    committed: LineBitmap::from_raw(committed),
                    // The current bitmap is initialised from the committed
                    // bitmap (Section 4.4).
                    current: LineBitmap::from_raw(committed),
                    core_refs: 0,
                    consolidating: false,
                })
            } else {
                None
            };
            self.slots.push(Slot { spare, entry });
        }
    }

    /// Iterates over active entries.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &SspEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.entry.as_ref().map(|e| (i as SlotId, e)))
    }

    fn slot_addr(&self, sid: SlotId) -> PhysAddr {
        self.layout.meta_addr(sid as u64 * SLOT_BYTES)
    }

    fn encode_slot(&self, sid: SlotId) -> [u8; SLOT_BYTES as usize] {
        let mut image = [0u8; SLOT_BYTES as usize];
        let slot = &self.slots[sid as usize];
        match &slot.entry {
            Some(e) => {
                image[0..8].copy_from_slice(&e.vpn.raw().to_le_bytes());
                image[8..16].copy_from_slice(&e.ppn0.raw().to_le_bytes());
                image[16..24].copy_from_slice(&e.ppn1.raw().to_le_bytes());
                image[24..32].copy_from_slice(&e.committed.raw().to_le_bytes());
            }
            None => {
                // vpn 0 marks an empty slot; preserve the spare page.
                image[16..24].copy_from_slice(&slot.spare.raw().to_le_bytes());
            }
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_simulator::config::MachineConfig;
    use ssp_txn::vm::HEAP_BASE_VPN;

    fn setup(slots: usize) -> (Machine, SspCache) {
        let machine = Machine::new(MachineConfig::default());
        let cache = SspCache::new(
            NvLayout::default(),
            slots,
            &SspConfig::default(),
            &MachineConfig::default(),
        );
        (machine, cache)
    }

    fn vpn(i: u64) -> Vpn {
        Vpn::new(HEAP_BASE_VPN + i)
    }

    #[test]
    fn allocate_assigns_distinct_spares() {
        let (_, mut cache) = setup(4);
        let holders = VpnMap::new();
        let (s1, p1) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        let (s2, p2) = cache.allocate(vpn(2), Ppn::new(1001), &holders);
        assert_ne!(s1, s2);
        assert_ne!(p1, p2);
        assert_eq!(cache.sid_of(vpn(1)), Some(s1));
        assert_eq!(cache.entry(s1).unwrap().ppn1, p1);
    }

    #[test]
    fn allocate_evicts_consolidated_entries() {
        let (_, mut cache) = setup(1);
        let holders = VpnMap::new();
        let (s1, _) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        // Entry is consolidated (committed == 0) and unreferenced, so it can
        // be replaced.
        let (s2, _) = cache.allocate(vpn(2), Ppn::new(1001), &holders);
        assert_eq!(s1, s2);
        assert_eq!(cache.sid_of(vpn(1)), None);
        assert_eq!(cache.grown_slots(), 0);
    }

    #[test]
    fn allocate_grows_when_entries_are_live() {
        let (_, mut cache) = setup(1);
        let holders = VpnMap::new();
        let (s1, _) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        cache.entry_mut(s1).unwrap().committed = LineBitmap::from_raw(1);
        let (s2, _) = cache.allocate(vpn(2), Ppn::new(1001), &holders);
        assert_ne!(s1, s2);
        assert_eq!(cache.grown_slots(), 1);
        assert_eq!(cache.sid_of(vpn(1)), Some(s1));
    }

    #[test]
    fn tlb_held_entries_are_not_evicted() {
        let (_, mut cache) = setup(1);
        let mut holders = VpnMap::new();
        let (_, _) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        holders.insert(vpn(1), 0b1); // core 0 still maps it
        let (s2, _) = cache.allocate(vpn(2), Ppn::new(1001), &holders);
        assert_eq!(cache.sid_of(vpn(1)), Some(0));
        assert_ne!(s2, 0);
    }

    #[test]
    fn latency_model_l3_vs_dram() {
        let cfg = MachineConfig::default();
        let ssp_cfg = SspConfig {
            ssp_cache_l3_entries: 1,
            ..SspConfig::default()
        };
        let mut cache = SspCache::new(NvLayout::default(), 4, &ssp_cfg, &cfg);
        let holders = VpnMap::new();
        let (s1, _) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        let (s2, _) = cache.allocate(vpn(2), Ppn::new(1001), &holders);
        // First access: cold (not in recency window) -> DRAM.
        assert_eq!(cache.access_cycles(s1), cfg.ns_to_cycles(50.0));
        // Immediately again: MRU position 0 < 1 -> L3.
        assert_eq!(cache.access_cycles(s1), cfg.l3.latency_cycles);
        // s2 pushes s1 out of the single-entry window.
        let _ = cache.access_cycles(s2);
        assert_eq!(cache.access_cycles(s1), cfg.ns_to_cycles(50.0));
    }

    #[test]
    fn stamped_recency_matches_the_mru_vector_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        // The MRU-first `Vec<SlotId>` the stamps replaced: `true` is a hit
        // in the L3-resident window.
        fn model_access(recency: &mut Vec<SlotId>, l3_entries: usize, sid: SlotId) -> bool {
            match recency.iter().position(|&s| s == sid) {
                Some(pos) => {
                    recency[..=pos].rotate_right(1);
                    pos < l3_entries
                }
                None => {
                    recency.insert(0, sid);
                    false
                }
            }
        }

        let cfg = MachineConfig::default();
        let machine = Machine::new(cfg.clone());
        // Windows smaller than, equal to and larger than the slot count,
        // which grows past its initial sizing on the way.
        for (slots, l3_entries, seed) in
            [(12usize, 1usize, 1u64), (12, 5, 2), (12, 12, 3), (6, 40, 4)]
        {
            let ssp_cfg = SspConfig {
                ssp_cache_l3_entries: l3_entries,
                ..SspConfig::default()
            };
            let mut cache = SspCache::new(NvLayout::default(), slots, &ssp_cfg, &cfg);
            let mut recency = Vec::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            let (hit, miss) = (cfg.l3.latency_cycles, cfg.ns_to_cycles(cfg.dram.read_ns));
            let mut hits = 0;
            for step in 0..20_000u32 {
                if step % 4_000 == 3_999 {
                    cache.recover(&machine, slots);
                    recency.clear();
                }
                // Skewed towards low slot ids; one in 16 past the sizing.
                let span = if rng.gen_range(0..16u32) == 0 {
                    2 * slots
                } else {
                    slots
                };
                let top = rng.gen_range(0..span);
                let sid = rng.gen_range(0..=top) as SlotId;
                let expected = model_access(&mut recency, l3_entries, sid);
                hits += u32::from(expected);
                assert_eq!(
                    cache.access_cycles(sid),
                    if expected { hit } else { miss },
                    "step {step}, slot {sid}, window {l3_entries}"
                );
            }
            assert!(hits > 1_000 && hits < 20_000, "{hits} hits");
        }
    }

    #[test]
    fn latency_override_wins() {
        let cfg = MachineConfig::default();
        let ssp_cfg = SspConfig {
            meta_latency_override: Some(140),
            ..SspConfig::default()
        };
        let mut cache = SspCache::new(NvLayout::default(), 4, &ssp_cfg, &cfg);
        let holders = VpnMap::new();
        let (s1, _) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        assert_eq!(cache.access_cycles(s1), 140);
        assert_eq!(cache.access_cycles(s1), 140);
    }

    #[test]
    fn checkpoint_and_recover_round_trip() {
        let (mut m, mut cache) = setup(4);
        let holders = VpnMap::new();
        let (s1, _) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        cache.entry_mut(s1).unwrap().committed = LineBitmap::from_raw(0xdead);
        cache.entry_mut(s1).unwrap().current = LineBitmap::from_raw(0xffff);
        let written = cache.checkpoint(&mut m);
        assert!(written >= 1);
        m.crash();

        let mut cache2 = SspCache::new(
            NvLayout::default(),
            4,
            &SspConfig::default(),
            &MachineConfig::default(),
        );
        cache2.recover(&m, 4);
        let (e, sid) = cache2.entry_by_vpn(vpn(1)).unwrap();
        assert_eq!(sid, s1);
        assert_eq!(e.committed, LineBitmap::from_raw(0xdead));
        // Current is re-initialised from committed, not from the lost
        // transient value.
        assert_eq!(e.current, LineBitmap::from_raw(0xdead));
        assert_eq!(e.core_refs, 0);
    }

    #[test]
    fn checkpoint_writes_are_counted() {
        let (mut m, mut cache) = setup(2);
        let holders = VpnMap::new();
        let (_, _) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        cache.checkpoint(&mut m);
        assert!(m.stats().nvram_writes(WriteClass::Checkpoint) >= 1);
    }

    #[test]
    fn spare_page_survives_eviction() {
        let (mut m, mut cache) = setup(1);
        let holders = VpnMap::new();
        let (s1, spare1) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        cache.evict(s1);
        cache.checkpoint(&mut m);
        m.crash();
        let mut cache2 = SspCache::new(
            NvLayout::default(),
            1,
            &SspConfig::default(),
            &MachineConfig::default(),
        );
        cache2.recover(&m, 1);
        let holders = VpnMap::new();
        let (_, spare2) = cache2.allocate(vpn(2), Ppn::new(1001), &holders);
        assert_eq!(spare1, spare2);
    }

    #[test]
    #[should_panic(expected = "live SSP cache entry")]
    fn evicting_live_entry_panics() {
        let (_, mut cache) = setup(1);
        let holders = VpnMap::new();
        let (s1, _) = cache.allocate(vpn(1), Ppn::new(1000), &holders);
        cache.entry_mut(s1).unwrap().committed = LineBitmap::from_raw(2);
        cache.evict(s1);
    }

    #[test]
    fn entry_line_addressing() {
        use ssp_simulator::addr::LineIdx;
        let e = SspEntry {
            vpn: vpn(0),
            ppn0: Ppn::new(100),
            ppn1: Ppn::new(200),
            committed: LineBitmap::ZERO,
            current: LineBitmap::from_raw(0b10),
            core_refs: 0,
            consolidating: false,
        };
        assert_eq!(e.current_line_addr(LineIdx::new(0)).ppn(), Ppn::new(100));
        assert_eq!(e.current_line_addr(LineIdx::new(1)).ppn(), Ppn::new(200));
        assert_eq!(e.other_line_addr(LineIdx::new(1)).ppn(), Ppn::new(100));
    }
}
