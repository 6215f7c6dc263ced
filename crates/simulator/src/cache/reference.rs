//! The hierarchy this module replaced, kept verbatim as the reference
//! model: the PR-5 struct-of-arrays `SetAssoc` (flat `idx` addressing,
//! `%` set index, `rotate_right` promotion), the `FxHashMap` MSI
//! directory and the full-line `LineOp::Read`. The lockstep tests in
//! `cache.rs` drive it beside the live hierarchy over random multi-core
//! streams; every cycle count, counter, eviction and dirty-line count
//! must agree after every step. Only the names of the shared types were
//! re-pointed at the parent module, and `access_cycles` lost its `cfg`
//! argument with the live timing model. It still returns TX spills by
//! value, as the live hierarchy did: the lockstep test compares them with
//! what the live one left in its spill buffer.

use super::{CoreId, TxEviction};
use crate::addr::{PhysAddr, LINE_SIZE};
use crate::config::MachineConfig;
use crate::phys::PhysMem;
use crate::stats::{MachineStats, WriteClass};
use crate::timing::{AccessKind, MemTiming};
use fxhash::FxHashMap;

/// Outcome of one access: the latency, and the dirty TX lines it pushed
/// out of the hierarchy.
#[derive(Debug, Default)]
pub struct AccessResult {
    pub cycles: u64,
    pub tx_evictions: Vec<TxEviction>,
}

/// One cached line, as an owned value moving in and out of a [`SetAssoc`].
#[derive(Debug, Clone)]
struct Slot {
    /// Line base physical address.
    line: u64,
    dirty: bool,
    tx: bool,
    data: [u8; LINE_SIZE],
}

const FLAG_DIRTY: u8 = 1 << 0;
const FLAG_TX: u8 = 1 << 1;

/// A set-associative array with MRU-first ordering per set, stored
/// struct-of-arrays (see the module docs). The derived `Clone` is
/// naturally sparse: only materialised payload blocks are copied.
#[derive(Debug, Clone)]
struct SetAssoc {
    ways: usize,
    nsets: usize,
    /// Line base address per slot (`set * ways + way`); valid only for
    /// occupied ways.
    tags: Vec<u64>,
    /// `FLAG_DIRTY` / `FLAG_TX` per slot.
    flags: Vec<u8>,
    /// Line payloads, one `ways`-sized block per set, materialised on the
    /// set's first insert. The payloads are ~98% of a cache's bytes;
    /// keeping them per-set means constructing or cloning a 12 MiB L3
    /// whose working set touches 2% of its sets costs 2% of 12 MiB — and
    /// sidesteps glibc's adaptive mmap threshold, which silently turns
    /// repeated huge zeroed allocations into full memsets.
    data: Vec<Option<Box<[[u8; LINE_SIZE]]>>>,
    /// Per-set permutation of way indices: `order[set*ways..][..len[set]]`
    /// are the occupied ways MRU-first, the tail holds the free ways.
    /// Initialised lazily — a set's bytes become a valid permutation on
    /// its first insert, so construction touches none of the flat arrays
    /// (they stay zero-mapped until a set is actually used).
    order: Vec<u8>,
    /// Occupied ways per set.
    len: Vec<u8>,
}

impl SetAssoc {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(ways >= 1 && ways <= u8::MAX as usize, "unsupported ways");
        let nsets = sets.max(1);
        let slots = nsets * ways;
        // The metadata vectors are all-zero allocations that are never
        // written here (`order` initialises per set on first insert) and
        // the payload blocks start unmaterialised, so building even a
        // 12 MiB L3 costs ~2 MiB of zero-mapped metadata and no payload
        // memory — machines are constructed per shard per bench cell.
        Self {
            ways,
            nsets,
            tags: vec![0; slots],
            flags: vec![0; slots],
            data: vec![None; nsets],
            order: vec![0; slots],
            len: vec![0; nsets],
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        ((line / LINE_SIZE as u64) % self.nsets as u64) as usize
    }

    /// Finds `line` in its set without touching MRU order. Returns the set
    /// index and the position within the MRU order.
    #[inline]
    fn probe(&self, line: u64) -> Option<(usize, usize)> {
        let set = self.set_index(line);
        let base = set * self.ways;
        let n = self.len[set] as usize;
        let order = &self.order[base..base + n];
        for (pos, &way) in order.iter().enumerate() {
            if self.tags[base + way as usize] == line {
                return Some((set, pos));
            }
        }
        None
    }

    /// Moves the entry at MRU position `pos` of `set` to the MRU front and
    /// returns its flat slot index.
    #[inline]
    fn promote(&mut self, set: usize, pos: usize) -> usize {
        let base = set * self.ways;
        self.order[base..=base + pos].rotate_right(1);
        base + self.order[base] as usize
    }

    /// Looks a line up and promotes it to MRU, returning its slot index.
    #[inline]
    fn find_promote(&mut self, line: u64) -> Option<usize> {
        let (set, pos) = self.probe(line)?;
        Some(self.promote(set, pos))
    }

    /// Looks a line up without promoting it, returning its slot index.
    #[inline]
    fn peek_slot(&self, line: u64) -> Option<usize> {
        let (set, pos) = self.probe(line)?;
        let base = set * self.ways;
        Some(base + self.order[base + pos] as usize)
    }

    #[inline]
    fn is_dirty(&self, idx: usize) -> bool {
        self.flags[idx] & FLAG_DIRTY != 0
    }

    #[inline]
    fn is_tx(&self, idx: usize) -> bool {
        self.flags[idx] & FLAG_TX != 0
    }

    #[inline]
    fn set_dirty(&mut self, idx: usize, dirty: bool) {
        if dirty {
            self.flags[idx] |= FLAG_DIRTY;
        } else {
            self.flags[idx] &= !FLAG_DIRTY;
        }
    }

    #[inline]
    fn set_tx(&mut self, idx: usize, tx: bool) {
        if tx {
            self.flags[idx] |= FLAG_TX;
        } else {
            self.flags[idx] &= !FLAG_TX;
        }
    }

    #[inline]
    fn data(&self, idx: usize) -> &[u8; LINE_SIZE] {
        &self.data[idx / self.ways].as_ref().expect("occupied set")[idx % self.ways]
    }

    #[inline]
    fn set_data(&mut self, idx: usize, data: &[u8; LINE_SIZE]) {
        self.data[idx / self.ways].as_mut().expect("occupied set")[idx % self.ways] = *data;
    }

    /// Copies the slot out as an owned [`Slot`].
    #[inline]
    fn slot(&self, idx: usize) -> Slot {
        Slot {
            line: self.tags[idx],
            dirty: self.is_dirty(idx),
            tx: self.is_tx(idx),
            data: *self.data(idx),
        }
    }

    /// Overwrites the slot's contents with `slot` (tag, flags and data).
    /// The set's payload block must already be materialised.
    #[inline]
    fn write_slot(&mut self, idx: usize, slot: &Slot) {
        self.tags[idx] = slot.line;
        self.flags[idx] =
            (if slot.dirty { FLAG_DIRTY } else { 0 }) | (if slot.tx { FLAG_TX } else { 0 });
        self.set_data(idx, &slot.data);
    }

    /// Applies a line operation to the slot, mirroring [`apply_op`].
    fn apply(&mut self, idx: usize, op: &mut LineOp<'_>, tx: bool, is_write: bool) {
        let line = &mut self.data[idx / self.ways].as_mut().expect("occupied set")[idx % self.ways];
        match op {
            LineOp::Read(buf) => buf.copy_from_slice(line),
            LineOp::Write { offset, data } => {
                assert!(*offset + data.len() <= LINE_SIZE, "write crosses line end");
                line[*offset..*offset + data.len()].copy_from_slice(data);
            }
        }
        if is_write {
            self.flags[idx] |= FLAG_DIRTY;
            if tx {
                self.flags[idx] |= FLAG_TX;
            }
        }
    }

    fn remove(&mut self, line: u64) -> Option<Slot> {
        let (set, pos) = self.probe(line)?;
        let base = set * self.ways;
        let n = self.len[set] as usize;
        let idx = base + self.order[base + pos] as usize;
        let slot = self.slot(idx);
        // Shift the MRU order up over the removed position; the freed way
        // byte lands at the head of the free region, keeping `order` a
        // permutation of the way indices.
        self.order[base + pos..base + n].rotate_left(1);
        self.len[set] = (n - 1) as u8;
        Some(slot)
    }

    /// Inserts a slot as MRU; returns the victim if the set was full.
    /// Non-TX lines are preferred as victims (LRU among them); a TX line is
    /// only evicted when the whole set is transactional. Reproduces the
    /// reference semantics exactly: conceptually the new slot is placed at
    /// MRU and the victim is the *last* non-TX entry of the grown set —
    /// which can be the incoming slot itself when every resident line is
    /// TX (the caller sees its own slot bounce back).
    fn insert(&mut self, slot: Slot) -> Option<Slot> {
        let set = self.set_index(slot.line);
        let base = set * self.ways;
        let n = self.len[set] as usize;
        debug_assert!(
            self.order[base..base + n]
                .iter()
                .all(|&w| self.tags[base + w as usize] != slot.line),
            "inserting a duplicate line"
        );
        if n == 0 {
            // First insert since construction, a crash-clear or a drain:
            // (re)initialise this set's order bytes to a valid
            // permutation. Which free way a value lands in is
            // unobservable, so resetting to identity is always safe.
            for (way, slot_order) in self.order[base..base + self.ways].iter_mut().enumerate() {
                *slot_order = way as u8;
            }
            // Materialise the payload block on the set's first-ever use.
            if self.data[set].is_none() {
                self.data[set] = Some(vec![[0u8; LINE_SIZE]; self.ways].into_boxed_slice());
            }
        }
        if n < self.ways {
            let way = self.order[base + n];
            self.write_slot(base + way as usize, &slot);
            self.order[base..=base + n].rotate_right(1);
            self.len[set] = (n + 1) as u8;
            return None;
        }
        // Full set: pick the LRU-most non-TX resident as the victim.
        let victim_pos = (0..self.ways)
            .rev()
            .find(|&pos| !self.is_tx(base + self.order[base + pos] as usize));
        match victim_pos {
            Some(pos) => {
                let idx = base + self.order[base + pos] as usize;
                let victim = self.slot(idx);
                self.write_slot(idx, &slot);
                self.order[base..=base + pos].rotate_right(1);
                Some(victim)
            }
            // Every resident line is TX. A non-TX incoming slot is then the
            // last non-TX entry of the conceptual grown set (it sits at
            // MRU) and bounces straight back; an all-TX set with a TX
            // insert falls through to plain LRU.
            None if !slot.tx => Some(slot),
            None => {
                let idx = base + self.order[base + self.ways - 1] as usize;
                let victim = self.slot(idx);
                self.write_slot(idx, &slot);
                self.order[base..base + self.ways].rotate_right(1);
                Some(victim)
            }
        }
    }

    fn clear(&mut self) {
        // Occupancy is the only validity marker; stale tags/flags beyond
        // `len` are never read.
        self.len.fill(0);
    }

    /// Iterates over the occupied slots as `(line, dirty)` pairs.
    fn iter_lines(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        (0..self.nsets).flat_map(move |set| {
            let base = set * self.ways;
            self.order[base..base + self.len[set] as usize]
                .iter()
                .map(move |&way| {
                    let idx = base + way as usize;
                    (self.tags[idx], self.flags[idx] & FLAG_DIRTY != 0)
                })
        })
    }
}

/// Directory entry tracking L1 residency of one line.
#[derive(Debug, Clone, Default)]
struct DirEntry {
    /// Bitmask of cores whose L1 holds the line.
    sharers: u64,
    /// Core holding the line dirty, if any (then `sharers` == that one bit).
    dirty_owner: Option<usize>,
}

/// The operation an access performs on the target line.
#[derive(Debug)]
pub enum LineOp<'a> {
    /// Copy the full line out.
    Read(&'a mut [u8; LINE_SIZE]),
    /// Patch `data.len()` bytes at `offset` within the line.
    Write {
        /// Byte offset within the line.
        offset: usize,
        /// Bytes to write.
        data: &'a [u8],
    },
}

impl LineOp<'_> {
    fn is_write(&self) -> bool {
        matches!(self, LineOp::Write { .. })
    }
}

/// The full cache hierarchy shared by all cores.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<SetAssoc>,
    l2: Vec<SetAssoc>,
    l3: SetAssoc,
    dir: FxHashMap<u64, DirEntry>,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cfg.cores` cores.
    pub fn new(cfg: &MachineConfig) -> Self {
        let l1 = (0..cfg.cores)
            .map(|_| SetAssoc::new(cfg.l1.sets(), cfg.l1.ways))
            .collect();
        let l2 = (0..cfg.cores)
            .map(|_| SetAssoc::new(cfg.l2.sets(), cfg.l2.ways))
            .collect();
        Self {
            l1,
            l2,
            l3: SetAssoc::new(cfg.l3.sets(), cfg.l3.ways),
            dir: FxHashMap::default(),
        }
    }

    /// Performs a data access at `addr` (within one line) for `core`.
    ///
    /// # Panics
    ///
    /// Panics if a `Write` patch crosses the end of the line.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        core: CoreId,
        addr: PhysAddr,
        mut op: LineOp<'_>,
        tx: bool,
        cfg: &MachineConfig,
        mem: &mut PhysMem,
        timing: &mut MemTiming,
        stats: &mut MachineStats,
    ) -> AccessResult {
        let line = addr.line_base().raw();
        let mut result = AccessResult {
            cycles: cfg.l1.latency_cycles,
            ..Default::default()
        };
        let is_write = op.is_write();

        // Fast path: L1 hit — one probe finds the way; the coherence check
        // below only touches *other* cores' arrays, so the position stays
        // valid and the MRU promotion happens after it, exactly as the
        // old peek + lookup_mut pair ordered things.
        if let Some((set, pos)) = self.l1[core.index()].probe(line) {
            stats.l1_hits += 1;
            if is_write {
                self.ensure_exclusive(core, line, cfg, stats, &mut result);
            }
            let l1 = &mut self.l1[core.index()];
            let idx = l1.promote(set, pos);
            l1.apply(idx, &mut op, tx, is_write);
            if is_write {
                self.dir.entry(line).or_default().dirty_owner = Some(core.index());
            }
            return result;
        }

        // L1 miss: if another core owns the line dirty, pull the fresh data
        // into L3 first (cache-to-cache transfer).
        self.recall_dirty_owner(core, line, cfg, stats, &mut result);

        // L2 (timing only).
        result.cycles += cfg.l2.latency_cycles;
        let l2_hit = self.l2[core.index()].find_promote(line).is_some();
        if l2_hit {
            stats.l2_hits += 1;
        } else {
            // L3. Demand probes are what the shared-LLC/coherence actors
            // replay against the shared set space at epoch boundaries
            // (retag/install/flush/refill paths stay private-slice-only).
            result.cycles += cfg.l3.latency_cycles;
            let kind = PhysMem::kind_of_addr(addr);
            if self.l3.find_promote(line).is_some() {
                stats.l3_hits += 1;
                timing.record_llc_probe(line / LINE_SIZE as u64, kind, is_write, true);
            } else {
                // Memory fill.
                stats.mem_accesses += 1;
                timing.record_llc_probe(line / LINE_SIZE as u64, kind, is_write, false);
                result.cycles +=
                    timing.access_cycles(stats, kind, addr.line_base(), AccessKind::Read);
                match kind {
                    crate::timing::MemKind::Dram => stats.dram_reads += 1,
                    crate::timing::MemKind::Nvram => stats.nvram_reads += 1,
                }
                let data = mem.read_line(addr.ppn(), addr.line_index());
                let victim = self.l3.insert(Slot {
                    line,
                    dirty: false,
                    tx: false,
                    data,
                });
                if let Some(v) = victim {
                    self.evict_from_l3(v, cfg, mem, timing, stats, &mut result);
                }
            }
            // Fill the L2 tag array.
            if self.l2[core.index()].peek_slot(line).is_none() {
                let _ = self.l2[core.index()].insert(Slot {
                    line,
                    dirty: false,
                    tx: false,
                    data: [0u8; LINE_SIZE],
                });
            }
        }

        // If L2 hit but the line fell out of L3 (non-inclusive L2 tags can
        // go stale), make sure L3 has it again so the directory invariant
        // holds.
        if self.l3.peek_slot(line).is_none() {
            stats.mem_accesses += 1;
            let kind = PhysMem::kind_of_addr(addr);
            result.cycles += timing.access_cycles(stats, kind, addr.line_base(), AccessKind::Read);
            let data = mem.read_line(addr.ppn(), addr.line_index());
            let victim = self.l3.insert(Slot {
                line,
                dirty: false,
                tx: false,
                data,
            });
            if let Some(v) = victim {
                self.evict_from_l3(v, cfg, mem, timing, stats, &mut result);
            }
        }

        if is_write {
            self.ensure_exclusive(core, line, cfg, stats, &mut result);
        }

        // Fill into L1 from L3.
        let l3_idx = self.l3.peek_slot(line).expect("line resident in L3");
        let mut slot = Slot {
            line,
            dirty: false,
            tx: self.l3.is_tx(l3_idx),
            data: *self.l3.data(l3_idx),
        };
        apply_op(&mut slot, &mut op, tx, is_write);
        let entry = self.dir.entry(line).or_default();
        entry.sharers |= 1 << core.index();
        if is_write {
            entry.dirty_owner = Some(core.index());
        }
        if let Some(victim) = self.l1[core.index()].insert(slot) {
            self.evict_from_l1(core, victim, cfg, mem, timing, stats, &mut result);
        }
        result
    }

    /// Invalidate every other sharer so `core` can write the line.
    fn ensure_exclusive(
        &mut self,
        core: CoreId,
        line: u64,
        cfg: &MachineConfig,
        stats: &mut MachineStats,
        result: &mut AccessResult,
    ) {
        let Some(entry) = self.dir.get_mut(&line) else {
            return;
        };
        let others = entry.sharers & !(1 << core.index());
        if others == 0 {
            return;
        }
        for other in 0..self.l1.len() {
            if other != core.index() && (others >> other) & 1 == 1 {
                // Sharers other than a dirty owner are clean by invariant.
                let _ = self.l1[other].remove(line);
                let _ = self.l2[other].remove(line);
                stats.coherence_invalidations += 1;
            }
        }
        entry.sharers &= 1 << core.index();
        if entry.dirty_owner.is_some_and(|o| o != core.index()) {
            entry.dirty_owner = None;
        }
        result.cycles += cfg.coherence_broadcast_cycles;
    }

    /// If another core holds the line dirty, write its copy into L3 and
    /// invalidate it there.
    fn recall_dirty_owner(
        &mut self,
        core: CoreId,
        line: u64,
        cfg: &MachineConfig,
        stats: &mut MachineStats,
        result: &mut AccessResult,
    ) {
        let Some(entry) = self.dir.get_mut(&line) else {
            return;
        };
        let Some(owner) = entry.dirty_owner else {
            return;
        };
        if owner == core.index() {
            return;
        }
        let Some(slot) = self.l1[owner].remove(line) else {
            entry.dirty_owner = None;
            return;
        };
        let _ = self.l2[owner].remove(line);
        entry.sharers &= !(1 << owner);
        entry.dirty_owner = None;
        stats.coherence_invalidations += 1;
        result.cycles += cfg.l3.latency_cycles; // cache-to-cache transfer
        match self.l3.find_promote(line) {
            Some(idx) => {
                self.l3.set_data(idx, &slot.data);
                self.l3.set_dirty(idx, true);
                self.l3.set_tx(idx, slot.tx);
            }
            None => {
                // Inclusive invariant normally guarantees an L3 copy; if it
                // was lost, reinsert.
                if let Some(v) = self.l3.insert(Slot {
                    dirty: true,
                    ..slot
                }) {
                    // Cannot recurse into evict helper here without extra
                    // state; handle the victim inline below.
                    self.handle_l3_victim_basic(v, result);
                }
            }
        }
    }

    /// Minimal L3 victim handling that defers memory traffic to the caller
    /// via `tx_evictions` (used only on the rare reinsert path).
    fn handle_l3_victim_basic(&mut self, victim: Slot, result: &mut AccessResult) {
        self.back_invalidate(victim.line);
        if victim.dirty {
            result.tx_evictions.push(TxEviction {
                line: PhysAddr::new(victim.line),
                data: victim.data,
            });
        }
    }

    /// Removes a line from every L1/L2 (inclusive-L3 back-invalidation),
    /// returning the freshest data if an L1 held it dirty.
    fn back_invalidate(&mut self, line: u64) -> Option<Slot> {
        let mut fresh = None;
        if let Some(entry) = self.dir.remove(&line) {
            for c in 0..self.l1.len() {
                if (entry.sharers >> c) & 1 == 1 {
                    if let Some(slot) = self.l1[c].remove(line) {
                        if slot.dirty {
                            fresh = Some(slot);
                        }
                    }
                    let _ = self.l2[c].remove(line);
                }
            }
        }
        fresh
    }

    #[allow(clippy::too_many_arguments)]
    fn evict_from_l1(
        &mut self,
        core: CoreId,
        victim: Slot,
        cfg: &MachineConfig,
        mem: &mut PhysMem,
        timing: &mut MemTiming,
        stats: &mut MachineStats,
        result: &mut AccessResult,
    ) {
        if let Some(entry) = self.dir.get_mut(&victim.line) {
            entry.sharers &= !(1 << core.index());
            if entry.dirty_owner == Some(core.index()) {
                entry.dirty_owner = None;
            }
            if entry.sharers == 0 {
                self.dir.remove(&victim.line);
            }
        }
        if !victim.dirty {
            return;
        }
        // Dirty L1 victim merges into its (inclusive) L3 copy.
        match self.l3.find_promote(victim.line) {
            Some(idx) => {
                self.l3.set_data(idx, &victim.data);
                self.l3.set_dirty(idx, true);
                self.l3.set_tx(idx, victim.tx);
            }
            None => {
                let line = victim.line;
                if let Some(v) = self.l3.insert(Slot { ..victim }) {
                    if v.line == line {
                        // The victim itself could not be placed: fall through
                        // to memory.
                        self.write_back(v, cfg, mem, timing, stats, result);
                    } else {
                        self.evict_from_l3(v, cfg, mem, timing, stats, result);
                    }
                }
            }
        }
    }

    fn evict_from_l3(
        &mut self,
        victim: Slot,
        cfg: &MachineConfig,
        mem: &mut PhysMem,
        timing: &mut MemTiming,
        stats: &mut MachineStats,
        result: &mut AccessResult,
    ) {
        let mut victim = victim;
        if let Some(fresh) = self.back_invalidate(victim.line) {
            victim.data = fresh.data;
            victim.dirty = true;
            victim.tx = fresh.tx;
        }
        if victim.dirty {
            self.write_back(victim, cfg, mem, timing, stats, result);
        }
    }

    /// Writes a dirty line to memory — unless it is transactional, in which
    /// case it is handed to the engine instead.
    fn write_back(
        &mut self,
        victim: Slot,
        _cfg: &MachineConfig,
        mem: &mut PhysMem,
        timing: &mut MemTiming,
        stats: &mut MachineStats,
        result: &mut AccessResult,
    ) {
        let addr = PhysAddr::new(victim.line);
        if victim.tx {
            result.tx_evictions.push(TxEviction {
                line: addr,
                data: victim.data,
            });
            return;
        }
        let kind = PhysMem::kind_of_addr(addr);
        // Write-back latency is absorbed by write buffers, not charged to
        // the core; traffic is still counted.
        let _ = timing.access_cycles(stats, kind, addr, AccessKind::Write);
        match kind {
            crate::timing::MemKind::Dram => stats.dram_writes += 1,
            crate::timing::MemKind::Nvram => stats.record_nvram_write(WriteClass::Data),
        }
        stats.writebacks += 1;
        mem.write_line(addr.ppn(), addr.line_index(), &victim.data);
    }

    /// Writes the freshest copy of `line` to memory and marks every cached
    /// copy clean (the semantics of `clwb`). Returns the persist latency in
    /// cycles, or `None` if the line was nowhere dirty.
    pub fn flush_line(
        &mut self,
        line: PhysAddr,
        class: WriteClass,
        _cfg: &MachineConfig,
        mem: &mut PhysMem,
        timing: &mut MemTiming,
        stats: &mut MachineStats,
    ) -> Option<u64> {
        let key = line.line_base().raw();
        let mut fresh: Option<[u8; LINE_SIZE]> = None;
        if let Some(entry) = self.dir.get(&key) {
            if let Some(owner) = entry.dirty_owner {
                if let Some(idx) = self.l1[owner].find_promote(key) {
                    let l1 = &mut self.l1[owner];
                    if l1.is_dirty(idx) {
                        fresh = Some(*l1.data(idx));
                        l1.set_dirty(idx, false);
                        l1.set_tx(idx, false);
                    }
                }
            }
        }
        if let Some(idx) = self.l3.find_promote(key) {
            match fresh {
                Some(data) => {
                    self.l3.set_data(idx, &data);
                    self.l3.set_dirty(idx, false);
                    self.l3.set_tx(idx, false);
                }
                None => {
                    if self.l3.is_dirty(idx) {
                        fresh = Some(*self.l3.data(idx));
                        self.l3.set_dirty(idx, false);
                        self.l3.set_tx(idx, false);
                    }
                }
            }
        }
        let data = fresh?;
        if let Some(entry) = self.dir.get_mut(&key) {
            entry.dirty_owner = None;
        }
        let kind = PhysMem::kind_of_addr(line);
        let cycles = timing.access_cycles(stats, kind, line.line_base(), AccessKind::Write);
        match kind {
            crate::timing::MemKind::Dram => stats.dram_writes += 1,
            crate::timing::MemKind::Nvram => stats.record_nvram_write(class),
        }
        mem.write_line(line.ppn(), line.line_index(), &data);
        Some(cycles)
    }

    /// Atomically moves `core`'s cached copy of `old` so it tags `new`
    /// instead — SSP's line-level remap (Figure 4, step iii). The data does
    /// not move through memory. Returns `false` if `core`'s L1 does not hold
    /// `old` (the caller must fill it first).
    #[allow(clippy::too_many_arguments)]
    pub fn retag(
        &mut self,
        core: CoreId,
        old: PhysAddr,
        new: PhysAddr,
        cfg: &MachineConfig,
        mem: &mut PhysMem,
        timing: &mut MemTiming,
        stats: &mut MachineStats,
    ) -> Option<AccessResult> {
        let old_key = old.line_base().raw();
        let new_key = new.line_base().raw();
        let slot = self.l1[core.index()].remove(old_key)?;
        let mut result = AccessResult::default();
        // Drop every stale trace of the old identity.
        self.back_invalidate(old_key);
        let _ = self.l2[core.index()].remove(old_key);
        if let Some(l3_victim) = self.l3.remove(old_key) {
            debug_assert_eq!(l3_victim.line, old_key);
        }
        // Remove any stale copy of the new identity (its committed data is
        // obsolete from this core's perspective — it was flushed earlier).
        self.back_invalidate(new_key);
        let _ = self.l3.remove(new_key);

        // Insert under the new identity: dirty + TX in L1, clean copy in L3
        // to preserve inclusion.
        if let Some(v) = self.l3.insert(Slot {
            line: new_key,
            dirty: false,
            tx: true,
            data: slot.data,
        }) {
            self.evict_from_l3(v, cfg, mem, timing, stats, &mut result);
        }
        let entry = self.dir.entry(new_key).or_default();
        entry.sharers = 1 << core.index();
        entry.dirty_owner = Some(core.index());
        if let Some(v) = self.l1[core.index()].insert(Slot {
            line: new_key,
            dirty: true,
            tx: true,
            data: slot.data,
        }) {
            self.evict_from_l1(core, v, cfg, mem, timing, stats, &mut result);
        }
        Some(result)
    }

    /// Installs a clean line into the shared L3 (a background OS thread's
    /// cached copy loop followed by `clwb` leaves the data resident).
    /// Any stale copies of the identity are dropped first. Displaced dirty
    /// TX lines (rare set-pressure fallout) are returned for the engine to
    /// handle.
    pub fn install_line_l3(
        &mut self,
        line: PhysAddr,
        data: [u8; LINE_SIZE],
        cfg: &MachineConfig,
        mem: &mut PhysMem,
        timing: &mut MemTiming,
        stats: &mut MachineStats,
    ) -> AccessResult {
        let key = line.line_base().raw();
        self.back_invalidate(key);
        let _ = self.l3.remove(key);
        let mut result = AccessResult::default();
        if let Some(v) = self.l3.insert(Slot {
            line: key,
            dirty: false,
            tx: false,
            data,
        }) {
            self.evict_from_l3(v, cfg, mem, timing, stats, &mut result);
        }
        result
    }

    /// Clears the TX bit on every cached copy of `line` (transaction commit).
    pub fn clear_tx(&mut self, line: PhysAddr) {
        let key = line.line_base().raw();
        for l1 in &mut self.l1 {
            if let Some(idx) = l1.find_promote(key) {
                l1.set_tx(idx, false);
            }
        }
        if let Some(idx) = self.l3.find_promote(key) {
            self.l3.set_tx(idx, false);
        }
    }

    /// Drops every cached copy of `line` without writing it back (SSP abort
    /// discards speculative data).
    pub fn discard_line(&mut self, line: PhysAddr) {
        let key = line.line_base().raw();
        self.back_invalidate(key);
        let _ = self.l3.remove(key);
    }

    /// Number of dirty lines currently cached anywhere (diagnostics).
    pub fn dirty_lines(&self) -> usize {
        let l1_dirty: usize = self
            .l1
            .iter()
            .map(|c| c.iter_lines().filter(|&(_, dirty)| dirty).count())
            .sum();
        let l1_lines: std::collections::HashSet<u64> = self
            .l1
            .iter()
            .flat_map(|c| c.iter_lines().filter(|&(_, d)| d).map(|(line, _)| line))
            .collect();
        let l3_dirty = self
            .l3
            .iter_lines()
            .filter(|&(line, dirty)| dirty && !l1_lines.contains(&line))
            .count();
        l1_dirty + l3_dirty
    }

    /// Discards all cached state (power failure).
    pub fn crash(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.l3.clear();
        self.dir.clear();
    }
}

fn apply_op(slot: &mut Slot, op: &mut LineOp<'_>, tx: bool, is_write: bool) {
    match op {
        LineOp::Read(buf) => buf.copy_from_slice(&slot.data),
        LineOp::Write { offset, data } => {
            assert!(*offset + data.len() <= LINE_SIZE, "write crosses line end");
            slot.data[*offset..*offset + data.len()].copy_from_slice(data);
        }
    }
    if is_write {
        slot.dirty = true;
        if tx {
            slot.tx = true;
        }
    }
}
