//! The cache hierarchy as its specification states it, in plain data: what
//! [`CacheHierarchy`](super::CacheHierarchy) must do (`lockstep.rs` checks).
//!
//! * A set is its lines MRU-first. A line enters at the front; if the set
//!   overflows, its last non-TX line leaves (the incoming line itself, if
//!   plain among TX residents: it *bounces*), else its last line.
//! * Per core an L1 and an L2 (tags only: timing). The L3 is shared and
//!   inclusive: a line leaving it leaves every L1 and L2 first.
//! * The MSI directory maps a line to the cores whose L1 holds it and the
//!   one holding it dirty; an entry lives as long as the L3 copy.
//! * A dirty line leaving the hierarchy goes home, or spills if TX.

use std::collections::HashMap;

use super::{CoreId, LineOp, TxEviction};
use crate::addr::{PhysAddr, LINE_SIZE};
use crate::config::MachineConfig;
use crate::phys::PhysMem;
use crate::stats::{MachineStats, WriteClass};
use crate::timing::{AccessKind, MemKind, MemTiming};

/// What an operation spilled: the dirty TX lines it pushed out.
type Spills = Vec<TxEviction>;

/// One cached line; `line` is its base physical address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Slot {
    pub line: u64,
    pub dirty: bool,
    pub tx: bool,
    pub data: [u8; LINE_SIZE],
}

impl Slot {
    pub fn new(line: u64, dirty: bool, tx: bool, data: [u8; LINE_SIZE]) -> Self {
        Self {
            line,
            dirty,
            tx,
            data,
        }
    }
}

/// A set-associative array: per set, its lines MRU-first.
#[derive(Debug, Clone)]
pub(super) struct Sets {
    ways: usize,
    pub sets: Vec<Vec<Slot>>,
}

impl Sets {
    pub fn new(sets: usize, ways: usize) -> Self {
        let sets = vec![Vec::new(); sets.max(1)];
        Self { ways, sets }
    }

    fn index(&self, line: u64) -> usize {
        (line / LINE_SIZE as u64 % self.sets.len() as u64) as usize
    }

    pub fn peek(&self, line: u64) -> Option<&Slot> {
        self.sets[self.index(line)].iter().find(|s| s.line == line)
    }

    /// Looks `line` up and makes it MRU.
    pub fn touch(&mut self, line: u64) -> Option<&mut Slot> {
        let slot = self.remove(line)?;
        let set = self.index(line);
        self.sets[set].insert(0, slot);
        self.sets[set].first_mut()
    }

    pub fn remove(&mut self, line: u64) -> Option<Slot> {
        let set = self.index(line);
        let pos = self.sets[set].iter().position(|s| s.line == line)?;
        Some(self.sets[set].remove(pos))
    }

    /// Puts `slot` at the MRU front; returns the line that leaves for it
    /// if the set overflows (`slot` itself if it bounces).
    pub fn insert(&mut self, slot: Slot) -> Option<Slot> {
        let (ways, index) = (self.ways, self.index(slot.line));
        let set = &mut self.sets[index];
        set.insert(0, slot);
        if set.len() <= ways {
            return None;
        }
        let victim = set.iter().rposition(|s| !s.tx).unwrap_or(ways);
        Some(set.remove(victim))
    }
}

/// A line's directory entry: its L1 holders, and the one holding it dirty.
#[derive(Debug, Clone, Copy, Default)]
struct Dir {
    sharers: u64,
    owner: Option<usize>,
}

/// The hierarchy and the memory beyond it. Its operations are the live
/// one's, less the config and memory (given here) plus their spills.
pub(super) struct Spec {
    cfg: MachineConfig,
    l1: Vec<Sets>,
    l2: Vec<Sets>,
    l3: Sets,
    dir: HashMap<u64, Dir>,
    spills: Spills,
    pub mem: PhysMem,
    pub timing: MemTiming,
    pub stats: MachineStats,
    /// The power is cut: writes home are counted but dropped.
    pub power_lost: bool,
}

impl Spec {
    pub fn new(cfg: &MachineConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            l1: vec![Sets::new(cfg.l1.sets(), cfg.l1.ways); cfg.cores],
            l2: vec![Sets::new(cfg.l2.sets(), cfg.l2.ways); cfg.cores],
            l3: Sets::new(cfg.l3.sets(), cfg.l3.ways),
            dir: HashMap::new(),
            spills: Vec::new(),
            mem: PhysMem::new(),
            timing: MemTiming::new(cfg),
            stats: MachineStats::new(),
            power_lost: false,
        }
    }

    /// `op` on `addr`'s line for `core`: its latency and its spills.
    pub fn access(&mut self, core: CoreId, addr: PhysAddr, op: LineOp, tx: bool) -> (u64, Spills) {
        assert!(op.end() <= LINE_SIZE, "access crosses line end");
        let (line, c, write) = (addr.line_base().raw(), core.index(), op.is_write());
        let mut cycles = self.cfg.l1.latency_cycles;
        if self.l1[c].peek(line).is_some() {
            self.stats.l1_hits += 1;
            cycles += if write { self.own(c, line) } else { 0 };
            apply(self.l1[c].touch(line).expect("hit"), op, tx);
            return (cycles, Vec::new());
        }
        // Another core's dirty copy comes down to the L3 first.
        cycles += self.recall(c, line) + self.cfg.l2.latency_cycles;
        let l2_hit = self.l2[c].touch(line).is_some();
        let kind = PhysMem::kind_of_addr(addr);
        if l2_hit {
            self.stats.l2_hits += 1;
        } else {
            cycles += self.cfg.l3.latency_cycles;
            let hit = self.l3.touch(line).is_some();
            (self.timing).record_llc_probe(line / LINE_SIZE as u64, kind, write, hit);
            match (hit, kind) {
                (true, _) => self.stats.l3_hits += 1,
                (false, MemKind::Dram) => self.stats.dram_reads += 1,
                (false, MemKind::Nvram) => self.stats.nvram_reads += 1,
            }
        }
        if self.l3.peek(line).is_none() {
            // A demand miss, or an L2 tag whose line the L3 has dropped.
            self.stats.mem_accesses += 1;
            let (at, read) = (addr.line_base(), AccessKind::Read);
            cycles += (self.timing).access_cycles(&mut self.stats, kind, at, read);
            let data = self.mem.read_line(addr.ppn(), addr.line_index());
            let entered = self.enter_l3(Slot::new(line, false, false, data));
            assert!(entered, "line resident in L3");
        }
        if !l2_hit {
            self.l2[c].insert(Slot::new(line, false, false, [0; LINE_SIZE]));
        }
        cycles += if write { self.own(c, line) } else { 0 };
        let home = self.l3.peek(line).expect("line resident in L3");
        let mut slot = Slot::new(line, false, home.tx, home.data);
        apply(&mut slot, op, tx);
        self.dir.entry(line).or_default().sharers |= 1 << c;
        if let Some(victim) = self.l1[c].insert(slot) {
            self.leave_l1(c, victim);
        }
        (cycles, std::mem::take(&mut self.spills))
    }

    /// Makes `c` the owner of `line`, dropping every other core's copy;
    /// returns the broadcast's latency, if there was anyone to tell.
    fn own(&mut self, c: usize, line: u64) -> u64 {
        let dir = self.dir.entry(line).or_default();
        let others = dir.sharers & !(1 << c);
        (dir.sharers, dir.owner) = (dir.sharers & 1 << c, Some(c));
        if others == 0 {
            return 0;
        }
        self.drop_above(line, others);
        self.stats.coherence_invalidations += u64::from(others.count_ones());
        self.cfg.coherence_broadcast_cycles
    }

    /// Moves another core's dirty copy of `line` into the L3 (a
    /// cache-to-cache transfer); returns its latency.
    fn recall(&mut self, c: usize, line: u64) -> u64 {
        let owner = self.dir.get(&line).and_then(|d| d.owner);
        let Some(owner) = owner.filter(|&o| o != c) else {
            return 0;
        };
        let fresh = self.drop_above(line, 1 << owner).expect("the owner's copy");
        self.leave_l1(owner, fresh);
        self.stats.coherence_invalidations += 1;
        self.cfg.l3.latency_cycles
    }

    /// Takes `victim`, which just left core `c`'s L1, out of the
    /// directory; a dirty one merges into its L3 copy.
    fn leave_l1(&mut self, c: usize, victim: Slot) {
        let dir = self.dir.entry(victim.line).or_default();
        dir.sharers &= !(1 << c);
        dir.owner = dir.owner.filter(|&o| o != c);
        if victim.dirty {
            let home = self.l3.touch(victim.line).expect("inclusive L3");
            (home.data, home.dirty, home.tx) = (victim.data, true, victim.tx);
        }
    }

    /// Puts `slot` into the L3 (false if it bounced); the freshest copy of
    /// the line it displaces, if dirty, goes home or spills.
    fn enter_l3(&mut self, slot: Slot) -> bool {
        let line = slot.line;
        let victim = match self.l3.insert(slot) {
            Some(victim) if victim.line != line => victim,
            bounced => return bounced.is_none(),
        };
        let Some(s) = self.purge(victim.line).or(victim.dirty.then_some(victim)) else {
            return true;
        };
        let (line, data) = (PhysAddr::new(s.line), s.data);
        if s.tx {
            self.spills.push(TxEviction { line, data });
        } else {
            self.stats.writebacks += 1;
            self.persist(line, WriteClass::Data, &data);
        }
        true
    }

    /// Drops `line` from the L1 and L2 of every core in `cores`; returns
    /// the dirty L1 copy among them, if any.
    fn drop_above(&mut self, line: u64, cores: u64) -> Option<Slot> {
        let mut fresh = None;
        for c in (0..self.l1.len()).filter(|c| cores >> c & 1 == 1) {
            fresh = self.l1[c].remove(line).filter(|s| s.dirty).or(fresh);
            self.l2[c].remove(line);
        }
        fresh
    }

    /// Drops every cached copy of `line` and its directory entry; returns
    /// the dirty L1 copy, if any (nothing is written back).
    fn purge(&mut self, line: u64) -> Option<Slot> {
        self.l3.remove(line);
        let sharers = self.dir.remove(&line).map_or(0, |d| d.sharers);
        self.drop_above(line, sharers)
    }

    /// Writes `data` home, counting it; returns the write's latency.
    fn persist(&mut self, addr: PhysAddr, class: WriteClass, data: &[u8; LINE_SIZE]) -> u64 {
        let kind = PhysMem::kind_of_addr(addr);
        let cycles = (self.timing).access_cycles(&mut self.stats, kind, addr, AccessKind::Write);
        match kind {
            MemKind::Dram => self.stats.dram_writes += 1,
            MemKind::Nvram => self.stats.record_nvram_write(class),
        }
        if !self.power_lost {
            self.mem.write_unported(addr, data);
        }
        cycles
    }

    /// `clwb`: the freshest copy goes home and every copy turns clean.
    pub fn flush_line(&mut self, line: PhysAddr, class: WriteClass) -> Option<u64> {
        let key = line.line_base().raw();
        let home = self.l3.touch(key)?;
        let owner = self.dir.get_mut(&key).and_then(|d| d.owner.take());
        let fresh = owner.and_then(|o| self.l1[o].touch(key)).map(|s| {
            (s.dirty, s.tx) = (false, false);
            s.data
        });
        let data = fresh.or(home.dirty.then_some(home.data))?;
        (home.data, home.dirty, home.tx) = (data, false, false);
        Some(self.persist(line.line_base(), class, &data))
    }

    /// SSP's line remap: `core`'s copy of `old` becomes its own dirty TX copy
    /// of `new`, the only copy of either left. `None` if it holds no `old`.
    pub fn retag(&mut self, core: CoreId, old: PhysAddr, new: PhysAddr) -> Option<Spills> {
        let (c, old, new) = (core.index(), old.line_base().raw(), new.line_base().raw());
        let held = self.l1[c].remove(old)?;
        self.purge(old);
        self.purge(new);
        self.enter_l3(Slot::new(new, false, true, held.data)); // a TX line never bounces
        let dir = self.dir.entry(new).or_default();
        (dir.sharers, dir.owner) = (1 << c, Some(c));
        if let Some(victim) = self.l1[c].insert(Slot::new(new, true, true, held.data)) {
            self.leave_l1(c, victim);
        }
        Some(std::mem::take(&mut self.spills))
    }

    /// A clean copy of `line` enters the L3 (kept only if it fits).
    pub fn install_line_l3(&mut self, line: PhysAddr, data: [u8; LINE_SIZE]) -> Spills {
        let key = line.line_base().raw();
        self.purge(key);
        self.enter_l3(Slot::new(key, false, false, data));
        std::mem::take(&mut self.spills)
    }

    /// Commit: no cached copy of `line` is TX any more.
    pub fn clear_tx(&mut self, line: PhysAddr) {
        let key = line.line_base().raw();
        let levels = self.l1.iter_mut().chain([&mut self.l3]);
        for s in levels.filter_map(|l| l.touch(key)) {
            s.tx = false;
        }
    }

    pub fn discard_line(&mut self, line: PhysAddr) {
        self.purge(line.line_base().raw());
    }

    /// Dirty lines in any L1, plus dirty L3 lines no L1 holds dirty.
    pub fn dirty_lines(&self) -> usize {
        let dirty = |l: &Sets| l.sets.concat().into_iter().filter(|s| s.dirty);
        let l1: Vec<u64> = self.l1.iter().flat_map(dirty).map(|s| s.line).collect();
        l1.len() + dirty(&self.l3).filter(|s| !l1.contains(&s.line)).count()
    }

    /// Power failure: nothing cached survives, nor the memory's open
    /// rows; what reached memory does, and memory is writable again.
    pub fn crash(&mut self) {
        self.mem.crash();
        self.timing.reset();
        self.power_lost = false;
        let levels = self.l1.iter_mut().chain(&mut self.l2).chain([&mut self.l3]);
        levels.for_each(|l| l.sets.iter_mut().for_each(Vec::clear));
        self.dir.clear();
        self.spills.clear();
    }
}

/// `op` on a line's bytes; a write leaves it dirty, and TX if `tx`.
fn apply(slot: &mut Slot, op: LineOp, tx: bool) {
    match op {
        LineOp::Read { offset, buf } => buf.copy_from_slice(&slot.data[offset..][..buf.len()]),
        LineOp::Write { offset, data } => {
            slot.data[offset..][..data.len()].copy_from_slice(data);
            (slot.dirty, slot.tx) = (true, slot.tx || tx);
        }
    }
}
