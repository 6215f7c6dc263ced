//! Cache hierarchy: per-core L1 data caches, per-core L2 tag caches (timing
//! only), a shared inclusive L3, and an MSI-style directory.
//!
//! Functional rules that matter for crash correctness:
//!
//! * Lines hold real data; physical memory is only updated when a line is
//!   written back or explicitly flushed, so a simulated crash sees exactly
//!   the bytes that reached (NV)RAM. Only the L1s store line bytes; the
//!   L3 keeps bytes only where they differ from memory (see *Where a
//!   line's bytes live*).
//! * Lines carry a **TX bit** (the paper's per-line transactional tag). The
//!   hierarchy never writes a dirty TX line back to its home address on
//!   eviction; instead the line goes into the hierarchy's spill buffer and
//!   the [`Machine`](crate::machine::Machine) settles it once the access is
//!   over: written home (safe under SSP, where remapping already protects
//!   the committed copy), or held for an engine that must keep it away from
//!   home until commit (redo logging).
//! * Only one core may hold a line dirty (single-writer); writes to shared
//!   lines invalidate the other sharers and are counted as coherence
//!   traffic.
//!
//! # Host-side data layout
//!
//! `SetAssoc` stores the arrays struct-of-arrays: tags and dirty/TX flag
//! bytes live in flat vectors indexed by `set * ways + way`, and the
//! per-set MRU order is a byte permutation of the way indices
//! (`order[set*ways..][..len]`, MRU first; initialised lazily per set).
//! Only an L1 has a payload column: one flat `Vec<[u8; 64]>` indexed like
//! the tags, 32 KiB per core at the default geometry, allocated with the
//! cache. A probe computes the set index by mask or precomputed
//! reciprocal (`fastmod::Modulus`), scans at most `ways` order bytes
//! against the contiguous tags and yields a `(set, pos)` pair; everything
//! after it addresses the slot by `Loc` — way and flat index together —
//! so nothing is divided back out of a flat index.
//! Replacement decisions read the same MRU-first sequence the
//! specification's `Vec<Slot>` per set stores physically, so hit, miss
//! and victim streams are the spec's (`cache/lockstep.rs` drives the two
//! side by side to prove it).
//!
//! A line is never carried by value. It enters a level by
//! `SetAssoc::claim` — tag, flags and sharer mask written in place, an L1
//! payload the caller's to fill, what it displaces reported without its
//! bytes — and leaves by `SetAssoc::remove`, which takes it out of the
//! MRU order and nothing else: the vacated slot stays readable until it
//! is claimed again. So a line leaving the L3 (`claim_l3`: capacity,
//! `retag`, `install_line_l3`) is back-invalidated through its sharer
//! mask and, only if it leaves dirty, written back or spilled from where
//! its freshest bytes lie — the L1 slot it just vacated or its overlay
//! entry — while `purge` (`retag`, `install_line_l3`, `discard_line`)
//! reads no bytes at all. And `retag`, SSP's line remap, copies none
//! where an L1 set spans a page: removed under its old name and claimed
//! under the new one, the line lands on the way it vacated, re-keyed in
//! place.
//!
//! # Where a line's bytes live
//!
//! The L3 is tags, flags, MRU order and the directory. A line's bytes
//! live in one of three places: an L1 slot; `PhysMem`; or, only while
//! the L3 copy differs from memory, the hierarchy's `overlay` map, keyed
//! by line. An L3 slot with an overlay entry carries `FLAG_OVERLAY`, so a
//! clean line costs no map lookup: `l3_bytes` reads the entry if the slot
//! is flagged and memory otherwise, and `l3_store` writes the entry.
//!
//! * **Fill.** An L3 fill claims the slot and copies nothing; the L1 fill
//!   (or a bounce) reads the bytes through `l3_bytes`, so a cold line is
//!   copied once, memory → L1.
//! * **Into the overlay.** A dirty L1 victim and an owner recall store
//!   their bytes there. So do a flush whose write the memory port dropped
//!   (its power-cut latch is set) and an `install_line_l3` whose data
//!   memory does not hold (behind `Machine::install_line_cached`: while
//!   the latch is set), because memory then keeps its old bytes.
//! * **Out of the overlay.** The entry is dropped when a flush reaches
//!   memory, when the slot leaves the L3 (a victim — written back from the
//!   entry first if dirty — or a `purge`) and on `crash`.
//! * **`retag` stores nothing.** The new name's slot is `OWNED`: its
//!   bytes are the owner's dirty L1 copy until an eviction merge, a recall
//!   or a flush brings them down, so no path reads an owned slot's bytes
//!   (`l3_bytes` asserts it).
//! * **Memory written behind the hierarchy** (`Machine`'s uncached writes,
//!   which reach memory through the same port as write-backs and flushes)
//!   calls `CacheHierarchy::before_memory_write` first: a clean,
//!   unflagged L3 copy snapshots memory's old bytes into the overlay, so a
//!   cached read returns what the cache held.
//!
//! # Where the directory lives
//!
//! The MSI directory — which L1s hold a line, and whether one of them
//! holds it dirty — is two more struct-of-arrays columns of the **L3**:
//! a sharer mask per slot and an `OWNED` flag bit (the owner is then the
//! mask's only set bit, the single-writer rule). That is sound because
//! the L3 is inclusive *by construction*: a line enters an L1 only from
//! its L3 slot (`access`, `retag`), and every way a line leaves the L3 —
//! capacity eviction, `retag`, `install_line_l3`, `discard_line` — first
//! removes it from every L1 named in its sharer mask. So a line with
//! directory state always has an L3 slot to keep it in, the state is
//! found by the L3 probe the miss, flush and retag paths make anyway,
//! and it leaves with the slot when the line is evicted. An L1 hit needs
//! no directory at all unless it is the first write to a clean line: a
//! line dirty in an L1 is owned by that L1 and shared with nobody.
//!
//! # The specification
//!
//! `cache/spec.rs` (test-only) states what this hierarchy must do in plain
//! data: per set an MRU-first `Vec` of lines, a tag-only L2, an inclusive
//! L3 and the directory as a map from line to sharers and owner — no
//! layout, index arithmetic or fast path. `cache/lockstep.rs` drives this
//! module and the spec with one operation stream, random and forced, and
//! after every step compares results, cycles, spills, counters, dirty
//! lines and the memory and LLC events the timing model recorded.

use crate::addr::{PhysAddr, LINE_SIZE};
use crate::config::MachineConfig;
use crate::fastmod::Modulus;
use crate::phys::{MemPort, PhysMem};
use crate::stats::{MachineStats, WriteClass};
use crate::timing::{AccessKind, MemKind};
use fxhash::FxHashMap;

#[cfg(test)]
mod lockstep;
#[cfg(test)]
mod spec;

/// Identifier of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core id.
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// Returns the zero-based index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

const FLAG_DIRTY: u8 = 1 << 0;
const FLAG_TX: u8 = 1 << 1;
/// L3 only: the slot's single sharer holds the line dirty in its L1.
const FLAG_OWNED: u8 = 1 << 2;
/// L3 only: the line's bytes are its `overlay` entry, not memory's.
const FLAG_OVERLAY: u8 = 1 << 3;

/// What a [`SetAssoc`] stores per slot besides tag, flags and MRU order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Line payloads (an L1) — the only level that has any.
    Data,
    /// Nothing: a timing-only tag array (an L2).
    Tags,
    /// The directory's sharer masks for this many cores (the L3). No
    /// payload: see the module docs, *Where a line's bytes live*.
    Directory(usize),
}

/// The directory's sharer-mask column: one bit per core per slot, in
/// bytes while the machine has at most eight cores (every machine the
/// bench targets build; a sharded run's slices have one) — the column is
/// touched wherever the L3 is, so its width is resident memory.
#[derive(Debug, Clone)]
enum SharerMasks {
    /// Not a directory.
    Absent,
    Narrow(Vec<u8>),
    Wide(Vec<u64>),
}

impl SharerMasks {
    #[inline]
    fn get(&self, idx: usize) -> u64 {
        match self {
            SharerMasks::Absent => 0,
            SharerMasks::Narrow(masks) => masks[idx] as u64,
            SharerMasks::Wide(masks) => masks[idx],
        }
    }

    #[inline]
    fn set(&mut self, idx: usize, mask: u64) {
        match self {
            SharerMasks::Absent => debug_assert_eq!(mask, 0, "sharers outside the directory"),
            SharerMasks::Narrow(masks) => masks[idx] = mask as u8,
            SharerMasks::Wide(masks) => masks[idx] = mask,
        }
    }
}

/// The address of one slot: its way and the flat `set * ways + way`
/// index of the tag/flag/sharer/payload columns, computed once by the
/// probe.
#[derive(Debug, Clone, Copy)]
struct Loc {
    way: usize,
    idx: usize,
}

/// The line a [`SetAssoc::claim`] pushed out of its slot, without its
/// payload.
#[derive(Debug, Clone, Copy)]
struct Displaced {
    line: u64,
    /// `FLAG_*` bits.
    flags: u8,
    sharers: u64,
}

/// A set-associative array with MRU-first ordering per set, stored
/// struct-of-arrays (see the module docs).
#[derive(Debug, Clone)]
struct SetAssoc {
    ways: usize,
    nsets: usize,
    /// `line number % nsets` without the division.
    index: Modulus,
    /// Line base address per slot (`set * ways + way`); valid only for
    /// occupied ways.
    tags: Vec<u64>,
    /// `FLAG_*` bits per slot.
    flags: Vec<u8>,
    /// Directory sharer mask per slot ([`Role::Directory`] only).
    /// Zero-mapped like the other columns until a set is used.
    sharers: SharerMasks,
    /// Line payload per slot ([`Role::Data`] only; empty otherwise).
    data: Vec<[u8; LINE_SIZE]>,
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
    fn new(sets: usize, ways: usize, role: Role) -> Self {
        assert!(ways >= 1 && ways <= u8::MAX as usize, "unsupported ways");
        let nsets = sets.max(1);
        let slots = nsets * ways;
        // The vectors are all-zero allocations that are never written
        // here (`order` initialises per set on first insert), so building
        // even a 12 MiB L3 costs ~3 MiB of zero-mapped metadata — machines
        // are constructed per shard per bench cell.
        Self {
            ways,
            nsets,
            index: Modulus::new(nsets as u64),
            tags: vec![0; slots],
            flags: vec![0; slots],
            sharers: match role {
                Role::Directory(cores) if cores <= 8 => SharerMasks::Narrow(vec![0; slots]),
                Role::Directory(_) => SharerMasks::Wide(vec![0; slots]),
                Role::Data | Role::Tags => SharerMasks::Absent,
            },
            data: vec![[0; LINE_SIZE]; if role == Role::Data { slots } else { 0 }],
            order: vec![0; slots],
            len: vec![0; nsets],
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        self.index.of(line / LINE_SIZE as u64) as usize
    }

    /// Finds `line` in `set` — its [`set_index`](Self::set_index), which a
    /// miss path computes once per level and reuses for the fill — without
    /// touching MRU order. Returns the position within the MRU order.
    #[inline(always)]
    fn probe_in(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        let n = self.len[set] as usize;
        let order = &self.order[base..base + n];
        let tags = &self.tags[base..base + self.ways];
        for (pos, &way) in order.iter().enumerate() {
            if tags[way as usize] == line {
                return Some(pos);
            }
        }
        None
    }

    /// Finds `line` in its set without touching MRU order. Returns the set
    /// index and the position within the MRU order.
    #[inline(always)]
    fn probe(&self, line: u64) -> Option<(usize, usize)> {
        let set = self.set_index(line);
        Some((set, self.probe_in(set, line)?))
    }

    /// The slot at MRU position `pos` of `set`.
    #[inline(always)]
    fn loc_at(&self, set: usize, pos: usize) -> Loc {
        let base = set * self.ways;
        let way = self.order[base + pos] as usize;
        Loc {
            way,
            idx: base + way,
        }
    }

    /// Moves the entry at MRU position `pos` of `set` to the MRU front and
    /// returns its slot.
    #[inline(always)]
    fn promote(&mut self, set: usize, pos: usize) -> Loc {
        let loc = self.loc_at(set, pos);
        let base = set * self.ways;
        match pos {
            0 => {}
            // Two lines of one set taking turns: a swap, not a `memmove`.
            1 => self.order.swap(base, base + 1),
            _ => {
                self.order.copy_within(base..base + pos, base + 1);
                self.order[base] = loc.way as u8;
            }
        }
        loc
    }

    /// Looks a line up and promotes it to MRU, returning its slot.
    #[inline]
    fn find_promote(&mut self, line: u64) -> Option<Loc> {
        let (set, pos) = self.probe(line)?;
        Some(self.promote(set, pos))
    }

    /// Looks a line up without promoting it, returning its slot.
    #[inline]
    fn peek(&self, line: u64) -> Option<Loc> {
        let (set, pos) = self.probe(line)?;
        Some(self.loc_at(set, pos))
    }

    #[inline]
    fn is_dirty(&self, at: Loc) -> bool {
        self.flags[at.idx] & FLAG_DIRTY != 0
    }

    #[inline]
    fn is_tx(&self, at: Loc) -> bool {
        self.flags[at.idx] & FLAG_TX != 0
    }

    #[inline]
    fn is_owned(&self, at: Loc) -> bool {
        self.flags[at.idx] & FLAG_OWNED != 0
    }

    #[inline]
    fn set_flag(&mut self, at: Loc, flag: u8, on: bool) {
        if on {
            self.flags[at.idx] |= flag;
        } else {
            self.flags[at.idx] &= !flag;
        }
    }

    /// The slot's payload ([`Role::Data`] only).
    #[inline]
    fn line(&self, at: Loc) -> &[u8; LINE_SIZE] {
        &self.data[at.idx]
    }

    #[inline]
    fn line_mut(&mut self, at: Loc) -> &mut [u8; LINE_SIZE] {
        &mut self.data[at.idx]
    }

    /// Applies a line operation to the slot.
    #[inline(always)]
    fn apply(&mut self, at: Loc, op: LineOp<'_>, tx: bool) {
        if op.is_write() {
            self.flags[at.idx] |= if tx { FLAG_DIRTY | FLAG_TX } else { FLAG_DIRTY };
        }
        apply_op(self.line_mut(at), op);
    }

    /// Takes `line` out of its set and returns the slot it leaves. Nothing
    /// but the MRU order is touched: the slot's tag, flags, sharer mask
    /// and L1 payload stay readable there until a [`claim`](Self::claim)
    /// hands the way to another line, so whoever still needs them reads
    /// them in place instead of carrying a copy.
    fn remove(&mut self, line: u64) -> Option<Loc> {
        let (set, pos) = self.probe(line)?;
        let base = set * self.ways;
        let n = self.len[set] as usize;
        let at = self.loc_at(set, pos);
        // Shift the MRU order up over the removed position; the freed way
        // byte lands at the head of the free region — the next claim of
        // this set takes it — keeping `order` a permutation of the way
        // indices.
        self.order.copy_within(base + pos + 1..base + n, base + pos);
        self.order[base + n - 1] = at.way as u8;
        self.len[set] = (n - 1) as u8;
        Some(at)
    }

    /// Picks the MRU position a line entering `set` takes over, and
    /// whether a resident is displaced from it: the first free way, or the
    /// LRU-most non-TX resident of a full set. Non-TX lines are preferred
    /// as victims (LRU among them); a TX line is only evicted when the
    /// whole set is transactional. Reproduces the specification's set
    /// exactly: conceptually the new line is placed at MRU and the victim
    /// is the *last* non-TX entry of the grown set — which is the incoming
    /// line itself when it is non-TX and every resident is TX. It then
    /// bounces: `None`, with nothing touched.
    #[inline(always)]
    fn place(&mut self, set: usize, incoming_tx: bool) -> Option<(usize, bool)> {
        let base = set * self.ways;
        let n = self.len[set] as usize;
        // A set's order bytes are all zero until its first insert and a
        // permutation of the way indices ever after (`remove` and `clear`
        // keep them one), whose first and last bytes differ — or are the
        // same byte, in a one-way set, which is then set up again at no
        // cost. Which free way a line lands in is unobservable, so the
        // permutation a crash-clear or a drain left behind serves as is.
        if n == 0 && self.order[base] == self.order[base + self.ways - 1] {
            for (way, slot_order) in self.order[base..base + self.ways].iter_mut().enumerate() {
                *slot_order = way as u8;
            }
        }
        if n < self.ways {
            self.len[set] = (n + 1) as u8;
            return Some((n, false));
        }
        let victim_pos = (0..self.ways)
            .rev()
            .find(|&pos| self.flags[base + self.order[base + pos] as usize] & FLAG_TX == 0);
        match victim_pos {
            Some(pos) => Some((pos, true)),
            None if !incoming_tx => None,
            // An all-TX set with a TX insert falls through to plain LRU.
            None => Some((self.ways - 1, true)),
        }
    }

    /// Claims a slot of `set` for `line`, which enters as MRU with `flags`
    /// and no sharers: tag, flags and sharer mask are written in place and
    /// an L1's payload is the caller's to fill. Returns where the line
    /// landed and what it displaced from a full set — whose L1 payload is
    /// still in the slot until the caller overwrites it. `None`, with
    /// nothing touched, if the line bounces (see [`place`](Self::place)).
    #[inline(always)]
    fn claim(&mut self, set: usize, line: u64, flags: u8) -> Option<(Loc, Option<Displaced>)> {
        debug_assert!(self.probe_in(set, line).is_none(), "claiming a duplicate");
        let (pos, full) = self.place(set, flags & FLAG_TX != 0)?;
        let at = self.loc_at(set, pos);
        let displaced = full.then(|| Displaced {
            line: self.tags[at.idx],
            flags: self.flags[at.idx],
            sharers: self.sharers.get(at.idx),
        });
        self.tags[at.idx] = line;
        self.flags[at.idx] = flags;
        self.sharers.set(at.idx, 0);
        Some((self.promote(set, pos), displaced))
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

/// A dirty transactional line that left the hierarchy and was **not**
/// written to its home address: a spill.
#[derive(Debug, Clone)]
pub struct TxEviction {
    /// Line base physical address.
    pub line: PhysAddr,
    /// The evicted line's data.
    pub data: [u8; LINE_SIZE],
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessResult {
    /// Latency charged to the issuing core.
    pub cycles: u64,
}

/// The operation an access performs on the target line.
#[derive(Debug)]
pub enum LineOp<'a> {
    /// Copy `buf.len()` bytes at `offset` within the line out.
    Read {
        /// Byte offset within the line.
        offset: usize,
        /// Where the bytes go.
        buf: &'a mut [u8],
    },
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

    /// One past the last line byte the operation touches.
    fn end(&self) -> usize {
        match self {
            LineOp::Read { offset, buf } => offset + buf.len(),
            LineOp::Write { offset, data } => offset + data.len(),
        }
    }
}

/// The full cache hierarchy shared by all cores. The coherence directory
/// is part of `l3` (see the module docs).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<SetAssoc>,
    l2: Vec<SetAssoc>,
    l3: SetAssoc,
    /// The bytes of every L3 line flagged `FLAG_OVERLAY`: those whose L3
    /// copy differs from memory (module docs, *Where a line's bytes
    /// live*).
    overlay: FxHashMap<u64, [u8; LINE_SIZE]>,
    /// Dirty TX lines that left the hierarchy and were not written home,
    /// oldest first. Whoever drives the hierarchy empties it after each
    /// operation (capacity is kept, so a spill allocates nothing once the
    /// buffer has grown to the largest burst).
    pub(crate) spills: Vec<TxEviction>,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cfg.cores` cores.
    pub fn new(cfg: &MachineConfig) -> Self {
        assert!(cfg.cores <= 64, "the sharer mask holds 64 cores");
        let l1 = (0..cfg.cores)
            .map(|_| SetAssoc::new(cfg.l1.sets(), cfg.l1.ways, Role::Data))
            .collect();
        let l2 = (0..cfg.cores)
            .map(|_| SetAssoc::new(cfg.l2.sets(), cfg.l2.ways, Role::Tags))
            .collect();
        Self {
            l1,
            l2,
            l3: SetAssoc::new(cfg.l3.sets(), cfg.l3.ways, Role::Directory(cfg.cores)),
            overlay: FxHashMap::default(),
            spills: Vec::new(),
        }
    }

    /// The bytes of the line in L3 slot `home`: its overlay entry if the
    /// slot is flagged, memory's otherwise.
    #[inline]
    fn l3_bytes(&self, home: Loc, mem: &PhysMem) -> [u8; LINE_SIZE] {
        debug_assert!(
            !self.l3.is_owned(home),
            "an owned L3 slot's bytes are its owner's L1 copy"
        );
        let line = self.l3.tags[home.idx];
        if self.l3.flags[home.idx] & FLAG_OVERLAY != 0 {
            self.overlay[&line]
        } else {
            let addr = PhysAddr::new(line);
            mem.read_line(addr.ppn(), addr.line_index())
        }
    }

    /// Makes `data` the bytes of the line in L3 slot `home`, which then
    /// differ from memory's.
    #[inline]
    fn l3_store(&mut self, home: Loc, data: &[u8; LINE_SIZE]) {
        self.l3.set_flag(home, FLAG_OVERLAY, true);
        self.overlay.insert(self.l3.tags[home.idx], *data);
    }

    /// Drops the overlay entry of `line`, whose L3 slot carried `flags`
    /// and has left the L3 (or now matches memory); returns it.
    #[inline]
    fn l3_forget(&mut self, line: u64, flags: u8) -> Option<[u8; LINE_SIZE]> {
        if flags & FLAG_OVERLAY == 0 {
            return None;
        }
        self.overlay.remove(&line)
    }

    /// Memory under `line` is about to be written behind the hierarchy's
    /// back (an uncached write). An L3 copy whose bytes are memory's keeps
    /// them: memory's old bytes go into the overlay, so a cached read
    /// returns what the cache held.
    pub(crate) fn before_memory_write(&mut self, line: PhysAddr, mem: &PhysMem) {
        let Some(home) = self.l3.peek(line.line_base().raw()) else {
            return;
        };
        if self.l3.flags[home.idx] & FLAG_OVERLAY == 0 {
            let old = mem.read_line(line.ppn(), line.line_index());
            self.l3_store(home, &old);
        }
    }

    /// Performs a data access at `addr` (within one line) for `core`.
    ///
    /// # Panics
    ///
    /// Panics, before anything is touched, if the operation crosses the
    /// end of the line.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn access(
        &mut self,
        core: CoreId,
        addr: PhysAddr,
        op: LineOp<'_>,
        tx: bool,
        cfg: &MachineConfig,
        port: &mut MemPort,
        stats: &mut MachineStats,
    ) -> AccessResult {
        assert!(op.end() <= LINE_SIZE, "access crosses line end");
        let line = addr.line_base().raw();
        let c = core.index();
        let mut result = AccessResult {
            cycles: cfg.l1.latency_cycles,
        };
        let is_write = op.is_write();

        // Fast path: L1 hit — one probe finds the way. Only the first
        // write to a clean line consults the directory: a line already
        // dirty here is owned by this core and shared with nobody, so
        // there is no one to invalidate and nothing to record.
        let set = self.l1[c].set_index(line);
        if let Some(pos) = self.l1[c].probe_in(set, line) {
            stats.l1_hits += 1;
            if is_write && !self.l1[c].is_dirty(self.l1[c].loc_at(set, pos)) {
                let home = self
                    .l3
                    .peek(line)
                    .expect("inclusive L3 holds every L1 line");
                self.ensure_exclusive(core, line, home, cfg, stats, &mut result);
                self.l3.set_flag(home, FLAG_OWNED, true);
            }
            let l1 = &mut self.l1[c];
            let at = l1.promote(set, pos);
            l1.apply(at, op, tx);
            return result;
        }
        self.access_miss(core, addr, op, tx, cfg, port, stats, result, set)
    }

    /// The rest of [`access`](Self::access) after the L1 probe of
    /// `l1_set` missed — out of line, so the hit path stays a leaf-sized
    /// function.
    ///
    /// A fill copies the line's bytes once, into its L1 slot from memory
    /// or the overlay ([`l3_bytes`](Self::l3_bytes)): each level claims a
    /// slot in place ([`SetAssoc::claim`]) under a set index computed
    /// once, and the L3 and L2 fills move no bytes at all. A victim's
    /// bytes are read where they lie, and only if it leaves dirty.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn access_miss(
        &mut self,
        core: CoreId,
        addr: PhysAddr,
        op: LineOp<'_>,
        tx: bool,
        cfg: &MachineConfig,
        port: &mut MemPort,
        stats: &mut MachineStats,
        mut result: AccessResult,
        l1_set: usize,
    ) -> AccessResult {
        let line = addr.line_base().raw();
        let c = core.index();
        let is_write = op.is_write();

        // One L3 probe serves the directory check, the demand
        // lookup and the fill. If another core owns the line dirty, pull
        // the fresh data into L3 first (cache-to-cache transfer), which
        // leaves the line at the MRU front.
        let l3_set = self.l3.set_index(line);
        let mut l3_hit = self.l3.probe_in(l3_set, line);
        if let Some(pos) = l3_hit {
            if self.recall_dirty_owner(core, line, l3_set, pos, cfg, stats, &mut result) {
                l3_hit = Some(0);
            }
        }

        // L2 (timing only).
        result.cycles += cfg.l2.latency_cycles;
        let l2 = &mut self.l2[c];
        let l2_set = l2.set_index(line);
        let l2_hit = l2.probe_in(l2_set, line);
        let home = if let Some(pos) = l2_hit {
            l2.promote(l2_set, pos);
            stats.l2_hits += 1;
            // Non-inclusive L2 tags can go stale: the line may have
            // fallen out of L3 since.
            l3_hit.map(|pos| self.l3.loc_at(l3_set, pos))
        } else {
            // L3. Demand probes are what the shared-LLC/coherence actors
            // replay against the shared set space at epoch boundaries
            // (retag/install/flush/refill paths stay private-slice-only).
            result.cycles += cfg.l3.latency_cycles;
            let kind = PhysMem::kind_of_addr(addr);
            match l3_hit {
                Some(pos) => {
                    stats.l3_hits += 1;
                    port.timing
                        .record_llc_probe(line / LINE_SIZE as u64, kind, is_write, true);
                    Some(self.l3.promote(l3_set, pos))
                }
                None => {
                    port.timing
                        .record_llc_probe(line / LINE_SIZE as u64, kind, is_write, false);
                    match kind {
                        MemKind::Dram => stats.dram_reads += 1,
                        MemKind::Nvram => stats.nvram_reads += 1,
                    }
                    None
                }
            }
        };
        // A demand miss or a stale L2 tag: bring the line into the L3, so
        // the directory has a slot to live in.
        let home = match home {
            Some(home) => home,
            None => {
                stats.mem_accesses += 1;
                self.fill_l3(addr, l3_set, port, stats, &mut result)
            }
        };
        if l2_hit.is_none() {
            // Fill the L2 tag array — after the L3 fill, whose victim may
            // just have left this set: a tag in place, whatever it
            // displaces simply forgotten.
            let _ = self.l2[c].claim(l2_set, line, 0);
        }

        if is_write {
            self.ensure_exclusive(core, line, home, cfg, stats, &mut result);
        }

        // Fill into L1 from L3. A write makes `core` the owner once the
        // L1 copy holds the bytes: an owned slot's bytes are not read.
        let l3_tx = self.l3.is_tx(home);
        self.l3
            .sharers
            .set(home.idx, self.l3.sharers.get(home.idx) | 1 << c);
        // What the line carries once `op` has been applied to it.
        let mut flags = if l3_tx { FLAG_TX } else { 0 };
        if is_write {
            flags |= if tx { FLAG_DIRTY | FLAG_TX } else { FLAG_DIRTY };
        }
        let Some((at, displaced)) = self.l1[c].claim(l1_set, line, flags) else {
            // A non-TX line meeting an L1 set full of TX lines bounces
            // straight back out: it serves `op` in passing and leaves as
            // its own victim (a write lands in the L3 copy).
            let mut bytes = self.l3_bytes(home, port.mem());
            apply_op(&mut bytes, op);
            let dirty = is_write.then_some((false, &bytes));
            self.evict_from_l1(core, line, dirty, port, stats);
            return result;
        };
        if let Some(victim) = displaced {
            // A clean victim leaves as an address; a dirty one takes its
            // bytes, still in the claimed slot, down to its L3 copy.
            let bytes;
            let dirty = if victim.flags & FLAG_DIRTY != 0 {
                bytes = *self.l1[c].line(at);
                Some((victim.flags & FLAG_TX != 0, &bytes))
            } else {
                None
            };
            self.evict_from_l1(core, victim.line, dirty, port, stats);
        }
        let bytes = self.l3_bytes(home, port.mem());
        let l1 = &mut self.l1[c];
        *l1.line_mut(at) = bytes;
        l1.apply(at, op, tx);
        if is_write {
            self.l3.set_flag(home, FLAG_OWNED, true);
        }
        result
    }

    /// Brings `addr`'s line from memory into a slot of L3 set `set` — its
    /// set — (charging the read to `result`) and returns where it landed.
    /// No bytes move: the slot's are memory's until they differ.
    ///
    /// # Panics
    ///
    /// Panics if the set is full of TX lines: the line bounces, and the
    /// directory has no slot to keep it in.
    fn fill_l3(
        &mut self,
        addr: PhysAddr,
        set: usize,
        port: &mut MemPort,
        stats: &mut MachineStats,
        result: &mut AccessResult,
    ) -> Loc {
        let kind = PhysMem::kind_of_addr(addr);
        result.cycles += port
            .timing
            .access_cycles(stats, kind, addr.line_base(), AccessKind::Read);
        self.claim_l3(set, addr.line_base().raw(), 0, port, stats)
            .expect("line resident in L3")
    }

    /// Claims a slot of L3 set `set` — `line`'s set — for `line`, which
    /// enters with `flags` and no sharers, and sees the line it displaces
    /// out of the hierarchy: back-invalidated from every L1 named in its
    /// sharer mask and, if it leaves dirty, written back or spilled from
    /// where its freshest bytes lie — the L1 slot it was just taken out
    /// of, or its overlay entry, which goes with it either way. `None`,
    /// with nothing touched, if `line` bounces (see [`SetAssoc::place`]).
    #[inline(always)]
    fn claim_l3(
        &mut self,
        set: usize,
        line: u64,
        flags: u8,
        port: &mut MemPort,
        stats: &mut MachineStats,
    ) -> Option<Loc> {
        let (home, displaced) = self.l3.claim(set, line, flags)?;
        let Some(v) = displaced else {
            return Some(home);
        };
        let entry = self.l3_forget(v.line, v.flags);
        // A victim that is clean and in no L1 is just gone.
        if v.sharers != 0 || v.flags & FLAG_DIRTY != 0 {
            let fresh = match self.back_invalidate(v.line, v.sharers) {
                Some((owner, at)) => Some((self.l1[owner].is_tx(at), self.l1[owner].line(at))),
                None if v.flags & FLAG_DIRTY != 0 => {
                    let bytes = entry.as_ref().expect("a dirty L3 line is in the overlay");
                    Some((v.flags & FLAG_TX != 0, bytes))
                }
                None => None,
            };
            if let Some((tx, data)) = fresh {
                write_back(&mut self.spills, v.line, tx, data, port, stats);
            }
        }
        Some(home)
    }

    /// Invalidate every other sharer so `core` can write the line whose
    /// L3 slot is `home`.
    fn ensure_exclusive(
        &mut self,
        core: CoreId,
        line: u64,
        home: Loc,
        cfg: &MachineConfig,
        stats: &mut MachineStats,
        result: &mut AccessResult,
    ) {
        let me = 1u64 << core.index();
        let sharers = self.l3.sharers.get(home.idx);
        let mut others = sharers & !me;
        if others == 0 {
            return;
        }
        self.l3.sharers.set(home.idx, sharers & me);
        // An owner is the only sharer, so an owner among `others` is not
        // `core`: its claim ends with its copy.
        self.l3.set_flag(home, FLAG_OWNED, false);
        while others != 0 {
            let other = others.trailing_zeros() as usize;
            others &= others - 1;
            // Sharers other than a dirty owner are clean by invariant.
            let _ = self.l1[other].remove(line);
            let _ = self.l2[other].remove(line);
            stats.coherence_invalidations += 1;
        }
        result.cycles += cfg.coherence_broadcast_cycles;
    }

    /// If another core holds the line (found at MRU position `pos` of L3
    /// set `set`) dirty, write its copy into L3, invalidate it there and
    /// promote the L3 line. Returns whether the recall happened.
    #[allow(clippy::too_many_arguments)]
    fn recall_dirty_owner(
        &mut self,
        core: CoreId,
        line: u64,
        set: usize,
        pos: usize,
        cfg: &MachineConfig,
        stats: &mut MachineStats,
        result: &mut AccessResult,
    ) -> bool {
        let home = self.l3.loc_at(set, pos);
        if !self.l3.is_owned(home) {
            return false;
        }
        let sharers = self.l3.sharers.get(home.idx);
        let owner = sharers.trailing_zeros() as usize;
        if owner == core.index() {
            return false;
        }
        self.l3.set_flag(home, FLAG_OWNED, false);
        let Some(from) = self.l1[owner].remove(line) else {
            return false;
        };
        let _ = self.l2[owner].remove(line);
        self.l3.sharers.set(home.idx, sharers & !(1 << owner));
        stats.coherence_invalidations += 1;
        result.cycles += cfg.l3.latency_cycles; // cache-to-cache transfer
        let home = self.l3.promote(set, pos);
        let l1 = &self.l1[owner];
        let (tx, bytes) = (l1.is_tx(from), *l1.line(from));
        self.merge_dirty(home, tx, &bytes);
        true
    }

    /// Makes a dirty L1 copy arriving from above (eviction merge,
    /// cache-to-cache recall) the line's L3 copy: dirty, TX if `tx`, its
    /// bytes in the overlay.
    #[inline]
    fn merge_dirty(&mut self, home: Loc, tx: bool, data: &[u8; LINE_SIZE]) {
        self.l3.set_flag(home, FLAG_DIRTY, true);
        self.l3.set_flag(home, FLAG_TX, tx);
        self.l3_store(home, data);
    }

    /// Removes `line` from the L1/L2 of every core in `sharers`
    /// (inclusive-L3 back-invalidation of a slot that is leaving the L3),
    /// returning the core and the vacated L1 slot that hold the freshest
    /// data, if an L1 held the line dirty.
    fn back_invalidate(&mut self, line: u64, mut sharers: u64) -> Option<(usize, Loc)> {
        let mut fresh = None;
        while sharers != 0 {
            let c = sharers.trailing_zeros() as usize;
            sharers &= sharers - 1;
            if let Some(at) = self.l1[c].remove(line) {
                if self.l1[c].is_dirty(at) {
                    fresh = Some((c, at));
                }
            }
            let _ = self.l2[c].remove(line);
        }
        fresh
    }

    /// Drops `line` from the L3 and, through its sharer mask less
    /// `except`, from every L1/L2 above it. Nothing is written back.
    fn purge(&mut self, line: u64, except: u64) {
        if let Some(at) = self.l3.remove(line) {
            self.l3_forget(line, self.l3.flags[at.idx]);
            self.back_invalidate(line, self.l3.sharers.get(at.idx) & !except);
        }
    }

    /// Takes `line`, which just left `core`'s L1, out of the directory; a
    /// line that left dirty hands over its TX bit and bytes, which merge
    /// into its L3 copy.
    fn evict_from_l1(
        &mut self,
        core: CoreId,
        line: u64,
        dirty: Option<(bool, &[u8; LINE_SIZE])>,
        port: &mut MemPort,
        stats: &mut MachineStats,
    ) {
        let Some((set, pos)) = self.l3.probe(line) else {
            // Unreachable while the L3 is inclusive (module docs); kept so
            // that a dirty line is never dropped silently if it is not.
            debug_assert!(false, "L1 victim without an L3 copy");
            if let Some((tx, data)) = dirty {
                write_back(&mut self.spills, line, tx, data, port, stats);
            }
            return;
        };
        let home = self.l3.loc_at(set, pos);
        let sharers = self.l3.sharers.get(home.idx) & !(1 << core.index());
        self.l3.sharers.set(home.idx, sharers);
        if sharers == 0 {
            self.l3.set_flag(home, FLAG_OWNED, false);
        }
        if let Some((tx, data)) = dirty {
            // Dirty L1 victim merges into its (inclusive) L3 copy.
            let home = self.l3.promote(set, pos);
            self.merge_dirty(home, tx, data);
        }
    }

    /// Writes the freshest copy of `line` to memory and marks every cached
    /// copy clean (the semantics of `clwb`). Returns the persist latency in
    /// cycles, or `None` if the line was nowhere dirty.
    pub(crate) fn flush_line(
        &mut self,
        line: PhysAddr,
        class: WriteClass,
        port: &mut MemPort,
        stats: &mut MachineStats,
    ) -> Option<u64> {
        let key = line.line_base().raw();
        // Every cached copy sits at or above the line's L3 slot, which
        // also names the one L1 that can hold it dirty.
        let (set, pos) = self.l3.probe(key)?;
        let mut fresh: Option<[u8; LINE_SIZE]> = None;
        let home = self.l3.loc_at(set, pos);
        if self.l3.is_owned(home) {
            let owner = self.l3.sharers.get(home.idx).trailing_zeros() as usize;
            let l1 = &mut self.l1[owner];
            if let Some(at) = l1.find_promote(key) {
                if l1.is_dirty(at) {
                    fresh = Some(*l1.line(at));
                    l1.set_flag(at, FLAG_DIRTY | FLAG_TX, false);
                }
            }
        }
        let home = self.l3.promote(set, pos);
        if fresh.is_none() && self.l3.is_dirty(home) {
            fresh = Some(self.l3_bytes(home, port.mem()));
        }
        let data = fresh?;
        self.l3
            .set_flag(home, FLAG_DIRTY | FLAG_TX | FLAG_OWNED, false);
        let cycles = port.write(stats, line.line_base(), &data, Some(class));
        // The L3 copy is now memory's — unless the power is cut and memory
        // kept its old bytes.
        if port.power_lost() {
            self.l3_store(home, &data);
        } else {
            self.l3_forget(key, self.l3.flags[home.idx]);
            self.l3.set_flag(home, FLAG_OVERLAY, false);
        }
        Some(cycles)
    }

    /// Atomically moves `core`'s cached copy of `old` so it tags `new`
    /// instead — SSP's line-level remap (Figure 4, step iii). The data does
    /// not move through memory and no latency is charged. Returns `false`,
    /// with nothing touched, if `core`'s L1 does not hold `old` (the caller
    /// must fill it first).
    ///
    /// The line is taken out of its L1 set and claimed back under its new
    /// name. Where both names index one set — every geometry whose L1 way
    /// spans a page — the claim lands on the way just vacated, so the
    /// payload stays put; otherwise it moves to the way claimed in the
    /// other set. The new name's L3 slot is owned by `core` and stores no
    /// bytes: they are the L1 copy's until it comes down.
    pub(crate) fn retag(
        &mut self,
        core: CoreId,
        old: PhysAddr,
        new: PhysAddr,
        port: &mut MemPort,
        stats: &mut MachineStats,
    ) -> bool {
        let old_key = old.line_base().raw();
        let new_key = new.line_base().raw();
        let c = core.index();
        let Some(from) = self.l1[c].remove(old_key) else {
            return false;
        };
        // Drop every stale trace of the old identity — `core`'s L1 is rid
        // of it already — and any stale copy of the new one (its committed
        // data is obsolete from this core's perspective — it was flushed
        // earlier).
        self.purge(old_key, 1 << c);
        let _ = self.l2[c].remove(old_key);
        self.purge(new_key, 0);

        // Enter under the new identity: a clean copy in L3 to preserve
        // inclusion, owned by `core` in the directory, dirty + TX in L1.
        let l3_set = self.l3.set_index(new_key);
        let home = self
            .claim_l3(l3_set, new_key, FLAG_TX | FLAG_OWNED, port, stats)
            .expect("a TX line never bounces");
        self.l3.sharers.set(home.idx, 1 << c);
        let l1_set = self.l1[c].set_index(new_key);
        let (at, displaced) = self.l1[c]
            .claim(l1_set, new_key, FLAG_DIRTY | FLAG_TX)
            .expect("a TX line never bounces");
        if at.idx != from.idx {
            // Not the way just vacated: the payload follows, trading
            // places with what lay there — a displaced victim's bytes.
            let mut bytes = *self.l1[c].line(from);
            std::mem::swap(&mut bytes, self.l1[c].line_mut(at));
            if let Some(victim) = displaced {
                let dirty = victim.flags & FLAG_DIRTY != 0;
                let dirty = dirty.then_some((victim.flags & FLAG_TX != 0, &bytes));
                self.evict_from_l1(core, victim.line, dirty, port, stats);
            }
        }
        true
    }

    /// Installs a clean line into the shared L3 (a background OS thread's
    /// cached copy loop followed by `clwb` leaves the data resident).
    /// Any stale copies of the identity are dropped first. Displaced dirty
    /// TX lines (rare set-pressure fallout) spill. The copy's bytes are
    /// memory's, or go into the overlay if memory does not hold `data`
    /// (behind [`Machine::install_line_cached`], which writes memory
    /// first: while the power is cut and the write was dropped).
    ///
    /// [`Machine::install_line_cached`]: crate::machine::Machine::install_line_cached
    pub(crate) fn install_line_l3(
        &mut self,
        line: PhysAddr,
        data: [u8; LINE_SIZE],
        port: &mut MemPort,
        stats: &mut MachineStats,
    ) {
        let key = line.line_base().raw();
        self.purge(key, 0);
        let set = self.l3.set_index(key);
        // A set full of TX lines has no room for a plain one: the
        // installed copy is then simply not kept.
        if let Some(home) = self.claim_l3(set, key, 0, port, stats) {
            if port.mem().read_line(line.ppn(), line.line_index()) != data {
                self.l3_store(home, &data);
            }
        }
    }

    /// Clears the TX bit on every cached copy of `line` (transaction commit).
    pub fn clear_tx(&mut self, line: PhysAddr) {
        let key = line.line_base().raw();
        for l1 in &mut self.l1 {
            if let Some(at) = l1.find_promote(key) {
                l1.set_flag(at, FLAG_TX, false);
            }
        }
        if let Some(at) = self.l3.find_promote(key) {
            self.l3.set_flag(at, FLAG_TX, false);
        }
    }

    /// Drops every cached copy of `line` without writing it back (SSP abort
    /// discards speculative data).
    pub fn discard_line(&mut self, line: PhysAddr) {
        self.purge(line.line_base().raw(), 0);
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

    /// Discards all cached state (power failure), unsettled spills
    /// included. The directory goes with the L3 slots that hold it.
    pub fn crash(&mut self) {
        self.spills.clear();
        self.overlay.clear();
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.l3.clear();
    }
}

/// `dst.copy_from_slice(src)` for the sub-line spans accesses carry: the
/// 8- and 1-byte word accesses that make up nearly all of them become a
/// single move instead of a `memcpy` call.
#[inline(always)]
fn copy_small(dst: &mut [u8], src: &[u8]) {
    if let (Ok(dst), Ok(src)) = (
        <&mut [u8; 8]>::try_from(&mut *dst),
        <&[u8; 8]>::try_from(src),
    ) {
        *dst = *src;
    } else if let ([dst], [src]) = (&mut *dst, src) {
        *dst = *src;
    } else {
        dst.copy_from_slice(src);
    }
}

/// Performs a line operation on a line's bytes.
#[inline(always)]
fn apply_op(line: &mut [u8; LINE_SIZE], op: LineOp<'_>) {
    match op {
        LineOp::Read { offset, buf } => copy_small(buf, &line[offset..offset + buf.len()]),
        LineOp::Write { offset, data } => copy_small(&mut line[offset..offset + data.len()], data),
    }
}

/// Writes a dirty line that is leaving the hierarchy to memory — unless it
/// is transactional, in which case it spills instead.
fn write_back(
    spills: &mut Vec<TxEviction>,
    line: u64,
    tx: bool,
    data: &[u8; LINE_SIZE],
    port: &mut MemPort,
    stats: &mut MachineStats,
) {
    let addr = PhysAddr::new(line);
    if tx {
        spills.push(TxEviction {
            line: addr,
            data: *data,
        });
        return;
    }
    // Write-back latency is absorbed by write buffers, not charged to
    // the core; traffic is still counted.
    stats.writebacks += 1;
    let _ = port.write(stats, addr, data, Some(WriteClass::Data));
}

#[cfg(test)]
mod tests {
    use super::spec::Slot;
    use super::*;
    use crate::addr::{LineIdx, Ppn};
    use crate::phys::NVRAM_PPN_BASE;

    struct Rig {
        cfg: MachineConfig,
        port: MemPort,
        stats: MachineStats,
        cache: CacheHierarchy,
    }

    impl Rig {
        fn new() -> Self {
            let cfg = MachineConfig::default();
            let cache = CacheHierarchy::new(&cfg);
            Self {
                port: MemPort::new(&cfg),
                cfg,
                stats: MachineStats::new(),
                cache,
            }
        }

        fn write(&mut self, core: usize, addr: u64, byte: u8) -> AccessResult {
            self.cache.access(
                CoreId::new(core),
                PhysAddr::new(addr),
                LineOp::Write {
                    offset: 0,
                    data: &[byte],
                },
                false,
                &self.cfg,
                &mut self.port,
                &mut self.stats,
            )
        }

        fn read(&mut self, core: usize, addr: u64) -> u8 {
            let mut buf = [0u8; LINE_SIZE];
            self.cache.access(
                CoreId::new(core),
                PhysAddr::new(addr),
                LineOp::Read {
                    offset: 0,
                    buf: &mut buf,
                },
                false,
                &self.cfg,
                &mut self.port,
                &mut self.stats,
            );
            buf[0]
        }
    }

    pub(super) fn nv_addr(page: u64, line: u64) -> u64 {
        (NVRAM_PPN_BASE + page) * 4096 + line * 64
    }

    #[test]
    fn read_after_write_same_core() {
        let mut rig = Rig::new();
        rig.write(0, nv_addr(0, 0), 0x55);
        assert_eq!(rig.read(0, nv_addr(0, 0)), 0x55);
        assert!(rig.stats.l1_hits >= 1);
    }

    #[test]
    fn dirty_data_not_in_memory_until_flush() {
        let mut rig = Rig::new();
        let addr = nv_addr(1, 2);
        rig.write(0, addr, 0x77);
        let ppn = Ppn::new(NVRAM_PPN_BASE + 1);
        assert_eq!(rig.port.mem().read_line(ppn, LineIdx::new(2))[0], 0);
        let cycles = rig.cache.flush_line(
            PhysAddr::new(addr),
            WriteClass::Data,
            &mut rig.port,
            &mut rig.stats,
        );
        assert!(cycles.is_some());
        assert_eq!(rig.port.mem().read_line(ppn, LineIdx::new(2))[0], 0x77);
        assert_eq!(rig.stats.nvram_writes(WriteClass::Data), 1);
        // Second flush is a no-op: the line is clean now.
        let again = rig.cache.flush_line(
            PhysAddr::new(addr),
            WriteClass::Data,
            &mut rig.port,
            &mut rig.stats,
        );
        assert!(again.is_none());
    }

    #[test]
    fn cross_core_read_sees_dirty_data() {
        let mut rig = Rig::new();
        let addr = nv_addr(2, 0);
        rig.write(0, addr, 0x99);
        assert_eq!(rig.read(1, addr), 0x99);
        assert!(rig.stats.coherence_invalidations >= 1);
    }

    #[test]
    fn cross_core_write_invalidates_sharers() {
        let mut rig = Rig::new();
        let addr = nv_addr(3, 0);
        rig.read(0, addr);
        rig.read(1, addr);
        let inv_before = rig.stats.coherence_invalidations;
        rig.write(0, addr, 0x11);
        assert!(rig.stats.coherence_invalidations > inv_before);
        assert_eq!(rig.read(1, addr), 0x11);
    }

    #[test]
    fn capacity_eviction_writes_back_dirty_lines() {
        let mut rig = Rig::new();
        // Touch far more distinct lines than L1+L3 can hold in one set by
        // stepping whole L3-set strides. Simpler: write enough lines to
        // overflow a single L1 set (same set index, different tags).
        let l1_sets = rig.cfg.l1.sets() as u64;
        let stride = l1_sets * 64;
        for i in 0..64 {
            rig.write(0, nv_addr(0, 0) + i * stride, i as u8);
        }
        // All still readable (through L3 or memory).
        for i in 0..64 {
            assert_eq!(rig.read(0, nv_addr(0, 0) + i * stride), i as u8);
        }
    }

    #[test]
    fn crash_drops_cached_data() {
        let mut rig = Rig::new();
        let addr = nv_addr(4, 0);
        rig.write(0, addr, 0x42);
        rig.cache.crash();
        rig.port.crash();
        assert_eq!(rig.read(0, addr), 0);
    }

    #[test]
    fn retag_moves_data_between_physical_lines() {
        let mut rig = Rig::new();
        let p0 = nv_addr(5, 3);
        let p1 = nv_addr(6, 3);
        rig.write(0, p0, 0xaa);
        let res = rig.cache.retag(
            CoreId::new(0),
            PhysAddr::new(p0),
            PhysAddr::new(p1),
            &mut rig.port,
            &mut rig.stats,
        );
        assert!(res);
        assert_eq!(rig.read(0, p1), 0xaa);
        // The old identity no longer holds the data: a fresh read goes to
        // memory, which was never written.
        assert_eq!(rig.read(0, p0), 0);
    }

    #[test]
    fn retag_requires_line_in_l1() {
        let mut rig = Rig::new();
        let res = rig.cache.retag(
            CoreId::new(0),
            PhysAddr::new(nv_addr(7, 0)),
            PhysAddr::new(nv_addr(8, 0)),
            &mut rig.port,
            &mut rig.stats,
        );
        assert!(!res);
    }

    #[test]
    fn tx_line_eviction_spills_instead_of_reaching_memory() {
        let mut rig = Rig::new();
        let l1_sets = rig.cfg.l1.sets() as u64;
        let stride = l1_sets * 64;
        let base = nv_addr(9, 0);
        // Fill one L1 set with TX lines, then overflow it with more TX lines
        // so a TX victim must be chosen.
        let overfill = rig.cfg.l1.ways as u64 + 2;
        for i in 0..overfill {
            rig.cache.access(
                CoreId::new(0),
                PhysAddr::new(base + i * stride),
                LineOp::Write {
                    offset: 0,
                    data: &[i as u8],
                },
                true, // transactional
                &rig.cfg,
                &mut rig.port,
                &mut rig.stats,
            );
        }
        // No TX data reached NVRAM home locations.
        assert_eq!(rig.stats.nvram_writes(WriteClass::Data), 0);
        // L1 overflow pushed TX lines to L3 (not out), so nothing spilled
        // yet unless L3 also overflowed; either way memory stayed clean.
        for ev in &rig.cache.spills {
            assert_eq!(
                rig.port
                    .mem()
                    .read_line(ev.line.ppn(), ev.line.line_index()),
                [0u8; LINE_SIZE]
            );
        }
    }

    #[test]
    fn clear_tx_then_eviction_writes_back_normally() {
        let mut rig = Rig::new();
        let addr = nv_addr(10, 0);
        rig.cache.access(
            CoreId::new(0),
            PhysAddr::new(addr),
            LineOp::Write {
                offset: 0,
                data: &[0xbb],
            },
            true,
            &rig.cfg,
            &mut rig.port,
            &mut rig.stats,
        );
        rig.cache.clear_tx(PhysAddr::new(addr));
        let flushed = rig.cache.flush_line(
            PhysAddr::new(addr),
            WriteClass::Data,
            &mut rig.port,
            &mut rig.stats,
        );
        assert!(flushed.is_some());
        assert_eq!(
            rig.port
                .mem()
                .read_line(PhysAddr::new(addr).ppn(), PhysAddr::new(addr).line_index())[0],
            0xbb
        );
    }

    #[test]
    fn discard_line_drops_speculative_data() {
        let mut rig = Rig::new();
        let addr = nv_addr(11, 0);
        rig.write(0, addr, 0xcc);
        rig.cache.discard_line(PhysAddr::new(addr));
        assert_eq!(rig.read(0, addr), 0);
    }

    #[test]
    fn dirty_lines_counts_unique_lines() {
        let mut rig = Rig::new();
        rig.write(0, nv_addr(12, 0), 1);
        rig.write(0, nv_addr(12, 1), 2);
        assert_eq!(rig.cache.dirty_lines(), 2);
    }

    #[test]
    fn l1_miss_l3_hit_latency_between_l1_and_memory() {
        let mut rig = Rig::new();
        let a = nv_addr(13, 0);
        rig.read(0, a); // miss to memory
        let l1_sets = rig.cfg.l1.sets() as u64;
        let stride = l1_sets * 64;
        // Evict from L1 (fill the set), keeping the line in L3.
        for i in 1..=(rig.cfg.l1.ways as u64 + 1) {
            rig.read(0, a + i * stride);
        }
        let before_hits = rig.stats.l3_hits;
        rig.read(0, a);
        assert!(rig.stats.l3_hits > before_hits || rig.stats.l2_hits > 0);
    }

    // The model-lockstep suites: the set array and the hierarchy against
    // the specification (`lockstep.rs` holds their bodies).
    #[test]
    fn soa_layout_matches_reference_model_on_random_streams() {
        super::lockstep::soa_layout_matches_reference_model_on_random_streams();
    }

    #[test]
    fn directory_in_l3_matches_the_hash_map_model_on_random_streams() {
        super::lockstep::directory_in_l3_matches_the_hash_map_model_on_random_streams();
    }

    #[test]
    fn cold_fills_match_the_hash_map_model() {
        super::lockstep::cold_fills_match_the_hash_map_model();
    }

    #[test]
    fn retags_match_the_hash_map_model() {
        super::lockstep::retags_match_the_hash_map_model();
    }

    #[test]
    #[should_panic(expected = "access crosses line end")]
    fn a_crossing_access_panics_before_the_hierarchy_is_touched() {
        let mut rig = Rig::new();
        rig.cache.access(
            CoreId::new(0),
            PhysAddr::new(nv_addr(0, 0)),
            LineOp::Write {
                offset: 60,
                data: &[1u8; 8],
            },
            false,
            &rig.cfg,
            &mut rig.port,
            &mut rig.stats,
        );
    }

    #[test]
    fn only_the_l1s_hold_line_bytes() {
        let cache = Rig::new().cache;
        assert!(cache.l1.iter().all(|l1| l1.data.len() == l1.tags.len()));
        assert!(cache.l2.iter().all(|l2| l2.data.capacity() == 0));
        assert_eq!(cache.l3.data.capacity(), 0);
    }

    #[test]
    fn soa_sparse_clone_preserves_occupied_state() {
        let mut sa = SetAssoc::new(4, 3, Role::Data);
        for i in 0..7u64 {
            let _ = sa.insert(Slot::new(
                i * 64,
                i % 2 == 0,
                i % 3 == 0,
                [i as u8; LINE_SIZE],
            ));
        }
        let _ = sa.remove(2 * 64);
        // Tags, flags, MRU order and full payloads survive.
        assert_eq!(sa.clone().dump(), sa.dump());
    }

    #[test]
    fn soa_insert_returns_incoming_slot_when_set_is_all_tx() {
        // All ways TX + a non-TX insert: the incoming slot itself must
        // bounce back unchanged and the set must be untouched: the spec's
        // bounce, which `access_miss` serves and evicts in passing.
        let mut sa = SetAssoc::new(1, 2, Role::Data);
        for i in 0..2u64 {
            let placed = sa.insert(Slot::new(i * 64, true, true, [i as u8; LINE_SIZE]));
            assert!(placed.0.is_some() && placed.1.is_none());
        }
        let (at, bounced) = sa.insert(Slot::new(4 * 64, true, false, [9; LINE_SIZE]));
        assert!(at.is_none(), "a bounced slot has no location");
        assert_eq!(bounced.expect("victim").line, 4 * 64);
        assert!(sa.peek(0).is_some() && sa.peek(64).is_some());
        // An all-TX insert instead evicts the LRU TX resident.
        let (_, victim) = sa.insert(Slot::new(6 * 64, true, true, [7; LINE_SIZE]));
        assert_eq!(
            victim.expect("victim").line,
            0,
            "LRU TX resident is the victim"
        );
        assert!(sa.peek(6 * 64).is_some());
    }
}
