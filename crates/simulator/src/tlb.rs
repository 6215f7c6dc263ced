//! A fully-associative, LRU data TLB.
//!
//! SSP widens TLB entries with the second physical page number and the
//! current/updated bitmaps (Section 4.1.1 of the paper); the SSP engine
//! keeps that extension in its SSP cache, keyed by the page, so the entry
//! here is the plain translation every engine shares.
//!
//! # Host-side layout
//!
//! Every simulated access starts with a lookup here, and a hit must cost
//! the host next to nothing, as it does the hardware. An entry therefore
//! stays in the slot it was inserted into, and the replacement state is a
//! per-slot *stamp* — the value of a counter that advances on every use —
//! rather than the order of the slots: the most recently used entry is the
//! one with the largest stamp, the LRU victim the one with the smallest.
//! The virtual page numbers sit in their own contiguous `u64` array,
//! parallel to the stamps and the entries. A repeat of the previous page —
//! most lookups — is one compare against the slot `mru` remembers and
//! stores nothing; any other hit scans the page numbers eight per step,
//! the eight compares folded into one mask with no branch per entry, and
//! then stores one stamp; the minimum stamp is looked for only by an
//! insert that finds the TLB full. Nothing moves but on
//! [`evict`](Tlb::evict), which fills the hole with the last slot.
//! [`iter`](Tlb::iter) and [`drain`](Tlb::drain) — power-off and tests —
//! sort by stamp to report the MRU-first order the stamps encode, which is
//! how `stamped_slots_match_the_entry_vector_model` in the tests holds
//! this TLB to the hit, miss and eviction streams of the MRU-ordered
//! `Vec<TlbEntry>` it replaced.

use std::cmp::Reverse;

use crate::addr::{Ppn, Vpn};

/// One TLB entry: a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The virtual page this entry translates.
    pub vpn: Vpn,
    /// The (original, P0) physical page.
    pub ppn: Ppn,
}

/// A fully-associative TLB with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use ssp_simulator::addr::{Ppn, Vpn};
/// use ssp_simulator::tlb::Tlb;
///
/// let mut tlb = Tlb::new(2);
/// assert!(tlb.insert(Vpn::new(1), Ppn::new(10)).is_none());
/// assert!(tlb.insert(Vpn::new(2), Ppn::new(20)).is_none());
/// // Touch vpn 1 so vpn 2 becomes the LRU victim.
/// assert!(tlb.lookup(Vpn::new(1)).is_some());
/// let evicted = tlb.insert(Vpn::new(3), Ppn::new(30)).unwrap();
/// assert_eq!(evicted.vpn, Vpn::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// The slot with the largest stamp (0 while the TLB is empty).
    mru: usize,
    /// The stamp of the latest use.
    clock: u64,
    /// `entries[slot].vpn.raw()` — what lookups scan.
    vpns: Vec<u64>,
    /// When each slot was last used; no two are equal.
    stamps: Vec<u64>,
    entries: Vec<TlbEntry>,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Self {
            capacity,
            mru: 0,
            clock: 0,
            vpns: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of entries the TLB can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The slot holding `vpn`, if present.
    #[inline]
    fn position(&self, vpn: Vpn) -> Option<usize> {
        let raw = vpn.raw();
        let mut groups = self.vpns.chunks_exact(8);
        for (group, vpns) in groups.by_ref().enumerate() {
            let mut hits = 0u32;
            for (i, &v) in vpns.iter().enumerate() {
                hits |= u32::from(v == raw) << i;
            }
            if hits != 0 {
                return Some(group * 8 + hits.trailing_zeros() as usize);
            }
        }
        let tail = groups.remainder();
        let pos = tail.iter().position(|&v| v == raw)?;
        Some(self.vpns.len() - tail.len() + pos)
    }

    /// Makes `slot` the most recently used.
    #[inline]
    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.stamps[slot] = self.clock;
        self.mru = slot;
    }

    /// Looks up a translation, making it the MRU entry on a hit. The
    /// entry's `vpn` is its identity — change `ppn` through the returned
    /// reference, never `vpn`.
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> Option<&mut TlbEntry> {
        // A repeat of the previous page — the common case — is already MRU.
        if self.vpns.get(self.mru) != Some(&vpn.raw()) {
            let slot = self.position(vpn)?;
            self.touch(slot);
        }
        self.entries.get_mut(self.mru)
    }

    /// Looks up a translation without changing LRU order.
    pub fn peek(&self, vpn: Vpn) -> Option<&TlbEntry> {
        self.position(vpn).map(|slot| &self.entries[slot])
    }

    /// Inserts a translation, returning the evicted LRU entry if full.
    /// Replaces (and returns `None` for) an existing entry for `vpn`.
    pub fn insert(&mut self, vpn: Vpn, ppn: Ppn) -> Option<TlbEntry> {
        let entry = TlbEntry { vpn, ppn };
        if let Some(slot) = self.position(vpn) {
            self.entries[slot] = entry;
            self.touch(slot);
            return None;
        }
        if self.entries.len() < self.capacity {
            self.vpns.push(vpn.raw());
            self.stamps.push(0);
            self.entries.push(entry);
            self.touch(self.entries.len() - 1);
            return None;
        }
        let lru = (0..self.capacity)
            .min_by_key(|&s| self.stamps[s])
            .expect("capacity is positive");
        self.vpns[lru] = vpn.raw();
        self.touch(lru);
        Some(std::mem::replace(&mut self.entries[lru], entry))
    }

    /// Removes and returns the entry for `vpn`, if present.
    pub fn evict(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        let slot = self.position(vpn)?;
        // The last slot moves into the hole. `mru` follows its entry
        // there, or, if its entry is the one that left, finds the largest
        // remaining stamp.
        self.vpns.swap_remove(slot);
        self.stamps.swap_remove(slot);
        let entry = self.entries.swap_remove(slot);
        let last = self.stamps.len();
        if self.mru == slot {
            self.mru = (0..last).max_by_key(|&s| self.stamps[s]).unwrap_or(0);
        } else if self.mru == last {
            self.mru = slot;
        }
        Some(entry)
    }

    /// Removes all entries, returning them MRU-first (power failure or
    /// full flush).
    pub fn drain(&mut self) -> Vec<TlbEntry> {
        let mut used: Vec<_> = self.stamps.drain(..).zip(self.entries.drain(..)).collect();
        used.sort_unstable_by_key(|&(stamp, _)| Reverse(stamp));
        self.vpns.clear();
        self.mru = 0;
        used.into_iter().map(|(_, entry)| entry).collect()
    }

    /// Iterates over entries in MRU-first order.
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        let mut slots: Vec<usize> = (0..self.entries.len()).collect();
        slots.sort_unstable_by_key(|&slot| Reverse(self.stamps[slot]));
        slots.into_iter().map(move |slot| &self.entries[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(cap: usize) -> Tlb {
        Tlb::new(cap)
    }

    #[test]
    fn lookup_miss_returns_none() {
        let mut t = tlb(4);
        assert!(t.lookup(Vpn::new(9)).is_none());
    }

    #[test]
    fn insert_then_lookup_hit() {
        let mut t = tlb(4);
        t.insert(Vpn::new(1), Ppn::new(100));
        let e = t.lookup(Vpn::new(1)).unwrap();
        assert_eq!(e.ppn, Ppn::new(100));
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = tlb(3);
        for i in 1..=3 {
            t.insert(Vpn::new(i), Ppn::new(i * 10));
        }
        t.lookup(Vpn::new(1)); // 1 is MRU; 2 is LRU
        let evicted = t.insert(Vpn::new(4), Ppn::new(40)).unwrap();
        assert_eq!(evicted.vpn, Vpn::new(2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut t = tlb(2);
        t.insert(Vpn::new(1), Ppn::new(10));
        t.insert(Vpn::new(2), Ppn::new(20));
        assert!(t.insert(Vpn::new(1), Ppn::new(11)).is_none());
        assert_eq!(t.len(), 2);
        assert_eq!(t.peek(Vpn::new(1)).unwrap().ppn, Ppn::new(11));
    }

    #[test]
    fn evict_removes_specific_entry() {
        let mut t = tlb(4);
        t.insert(Vpn::new(1), Ppn::new(10));
        t.insert(Vpn::new(2), Ppn::new(20));
        let e = t.evict(Vpn::new(1)).unwrap();
        assert_eq!(e.ppn, Ppn::new(10));
        assert!(t.peek(Vpn::new(1)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drain_empties_the_tlb() {
        let mut t = tlb(4);
        t.insert(Vpn::new(1), Ppn::new(10));
        t.insert(Vpn::new(2), Ppn::new(20));
        let all = t.drain();
        assert_eq!(all.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn ppn_is_mutable_through_lookup() {
        let mut t = tlb(2);
        t.insert(Vpn::new(1), Ppn::new(10));
        t.lookup(Vpn::new(1)).unwrap().ppn = Ppn::new(99);
        assert_eq!(t.peek(Vpn::new(1)).unwrap().ppn, Ppn::new(99));
    }

    /// The MRU-ordered `Vec<TlbEntry>` TLB the stamped slots replaced,
    /// verbatim.
    #[derive(Debug, Clone)]
    struct RefTlb {
        capacity: usize,
        /// MRU-first.
        entries: Vec<TlbEntry>,
    }

    impl RefTlb {
        fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "TLB capacity must be positive");
            Self {
                capacity,
                entries: Vec::with_capacity(capacity),
            }
        }

        fn lookup(&mut self, vpn: Vpn) -> Option<&mut TlbEntry> {
            let pos = self.entries.iter().position(|e| e.vpn == vpn)?;
            self.entries[..=pos].rotate_right(1);
            Some(&mut self.entries[0])
        }

        fn peek(&self, vpn: Vpn) -> Option<&TlbEntry> {
            self.entries.iter().find(|e| e.vpn == vpn)
        }

        fn insert(&mut self, vpn: Vpn, ppn: Ppn) -> Option<TlbEntry> {
            if let Some(pos) = self.entries.iter().position(|e| e.vpn == vpn) {
                self.entries[..=pos].rotate_right(1);
                self.entries[0] = TlbEntry { vpn, ppn };
                return None;
            }
            self.entries.insert(0, TlbEntry { vpn, ppn });
            if self.entries.len() > self.capacity {
                self.entries.pop()
            } else {
                None
            }
        }

        fn evict(&mut self, vpn: Vpn) -> Option<TlbEntry> {
            let pos = self.entries.iter().position(|e| e.vpn == vpn)?;
            Some(self.entries.remove(pos))
        }

        fn drain(&mut self) -> Vec<TlbEntry> {
            std::mem::take(&mut self.entries)
        }

        fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
            self.entries.iter()
        }
    }

    #[test]
    fn stamped_slots_match_the_entry_vector_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        // `deep` draws half of the fresh pages from MRU depth 32 and
        // beyond of a full 64-entry TLB: hits the group scan finds in its
        // fifth to eighth step, far from the slot they were inserted in.
        for (capacity, pages, seed, deep) in [
            (1usize, 3u64, 1u64, false),
            (4, 9, 2, false),
            (64, 80, 3, false),
            (64, 40, 4, false),
            (64, 70, 5, true),
            (13, 20, 6, false),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut new = Tlb::new(capacity);
            let mut old = RefTlb::new(capacity);
            let mut deep_hits = 0u32;
            for step in 0..20_000u32 {
                // Half the traffic repeats the previous page, as real
                // access streams do — the MRU early-out's case.
                let vpn = match old.entries.first() {
                    Some(mru) if rng.gen_range(0..2u32) == 0 => mru.vpn,
                    _ if deep && old.entries.len() > 32 && rng.gen_range(0..2u32) == 0 => {
                        old.entries[rng.gen_range(32..old.entries.len())].vpn
                    }
                    _ => Vpn::new(rng.gen_range(0..pages)),
                };
                match rng.gen_range(0..21u32) {
                    0..=9 => {
                        let depth = old.entries.iter().position(|e| e.vpn == vpn);
                        deep_hits += u32::from(depth.is_some_and(|d| d >= 32));
                        let (a, b) = (new.lookup(vpn), old.lookup(vpn));
                        assert_eq!(a.as_deref(), b.as_deref(), "lookup @{step}");
                        if let (Some(a), Some(b)) = (a, b) {
                            // Repoint the page through the `&mut`, as
                            // shadow paging's commit does.
                            a.ppn = Ppn::new(u64::from(step));
                            b.ppn = Ppn::new(u64::from(step));
                        }
                    }
                    10..=12 => assert_eq!(new.peek(vpn), old.peek(vpn), "peek @{step}"),
                    13..=17 => {
                        let ppn = Ppn::new(rng.gen_range(0..1000u64));
                        assert_eq!(
                            new.insert(vpn, ppn),
                            old.insert(vpn, ppn),
                            "evicted entry @{step}"
                        );
                    }
                    18 => assert_eq!(new.evict(vpn), old.evict(vpn), "evict @{step}"),
                    // The MRU entry leaves: the repeat early-out must not
                    // answer for it, nor skip the stamp of whichever entry
                    // is looked up next.
                    19 => {
                        let Some(mru) = old.entries.first().map(|e| e.vpn) else {
                            continue;
                        };
                        assert_eq!(new.evict(mru), old.evict(mru), "MRU evict @{step}");
                        assert_eq!(new.lookup(mru), None, "evicted MRU hit @{step}");
                        assert_eq!(old.lookup(mru), None);
                        assert!(new.iter().eq(old.iter()), "order after MRU evict @{step}");
                        if rng.gen_range(0..2u32) == 0 {
                            let (a, b) = (new.lookup(vpn), old.lookup(vpn));
                            assert_eq!(a.as_deref(), b.as_deref(), "lookup after @{step}");
                        } else {
                            let ppn = Ppn::new(u64::from(step));
                            assert_eq!(
                                new.insert(mru, ppn),
                                old.insert(mru, ppn),
                                "insert after @{step}"
                            );
                        }
                    }
                    _ => {
                        if step % 50 == 0 {
                            assert_eq!(new.drain(), old.drain(), "drain order @{step}");
                            assert!(new.is_empty());
                            assert_eq!(new.lookup(vpn), None, "hit in a drained TLB");
                        }
                    }
                }
                // The full MRU order, after every operation.
                assert!(new.iter().eq(old.iter()), "MRU order @{step}");
                assert_eq!(new.len(), old.entries.len());
                assert!(new.len() <= capacity);
            }
            assert!(!deep || deep_hits > 300, "{deep_hits} deep hits");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }
}
