//! A fully-associative, LRU data TLB.
//!
//! SSP widens TLB entries with the second physical page number and the
//! current/updated bitmaps (Section 4.1.1 of the paper); the SSP engine
//! keeps that extension in its SSP cache, keyed by the page, so the entry
//! here is the plain translation every engine shares.
//!
//! # Host-side layout
//!
//! Every simulated access starts with a lookup here, and most of them
//! repeat the page of the access before. The virtual page numbers
//! therefore sit in their own contiguous `u64` array, MRU first and
//! parallel to the entries: a repeat is one compare against `vpns[0]` and
//! touches neither array otherwise; any other hit scans eight bytes per
//! entry instead of a whole `TlbEntry`, then shifts the `pos` leading
//! elements of both arrays down by one. The MRU-first order is the
//! replacement state itself — the LRU victim is the last element — so
//! hit, miss and eviction streams are those of the `Vec<TlbEntry>` this
//! layout replaced (`parallel_arrays_match_the_entry_vector_model` in the
//! tests drives both in lockstep).

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
    /// `entries[i].vpn.raw()`, MRU-first — what lookups scan.
    vpns: Vec<u64>,
    /// MRU-first.
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
            // One spare element: `insert` pushes before it pops the victim.
            vpns: Vec::with_capacity(capacity + 1),
            entries: Vec::with_capacity(capacity + 1),
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

    /// MRU position of `vpn`, if present.
    #[inline]
    fn position(&self, vpn: Vpn) -> Option<usize> {
        self.vpns.iter().position(|&v| v == vpn.raw())
    }

    /// Moves the entry at MRU position `pos` to the front of both arrays.
    #[inline]
    fn promote(&mut self, pos: usize) {
        if pos != 0 {
            let vpn = self.vpns[pos];
            self.vpns.copy_within(0..pos, 1);
            self.vpns[0] = vpn;
            self.entries[..=pos].rotate_right(1);
        }
    }

    /// Looks up a translation, promoting it to MRU on a hit. The entry's
    /// `vpn` is its identity — change `ppn` through the returned reference,
    /// never `vpn`.
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> Option<&mut TlbEntry> {
        // A repeat of the previous page — the common case — is already MRU.
        if self.vpns.first() != Some(&vpn.raw()) {
            let pos = self.position(vpn)?;
            self.promote(pos);
        }
        self.entries.first_mut()
    }

    /// Looks up a translation without changing LRU order.
    pub fn peek(&self, vpn: Vpn) -> Option<&TlbEntry> {
        self.position(vpn).map(|pos| &self.entries[pos])
    }

    /// Inserts a translation, returning the evicted LRU entry if full.
    /// Replaces (and returns `None` for) an existing entry for `vpn`.
    pub fn insert(&mut self, vpn: Vpn, ppn: Ppn) -> Option<TlbEntry> {
        let entry = TlbEntry { vpn, ppn };
        if let Some(pos) = self.position(vpn) {
            self.promote(pos);
            self.entries[0] = entry;
            return None;
        }
        self.vpns.push(vpn.raw());
        self.entries.push(entry);
        self.promote(self.entries.len() - 1);
        if self.entries.len() > self.capacity {
            self.vpns.pop();
            self.entries.pop()
        } else {
            None
        }
    }

    /// Removes and returns the entry for `vpn`, if present.
    pub fn evict(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        let pos = self.position(vpn)?;
        self.vpns.remove(pos);
        Some(self.entries.remove(pos))
    }

    /// Removes all entries, returning them MRU-first (power failure or
    /// full flush).
    pub fn drain(&mut self) -> Vec<TlbEntry> {
        self.vpns.clear();
        std::mem::take(&mut self.entries)
    }

    /// Iterates over entries in MRU-first order.
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.iter()
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

    /// The `Vec<TlbEntry>` TLB the parallel arrays replaced, verbatim.
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
    fn parallel_arrays_match_the_entry_vector_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for (capacity, pages, seed) in [(1usize, 3u64, 1u64), (4, 9, 2), (64, 80, 3), (64, 40, 4)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut new = Tlb::new(capacity);
            let mut old = RefTlb::new(capacity);
            for step in 0..20_000u32 {
                // Half the traffic repeats the previous page, as real
                // access streams do — the MRU-0 early-out's case.
                let vpn = match new.iter().next() {
                    Some(mru) if rng.gen_range(0..2u32) == 0 => mru.vpn,
                    _ => Vpn::new(rng.gen_range(0..pages)),
                };
                match rng.gen_range(0..20u32) {
                    0..=9 => {
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
                    _ => {
                        if step % 50 == 0 {
                            assert_eq!(new.drain(), old.drain(), "drain order @{step}");
                            assert!(new.is_empty());
                        }
                    }
                }
                // The full MRU order, after every operation.
                assert!(new.iter().eq(old.iter()), "MRU order @{step}");
                assert_eq!(new.len(), old.entries.len());
                assert!(new.len() <= capacity);
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }
}
