//! The per-core write-set buffer (Section 4.2 of the paper).
//!
//! Decoupling the *updated* bitmaps from the TLB means a page can fall out
//! of the TLB mid-transaction without losing the write set. The buffer has
//! a fixed number of entries (64 by default); inserting a 65th page
//! overflows and sends the transaction down the software fall-back path.
//! Bit positions are *tracking units*: individual cache lines in the base
//! design, sub-page groups under the Section 4.3 coarser granularities.

use ssp_simulator::addr::{LineIdx, Vpn};
use ssp_txn::engine::PageBitmaps;

use crate::bitmap::LineBitmap;

/// Outcome of recording a first-write in the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteSetInsert {
    /// The line is now tracked; it was not previously in the write set.
    Inserted,
    /// The line was already tracked.
    AlreadyPresent,
    /// The buffer is full and the page is new: hardware tracking is
    /// impossible — take the fall-back path.
    Overflow,
}

/// A fixed-capacity map from virtual page to updated-lines bitmap: a
/// [`PageBitmaps`] that refuses a page beyond its capacity. `record` runs
/// once per `ATOMIC_STORE` and usually repeats the page of the store
/// before (one compare); the worst case is a binary search over at most
/// `capacity` (64) pages.
#[derive(Debug, Clone)]
pub struct WriteSetBuffer {
    capacity: usize,
    pages: PageBitmaps,
}

impl WriteSetBuffer {
    /// Creates a buffer with room for `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write-set buffer capacity must be positive");
        Self {
            capacity,
            pages: PageBitmaps::new(),
        }
    }

    /// The buffer's page capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently tracked.
    pub fn len(&self) -> usize {
        self.pages.pages()
    }

    /// Whether no page is tracked.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The updated bitmap for `vpn`, if tracked.
    pub fn updated(&self, vpn: Vpn) -> Option<LineBitmap> {
        match self.pages.bits(vpn.raw()) {
            0 => None,
            bits => Some(LineBitmap::from_raw(bits)),
        }
    }

    /// Whether `line` of `vpn` is in the write set.
    #[inline]
    pub fn contains(&self, vpn: Vpn, line: LineIdx) -> bool {
        self.pages.bits(vpn.raw()) >> line.raw() & 1 == 1
    }

    /// Records a write to `line` of `vpn`.
    pub fn record(&mut self, vpn: Vpn, line: LineIdx) -> WriteSetInsert {
        // A tracked page always has a line set, so zero means untracked.
        if self.pages.bits(vpn.raw()) == 0 && self.pages.pages() >= self.capacity {
            return WriteSetInsert::Overflow;
        }
        if self.pages.insert(vpn.raw(), line.raw()) {
            WriteSetInsert::Inserted
        } else {
            WriteSetInsert::AlreadyPresent
        }
    }

    /// Iterates over `(vpn, updated)` pairs, ascending by page.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, LineBitmap)> + '_ {
        self.pages
            .iter()
            .map(|(v, b)| (Vpn::new(v), LineBitmap::from_raw(b)))
    }

    /// Clears the buffer (commit or abort).
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vpn(i: u64) -> Vpn {
        Vpn::new(0x10_0000 + i)
    }

    #[test]
    fn record_and_query() {
        let mut b = WriteSetBuffer::new(4);
        assert_eq!(b.record(vpn(1), LineIdx::new(3)), WriteSetInsert::Inserted);
        assert_eq!(
            b.record(vpn(1), LineIdx::new(3)),
            WriteSetInsert::AlreadyPresent
        );
        assert_eq!(b.record(vpn(1), LineIdx::new(4)), WriteSetInsert::Inserted);
        assert!(b.contains(vpn(1), LineIdx::new(3)));
        assert!(!b.contains(vpn(1), LineIdx::new(5)));
        assert_eq!(b.updated(vpn(1)).unwrap().count_ones(), 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn overflow_on_capacity_plus_one_pages() {
        let mut b = WriteSetBuffer::new(2);
        assert_eq!(b.record(vpn(1), LineIdx::new(0)), WriteSetInsert::Inserted);
        assert_eq!(b.record(vpn(2), LineIdx::new(0)), WriteSetInsert::Inserted);
        assert_eq!(b.record(vpn(3), LineIdx::new(0)), WriteSetInsert::Overflow);
        // Existing pages still accept new lines after a failed insert.
        assert_eq!(b.record(vpn(2), LineIdx::new(1)), WriteSetInsert::Inserted);
    }

    #[test]
    fn clear_resets() {
        let mut b = WriteSetBuffer::new(2);
        b.record(vpn(1), LineIdx::new(0));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.updated(vpn(1)), None);
    }

    #[test]
    fn iter_covers_all_pages() {
        let mut b = WriteSetBuffer::new(4);
        b.record(vpn(1), LineIdx::new(0));
        b.record(vpn(2), LineIdx::new(1));
        let mut pages: Vec<u64> = b.iter().map(|(v, _)| v.raw()).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![vpn(1).raw(), vpn(2).raw()]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = WriteSetBuffer::new(0);
    }
}
