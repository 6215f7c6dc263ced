//! Per-page line bitmaps.
//!
//! SSP tracks the state of each cache line in a 4 KiB page with one bit per
//! line (64 lines → one `u64`). Three bitmaps exist per actively-updated
//! page: *current* (which physical copy holds the freshest data), *updated*
//! (the transaction's write set) and *committed* (which copy holds the
//! durable data) — Section 3.2 of the paper.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use ssp_simulator::addr::{LineIdx, LINES_PER_PAGE};

/// A 64-bit bitmap with one bit per cache line of a page.
///
/// # Examples
///
/// ```
/// use ssp_core::bitmap::LineBitmap;
/// use ssp_simulator::addr::LineIdx;
///
/// let mut b = LineBitmap::ZERO;
/// b.set(LineIdx::new(3));
/// assert!(b.get(LineIdx::new(3)));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LineBitmap(pub u64);

impl LineBitmap {
    /// All bits clear.
    pub const ZERO: LineBitmap = LineBitmap(0);
    /// All bits set.
    pub const FULL: LineBitmap = LineBitmap(u64::MAX);

    /// Creates a bitmap from its raw representation.
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the bit for `line`.
    pub const fn get(self, line: LineIdx) -> bool {
        (self.0 >> line.raw()) & 1 == 1
    }

    /// Sets the bit for `line`.
    pub fn set(&mut self, line: LineIdx) {
        self.0 |= 1 << line.raw();
    }

    /// Clears the bit for `line`.
    pub fn clear(&mut self, line: LineIdx) {
        self.0 &= !(1 << line.raw());
    }

    /// Flips the bit for `line`.
    pub fn flip(&mut self, line: LineIdx) {
        self.0 ^= 1 << line.raw();
    }

    /// Number of set bits.
    pub const fn count_ones(self) -> u32 {
        self.0.count_ones()
    }

    /// Number of clear bits.
    pub const fn count_zeros(self) -> u32 {
        self.0.count_zeros()
    }

    /// Whether no bit is set.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the indices of set bits, ascending — one step per
    /// set bit, not per line: a commit walks the one or two lines a
    /// transaction wrote on a page.
    pub fn iter_ones(self) -> impl Iterator<Item = LineIdx> {
        let mut left = self.0;
        std::iter::from_fn(move || {
            (left != 0).then(|| {
                let lowest = left.trailing_zeros() as u8;
                left &= left - 1;
                LineIdx::new(lowest)
            })
        })
    }

    /// Iterates over the indices of clear bits, ascending.
    pub fn iter_zeros(self) -> impl Iterator<Item = LineIdx> {
        (0..LINES_PER_PAGE as u8)
            .filter(move |&i| (self.0 >> i) & 1 == 0)
            .map(LineIdx::new)
    }

    /// The commit rule of Section 3.2: bits in `updated` take their value
    /// from `current`; other bits keep their committed value.
    pub fn commit_merge(committed: LineBitmap, current: LineBitmap, updated: LineBitmap) -> Self {
        LineBitmap((committed.0 & !updated.0) | (current.0 & updated.0))
    }
}

impl BitAnd for LineBitmap {
    type Output = LineBitmap;
    fn bitand(self, rhs: Self) -> Self {
        LineBitmap(self.0 & rhs.0)
    }
}

impl BitOr for LineBitmap {
    type Output = LineBitmap;
    fn bitor(self, rhs: Self) -> Self {
        LineBitmap(self.0 | rhs.0)
    }
}

impl BitXor for LineBitmap {
    type Output = LineBitmap;
    fn bitxor(self, rhs: Self) -> Self {
        LineBitmap(self.0 ^ rhs.0)
    }
}

impl Not for LineBitmap {
    type Output = LineBitmap;
    fn not(self) -> Self {
        LineBitmap(!self.0)
    }
}

impl fmt::Display for LineBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::Binary for LineBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for LineBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_flip() {
        let mut b = LineBitmap::ZERO;
        let l = LineIdx::new(42);
        assert!(!b.get(l));
        b.set(l);
        assert!(b.get(l));
        b.flip(l);
        assert!(!b.get(l));
        b.flip(l);
        b.clear(l);
        assert!(!b.get(l));
        assert!(b.is_zero());
    }

    #[test]
    fn counts() {
        let b = LineBitmap::from_raw(0b1011);
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.count_zeros(), 61);
        assert_eq!(LineBitmap::FULL.count_ones(), 64);
    }

    #[test]
    fn iter_ones_matches_bits() {
        let b = LineBitmap::from_raw((1 << 0) | (1 << 7) | (1 << 63));
        let ones: Vec<u8> = b.iter_ones().map(LineIdx::raw).collect();
        assert_eq!(ones, vec![0, 7, 63]);
        assert_eq!(b.iter_zeros().count(), 61);
    }

    #[test]
    fn commit_merge_rule() {
        // committed: lines 0,1 in P1; current: line 2 flipped to P1 by this
        // txn, line 1 flipped back to P0 by this txn; updated: lines 1,2.
        let committed = LineBitmap::from_raw(0b011);
        let current = LineBitmap::from_raw(0b101);
        let updated = LineBitmap::from_raw(0b110);
        let merged = LineBitmap::commit_merge(committed, current, updated);
        // line 0: keep committed (1); line 1: take current (0); line 2: take
        // current (1).
        assert_eq!(merged.raw(), 0b101);
    }

    #[test]
    fn commit_merge_ignores_other_threads_lines() {
        // Another thread flipped line 5 (in current) but our updated set
        // only contains line 0 — its speculative flip must not leak into our
        // committed bitmap.
        let committed = LineBitmap::ZERO;
        let current = LineBitmap::from_raw((1 << 5) | 1);
        let updated = LineBitmap::from_raw(1);
        let merged = LineBitmap::commit_merge(committed, current, updated);
        assert_eq!(merged.raw(), 1);
    }

    #[test]
    fn bit_operators() {
        let a = LineBitmap::from_raw(0b1100);
        let b = LineBitmap::from_raw(0b1010);
        assert_eq!((a & b).raw(), 0b1000);
        assert_eq!((a | b).raw(), 0b1110);
        assert_eq!((a ^ b).raw(), 0b0110);
        assert_eq!((!LineBitmap::ZERO), LineBitmap::FULL);
    }

    #[test]
    fn formatting() {
        let b = LineBitmap::from_raw(5);
        assert_eq!(format!("{b}"), "0x0000000000000005");
        assert_eq!(format!("{b:b}"), "101");
        assert_eq!(format!("{b:x}"), "5");
    }
}
