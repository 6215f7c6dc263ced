//! Address-space newtypes and page geometry.
//!
//! The simulated machine uses 4 KiB pages and 64-byte cache lines, matching
//! the SSP paper's assumptions (64 lines per page, one `u64` bitmap per
//! page-level metadata field).

use std::fmt;

/// Size of a virtual/physical page in bytes.
pub const PAGE_SIZE: usize = 4096;
/// Size of a cache line in bytes.
pub const LINE_SIZE: usize = 64;
/// Number of cache lines in a page (`PAGE_SIZE / LINE_SIZE`).
pub const LINES_PER_PAGE: usize = PAGE_SIZE / LINE_SIZE;

const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();
const LINE_SHIFT: u32 = LINE_SIZE.trailing_zeros();

/// A virtual byte address in the simulated machine.
///
/// # Examples
///
/// ```
/// use ssp_simulator::addr::VirtAddr;
///
/// let a = VirtAddr::new(0x1000_0040);
/// assert_eq!(a.vpn().raw(), 0x1000_0040 >> 12);
/// assert_eq!(a.line_index().raw(), 1);
/// assert_eq!(a.line_offset(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

/// A physical byte address in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

/// A virtual page number (`VirtAddr >> 12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

/// A physical page number (`PhysAddr >> 12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(u64);

/// The index of a cache line within its page (0..=63).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineIdx(u8);

impl VirtAddr {
    /// Creates a virtual address from a raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the virtual page number containing this address.
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Returns the index of the cache line within the page.
    pub const fn line_index(self) -> LineIdx {
        LineIdx(((self.0 >> LINE_SHIFT) & (LINES_PER_PAGE as u64 - 1)) as u8)
    }

    /// Returns the byte offset within the cache line (0..=63).
    pub const fn line_offset(self) -> usize {
        (self.0 & (LINE_SIZE as u64 - 1)) as usize
    }

    /// Returns the byte offset within the page (0..=4095).
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Returns the address rounded down to its cache-line base.
    pub const fn line_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(LINE_SIZE as u64 - 1))
    }

    /// Returns the address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl PhysAddr {
    /// Creates a physical address from a raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the physical page number containing this address.
    pub const fn ppn(self) -> Ppn {
        Ppn(self.0 >> PAGE_SHIFT)
    }

    /// Returns the index of the cache line within the page.
    pub const fn line_index(self) -> LineIdx {
        LineIdx(((self.0 >> LINE_SHIFT) & (LINES_PER_PAGE as u64 - 1)) as u8)
    }

    /// Returns the byte offset within the cache line (0..=63).
    pub const fn line_offset(self) -> usize {
        (self.0 & (LINE_SIZE as u64 - 1)) as usize
    }

    /// Returns the byte offset within the page (0..=4095).
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Returns the address rounded down to its cache-line base.
    pub const fn line_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(LINE_SIZE as u64 - 1))
    }
}

impl Vpn {
    /// Creates a virtual page number from a raw value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw page number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the base virtual address of the page.
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// Returns the virtual address of `line`'s first byte inside this page.
    pub const fn line_addr(self, line: LineIdx) -> VirtAddr {
        VirtAddr((self.0 << PAGE_SHIFT) | ((line.0 as u64) << LINE_SHIFT))
    }
}

impl Ppn {
    /// Creates a physical page number from a raw value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw page number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the base physical address of the page.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// Returns the physical address of `line`'s first byte inside this page.
    pub const fn line_addr(self, line: LineIdx) -> PhysAddr {
        PhysAddr((self.0 << PAGE_SHIFT) | ((line.0 as u64) << LINE_SHIFT))
    }
}

impl LineIdx {
    /// Creates a line index.
    ///
    /// # Panics
    ///
    /// Panics if `raw >= LINES_PER_PAGE`.
    #[inline]
    pub fn new(raw: u8) -> Self {
        assert!(
            (raw as usize) < LINES_PER_PAGE,
            "line index {raw} out of range"
        );
        Self(raw)
    }

    /// Returns the raw index (0..=63).
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Returns the byte offset of this line within its page.
    pub const fn byte_offset(self) -> usize {
        (self.0 as usize) << LINE_SHIFT
    }

    /// Iterates over all line indices of a page, in order.
    pub fn all() -> impl Iterator<Item = LineIdx> {
        (0..LINES_PER_PAGE as u8).map(LineIdx)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{:#x}", self.0)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn{:#x}", self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppn{:#x}", self.0)
    }
}

impl fmt::Display for LineIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line{}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(LINE_SIZE, 64);
        assert_eq!(LINES_PER_PAGE, 64);
    }

    #[test]
    fn virt_addr_decomposition() {
        let a = VirtAddr::new(0x1234_5678);
        assert_eq!(a.vpn().raw(), 0x1234_5678 >> 12);
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.line_index().raw(), (0x678 / 64) as u8);
        assert_eq!(a.line_offset(), 0x678 % 64);
    }

    #[test]
    fn line_base_is_aligned() {
        let a = VirtAddr::new(0x1fff);
        assert_eq!(a.line_base().raw() % LINE_SIZE as u64, 0);
        assert_eq!(a.line_base().raw(), 0x1fc0);
    }

    #[test]
    fn vpn_round_trips_through_line_addr() {
        let vpn = Vpn::new(42);
        for line in LineIdx::all() {
            let addr = vpn.line_addr(line);
            assert_eq!(addr.vpn(), vpn);
            assert_eq!(addr.line_index(), line);
            assert_eq!(addr.line_offset(), 0);
        }
    }

    #[test]
    fn ppn_base_and_line_addr() {
        let ppn = Ppn::new(7);
        assert_eq!(ppn.base().raw(), 7 * 4096);
        assert_eq!(ppn.line_addr(LineIdx::new(3)).raw(), 7 * 4096 + 3 * 64);
        assert_eq!(ppn.line_addr(LineIdx::new(3)).ppn(), ppn);
    }

    #[test]
    fn line_idx_all_yields_64_distinct() {
        let all: Vec<_> = LineIdx::all().collect();
        assert_eq!(all.len(), 64);
        assert_eq!(all[0].raw(), 0);
        assert_eq!(all[63].raw(), 63);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_idx_out_of_range_panics() {
        LineIdx::new(64);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{}", VirtAddr::new(16)), "v0x10");
        assert_eq!(format!("{}", PhysAddr::new(16)), "p0x10");
        assert_eq!(format!("{}", LineIdx::new(5)), "line5");
    }

    #[test]
    fn addr_add_advances() {
        let a = VirtAddr::new(100).add(28);
        assert_eq!(a.raw(), 128);
    }
}
