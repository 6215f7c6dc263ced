//! Physical memory: page frames split into a volatile DRAM region and a
//! persistent NVRAM region.
//!
//! The contents of `PhysMem` are the *memory-side* truth: data still sitting
//! dirty in a cache has not reached these frames yet. A simulated power
//! failure ([`PhysMem::crash`]) therefore simply discards the DRAM region;
//! the NVRAM region is exactly what recovery code gets to see.

use crate::addr::{LineIdx, PhysAddr, Ppn, LINE_SIZE, PAGE_SIZE};
use crate::timing::MemKind;
use fxhash::FxHashMap;

/// First physical page number of the NVRAM region. Frames below this are
/// DRAM, frames at or above are NVRAM.
pub const NVRAM_PPN_BASE: u64 = 1 << 20; // 4 GiB into the physical space

/// One 4 KiB page frame.
pub type PageFrame = Box<[u8; PAGE_SIZE]>;

fn zeroed_frame() -> PageFrame {
    // A boxed array this size would blow the stack if built by value first;
    // build from a heap vec instead.
    vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap()
}

/// Sparse physical memory with DRAM and NVRAM regions.
///
/// # Examples
///
/// ```
/// use ssp_simulator::addr::{LineIdx, Ppn};
/// use ssp_simulator::phys::{PhysMem, NVRAM_PPN_BASE};
///
/// let mut mem = PhysMem::new();
/// let nv = Ppn::new(NVRAM_PPN_BASE);
/// mem.write_line(nv, LineIdx::new(0), &[7u8; 64]);
/// mem.crash();
/// assert_eq!(mem.read_line(nv, LineIdx::new(0))[0], 7); // survived
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysMem {
    /// Fast-hashed: every cache miss, write-back and uncached metadata
    /// access resolves a frame here, and nothing observable depends on
    /// iteration order (the fingerprint sorts, `crash` filters).
    frames: FxHashMap<u64, PageFrame>,
    /// Power-cut latch (see [`PhysMem::freeze`]): while set, every write
    /// is silently dropped so memory holds exactly the bytes it held at
    /// the cut instant.
    frozen: bool,
}

impl PhysMem {
    /// Creates an empty physical memory. Frames are materialised (zeroed) on
    /// first touch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns which technology backs a page frame.
    pub fn kind_of(ppn: Ppn) -> MemKind {
        if ppn.raw() >= NVRAM_PPN_BASE {
            MemKind::Nvram
        } else {
            MemKind::Dram
        }
    }

    /// Returns which technology backs a physical address.
    pub fn kind_of_addr(addr: PhysAddr) -> MemKind {
        Self::kind_of(addr.ppn())
    }

    /// Reads one cache line.
    #[inline]
    pub fn read_line(&self, ppn: Ppn, line: LineIdx) -> [u8; LINE_SIZE] {
        match self.frames.get(&ppn.raw()) {
            Some(frame) => {
                let off = line.byte_offset();
                frame[off..off + LINE_SIZE].try_into().unwrap()
            }
            None => [0u8; LINE_SIZE],
        }
    }

    /// Writes one cache line. Dropped while [frozen](PhysMem::freeze).
    pub fn write_line(&mut self, ppn: Ppn, line: LineIdx, data: &[u8; LINE_SIZE]) {
        if self.frozen {
            return;
        }
        let frame = self.frames.entry(ppn.raw()).or_insert_with(zeroed_frame);
        let off = line.byte_offset();
        frame[off..off + LINE_SIZE].copy_from_slice(data);
    }

    /// Reads `buf.len()` bytes starting at `addr`. The range may span lines
    /// but must not span pages.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a page boundary.
    pub fn read_bytes(&self, addr: PhysAddr, buf: &mut [u8]) {
        let off = addr.page_offset();
        assert!(off + buf.len() <= PAGE_SIZE, "read crosses page boundary");
        match self.frames.get(&addr.ppn().raw()) {
            Some(frame) => buf.copy_from_slice(&frame[off..off + buf.len()]),
            None => buf.fill(0),
        }
    }

    /// Writes `data` starting at `addr`. The range may span lines but must
    /// not span pages. Dropped while [frozen](PhysMem::freeze).
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a page boundary.
    pub fn write_bytes(&mut self, addr: PhysAddr, data: &[u8]) {
        let off = addr.page_offset();
        assert!(off + data.len() <= PAGE_SIZE, "write crosses page boundary");
        if self.frozen {
            return;
        }
        let frame = self
            .frames
            .entry(addr.ppn().raw())
            .or_insert_with(zeroed_frame);
        frame[off..off + data.len()].copy_from_slice(data);
    }

    /// Copies one whole page frame (used by consolidation tests and
    /// page-granularity shadow paging). Dropped while
    /// [frozen](PhysMem::freeze).
    pub fn copy_page(&mut self, from: Ppn, to: Ppn) {
        if self.frozen {
            return;
        }
        let src = match self.frames.get(&from.raw()) {
            Some(frame) => frame.clone(),
            None => zeroed_frame(),
        };
        self.frames.insert(to.raw(), src);
    }

    /// Freezes memory at a power cut: every subsequent write (line, byte
    /// or page copy) is silently dropped until [`PhysMem::crash`] runs.
    /// Reads keep working — the simulation above the cut continues
    /// deterministically, it just can no longer change persistent state.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// True while writes are being dropped after a power cut.
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Simulates a power failure: every DRAM frame is discarded; NVRAM
    /// frames are untouched. Lifts any [freeze](PhysMem::freeze) — the
    /// power cycle restores a writable memory.
    pub fn crash(&mut self) {
        self.frames.retain(|&ppn, _| ppn >= NVRAM_PPN_BASE);
        self.frozen = false;
    }

    /// Number of frames currently materialised (for capacity accounting).
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of materialised NVRAM frames.
    pub fn resident_nvram_frames(&self) -> usize {
        self.frames.keys().filter(|&&p| p >= NVRAM_PPN_BASE).count()
    }

    /// FNV-1a hash over the NVRAM region (frames visited in ascending PPN
    /// order, all-zero frames excluded so a zeroed frame equals an absent
    /// one). Two memories with the same persistent contents hash equal;
    /// the threaded-equivalence tests compare shards with this.
    pub fn nvram_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut nvram: Vec<(u64, &PageFrame)> = self
            .frames
            .iter()
            .filter(|(&p, _)| p >= NVRAM_PPN_BASE)
            .map(|(&p, f)| (p, f))
            .collect();
        nvram.sort_unstable_by_key(|&(p, _)| p);
        let mut h = FNV_OFFSET;
        for (ppn, frame) in nvram {
            if frame.iter().all(|&b| b == 0) {
                continue;
            }
            for byte in ppn.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
            }
            for &byte in frame.iter() {
                h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nv(n: u64) -> Ppn {
        Ppn::new(NVRAM_PPN_BASE + n)
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = PhysMem::new();
        assert_eq!(mem.read_line(nv(0), LineIdx::new(5)), [0u8; 64]);
    }

    #[test]
    fn line_write_read_round_trip() {
        let mut mem = PhysMem::new();
        let data = [0xabu8; 64];
        mem.write_line(nv(1), LineIdx::new(3), &data);
        assert_eq!(mem.read_line(nv(1), LineIdx::new(3)), data);
        // Neighbouring line untouched.
        assert_eq!(mem.read_line(nv(1), LineIdx::new(4)), [0u8; 64]);
    }

    #[test]
    fn byte_access_within_page() {
        let mut mem = PhysMem::new();
        let addr = PhysAddr::new(nv(2).base().raw() + 100);
        mem.write_bytes(addr, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        mem.read_bytes(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "crosses page boundary")]
    fn cross_page_write_panics() {
        let mut mem = PhysMem::new();
        let addr = PhysAddr::new(nv(0).base().raw() + PAGE_SIZE as u64 - 2);
        mem.write_bytes(addr, &[0u8; 4]);
    }

    #[test]
    fn crash_discards_dram_keeps_nvram() {
        let mut mem = PhysMem::new();
        let dram = Ppn::new(10);
        mem.write_line(dram, LineIdx::new(0), &[1u8; 64]);
        mem.write_line(nv(0), LineIdx::new(0), &[2u8; 64]);
        mem.crash();
        assert_eq!(mem.read_line(dram, LineIdx::new(0)), [0u8; 64]);
        assert_eq!(mem.read_line(nv(0), LineIdx::new(0)), [2u8; 64]);
    }

    #[test]
    fn kind_of_regions() {
        assert_eq!(PhysMem::kind_of(Ppn::new(0)), MemKind::Dram);
        assert_eq!(PhysMem::kind_of(Ppn::new(NVRAM_PPN_BASE)), MemKind::Nvram);
        assert_eq!(
            PhysMem::kind_of_addr(Ppn::new(NVRAM_PPN_BASE).base()),
            MemKind::Nvram
        );
    }

    #[test]
    fn copy_page_duplicates_contents() {
        let mut mem = PhysMem::new();
        mem.write_line(nv(0), LineIdx::new(7), &[9u8; 64]);
        mem.copy_page(nv(0), nv(1));
        assert_eq!(mem.read_line(nv(1), LineIdx::new(7)), [9u8; 64]);
        // Copy is by value: further writes to the source do not alias.
        mem.write_line(nv(0), LineIdx::new(7), &[1u8; 64]);
        assert_eq!(mem.read_line(nv(1), LineIdx::new(7)), [9u8; 64]);
    }

    #[test]
    fn fingerprint_tracks_nvram_contents_only() {
        let mut a = PhysMem::new();
        let mut b = PhysMem::new();
        assert_eq!(a.nvram_fingerprint(), b.nvram_fingerprint());
        a.write_line(nv(3), LineIdx::new(1), &[5u8; 64]);
        assert_ne!(a.nvram_fingerprint(), b.nvram_fingerprint());
        b.write_line(nv(3), LineIdx::new(1), &[5u8; 64]);
        assert_eq!(a.nvram_fingerprint(), b.nvram_fingerprint());
        // DRAM contents and zeroed NVRAM frames do not affect the hash.
        a.write_line(Ppn::new(1), LineIdx::new(0), &[9u8; 64]);
        b.write_line(nv(7), LineIdx::new(0), &[0u8; 64]);
        assert_eq!(a.nvram_fingerprint(), b.nvram_fingerprint());
    }

    #[test]
    fn freeze_drops_writes_until_crash() {
        let mut mem = PhysMem::new();
        mem.write_line(nv(0), LineIdx::new(0), &[1u8; 64]);
        mem.freeze();
        assert!(mem.frozen());
        mem.write_line(nv(0), LineIdx::new(0), &[2u8; 64]);
        mem.write_bytes(nv(1).base(), &[3u8; 8]);
        mem.copy_page(nv(0), nv(2));
        assert_eq!(mem.read_line(nv(0), LineIdx::new(0)), [1u8; 64]);
        assert_eq!(mem.read_line(nv(1), LineIdx::new(0)), [0u8; 64]);
        assert_eq!(mem.read_line(nv(2), LineIdx::new(0)), [0u8; 64]);
        mem.crash();
        assert!(!mem.frozen());
        mem.write_line(nv(1), LineIdx::new(0), &[4u8; 64]);
        assert_eq!(mem.read_line(nv(1), LineIdx::new(0))[0], 4);
    }

    #[test]
    fn resident_frame_accounting() {
        let mut mem = PhysMem::new();
        mem.write_line(Ppn::new(1), LineIdx::new(0), &[1u8; 64]);
        mem.write_line(nv(0), LineIdx::new(0), &[1u8; 64]);
        assert_eq!(mem.resident_frames(), 2);
        assert_eq!(mem.resident_nvram_frames(), 1);
    }
}
