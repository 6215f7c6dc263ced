//! Physical memory: page frames split into a volatile DRAM region and a
//! persistent NVRAM region, and the one port every write reaches them
//! through.
//!
//! The contents of `PhysMem` are the *memory-side* truth: data still sitting
//! dirty in a cache has not reached these frames yet. A simulated power
//! failure ([`PhysMem::crash`]) therefore simply discards the DRAM region;
//! the NVRAM region is exactly what recovery code gets to see.
//!
//! `PhysMem`'s writer is private to this module: every byte that reaches a
//! frame passes `MemPort::write`, which times, counts, checks the
//! power-cut latch and stores once each. A set latch drops the bytes (the
//! frames keep what they held at the cut); the write is still counted.

use crate::addr::{LineIdx, PhysAddr, Ppn, LINE_SIZE, PAGE_SIZE};
use crate::config::MachineConfig;
use crate::stats::{MachineStats, WriteClass};
use crate::timing::{AccessKind, MemKind, MemTiming};
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
/// use ssp_simulator::timing::MemKind;
///
/// let mem = PhysMem::new();
/// let nv = Ppn::new(NVRAM_PPN_BASE);
/// assert_eq!(PhysMem::kind_of(nv), MemKind::Nvram); // survives a crash
/// assert_eq!(mem.read_line(nv, LineIdx::new(0)), [0u8; 64]); // untouched
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysMem {
    /// Fast-hashed: every cache miss, write-back and uncached metadata
    /// access resolves a frame here, and nothing observable depends on
    /// iteration order (the fingerprint sorts, `crash` filters).
    frames: FxHashMap<u64, PageFrame>,
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

    /// Writes `data` starting at `addr`; the range must not span pages.
    /// Only [`MemPort::write`] calls it.
    #[inline]
    fn write_bytes(&mut self, addr: PhysAddr, data: &[u8]) {
        let off = addr.page_offset();
        assert!(off + data.len() <= PAGE_SIZE, "write crosses page boundary");
        let frame = self
            .frames
            .entry(addr.ppn().raw())
            .or_insert_with(zeroed_frame);
        frame[off..off + data.len()].copy_from_slice(data);
    }

    /// Simulates a power failure: every DRAM frame is discarded; NVRAM
    /// frames are untouched.
    pub fn crash(&mut self) {
        self.frames.retain(|&ppn, _| ppn >= NVRAM_PPN_BASE);
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

/// The memory controller's write side: it owns the frames, the timing
/// model and the power-cut latch, and [`MemPort::write`] is the only way
/// bytes reach a frame (module docs).
#[derive(Debug, Clone)]
pub(crate) struct MemPort {
    mem: PhysMem,
    /// The bank/row model every memory access is timed by (reads too,
    /// which bypass the port's write).
    pub timing: MemTiming,
    /// Set at a power cut, cleared by [`MemPort::crash`]: while set, every
    /// write is dropped.
    power_lost: bool,
}

impl MemPort {
    /// Empty frames behind `cfg`'s timing model, the power on.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self {
            mem: PhysMem::new(),
            timing: MemTiming::new(cfg),
            power_lost: false,
        }
    }

    /// The frames, read-only.
    #[inline]
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    /// True once the power has been cut: writes are being dropped (a
    /// write's bytes landed iff this is false).
    #[inline]
    pub fn power_lost(&self) -> bool {
        self.power_lost
    }

    /// Cuts the power: every write from now until [`MemPort::crash`] is
    /// dropped.
    pub fn cut_power(&mut self) {
        self.power_lost = true;
    }

    /// Writes `data`, which lies within one line, at `addr`. Timed and
    /// counted as one line write of `class`, or — `None` — neither: the
    /// bytes join a line a write-combining buffer has already counted.
    /// Returns the latency (0 if untimed), charged to no core: the caller
    /// decides who stalls.
    #[inline]
    pub fn write(
        &mut self,
        stats: &mut MachineStats,
        addr: PhysAddr,
        data: &[u8],
        class: Option<WriteClass>,
    ) -> u64 {
        debug_assert!(
            addr.line_offset() + data.len() <= LINE_SIZE,
            "a port write stays within one line"
        );
        let mut cycles = 0;
        if let Some(class) = class {
            let kind = PhysMem::kind_of_addr(addr);
            cycles = self
                .timing
                .access_cycles(stats, kind, addr.line_base(), AccessKind::Write);
            match kind {
                MemKind::Dram => stats.dram_writes += 1,
                MemKind::Nvram => stats.record_nvram_write(class),
            }
        }
        if !self.power_lost {
            self.mem.write_bytes(addr, data);
        }
        cycles
    }

    /// Power cycle: DRAM and the open rows are lost, NVRAM survives, and
    /// memory is writable again.
    pub fn crash(&mut self) {
        self.mem.crash();
        self.timing.reset();
        self.power_lost = false;
    }
}

#[cfg(test)]
impl PhysMem {
    /// Writes past the port: for the hierarchy's specification
    /// (`cache/spec.rs`), which keeps its own accounting and latch.
    pub(crate) fn write_unported(&mut self, addr: PhysAddr, data: &[u8]) {
        self.write_bytes(addr, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashPoint, FaultSite};

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
        mem.write_bytes(nv(1).line_addr(LineIdx::new(3)), &data);
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
        mem.write_bytes(dram.line_addr(LineIdx::new(0)), &[1u8; 64]);
        mem.write_bytes(nv(0).line_addr(LineIdx::new(0)), &[2u8; 64]);
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
    fn fingerprint_tracks_nvram_contents_only() {
        let mut a = PhysMem::new();
        let mut b = PhysMem::new();
        assert_eq!(a.nvram_fingerprint(), b.nvram_fingerprint());
        a.write_bytes(nv(3).line_addr(LineIdx::new(1)), &[5u8; 64]);
        assert_ne!(a.nvram_fingerprint(), b.nvram_fingerprint());
        b.write_bytes(nv(3).line_addr(LineIdx::new(1)), &[5u8; 64]);
        assert_eq!(a.nvram_fingerprint(), b.nvram_fingerprint());
        // DRAM contents and zeroed NVRAM frames do not affect the hash.
        a.write_bytes(Ppn::new(1).line_addr(LineIdx::new(0)), &[9u8; 64]);
        b.write_bytes(nv(7).line_addr(LineIdx::new(0)), &[0u8; 64]);
        assert_eq!(a.nvram_fingerprint(), b.nvram_fingerprint());
    }

    #[test]
    fn a_tripped_latch_drops_every_write_until_crash() {
        use crate::machine::Machine;
        let cfg = MachineConfig::default();
        let mut port = MemPort::new(&cfg);
        let mut stats = MachineStats::new();
        let class = Some(WriteClass::Data);
        let line = |n| nv(n).line_addr(LineIdx::new(0));
        port.write(&mut stats, line(0), &[1u8; 64], class);
        port.cut_power();
        assert!(port.power_lost());
        // A line write and a byte write: each dropped, each counted once.
        assert!(port.write(&mut stats, line(0), &[2u8; 64], class) > 0);
        port.write(&mut stats, line(1), &[3u8; 8], class);
        assert_eq!(stats.nvram_writes(WriteClass::Data), 3);
        assert_eq!(port.mem().read_line(nv(0), LineIdx::new(0)), [1u8; 64]);
        assert_eq!(port.mem().read_line(nv(1), LineIdx::new(0)), [0u8; 64]);
        port.crash();
        assert!(!port.power_lost());
        port.write(&mut stats, line(1), &[4u8; 64], class);
        assert_eq!(port.mem().read_line(nv(1), LineIdx::new(0))[0], 4);
        // A machine's uncached line copy goes through the same latch.
        let mut m = Machine::new(cfg);
        m.persist_bytes(None, line(0), &[5u8; 64], WriteClass::Other);
        m.arm_crash(CrashPoint::AtSite {
            site: FaultSite::CommitData,
            hits: 1,
        });
        m.fault_point(FaultSite::CommitData);
        m.copy_line_uncached(line(0), line(2), WriteClass::Consolidation);
        assert_eq!(m.stats().nvram_writes(WriteClass::Consolidation), 1);
        let mut buf = [0u8; 64];
        m.read_bytes_uncached(line(2), &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn resident_frame_accounting() {
        let mut mem = PhysMem::new();
        mem.write_bytes(Ppn::new(1).line_addr(LineIdx::new(0)), &[1u8; 64]);
        mem.write_bytes(nv(0).line_addr(LineIdx::new(0)), &[1u8; 64]);
        assert_eq!(mem.resident_frames(), 2);
        assert_eq!(mem.resident_nvram_frames(), 1);
    }
}
