//! The software fall-back path (Section 3.5 of the paper).
//!
//! SSP's hardware write-set buffer bounds the pages a transaction may
//! touch; overflowing it transfers the overflowing updates to an unbounded
//! software **undo log**. Updates beyond the buffer are performed in place
//! at the committed location, protected by an undo record persisted
//! *before* the in-place store (classic write-ahead undo logging).
//!
//! Durability is still cut by the metadata journal's `CommitMark`: at
//! recovery, undo records whose transaction has no mark are rolled back,
//! so the hardware-tracked and software-tracked parts of one transaction
//! commit or vanish together.

use ssp_simulator::addr::{PhysAddr, VirtAddr, LINE_SIZE, PAGE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_simulator::machine::Machine;
use ssp_simulator::stats::WriteClass;
use ssp_txn::vm::NvLayout;

/// Byte offset of the fall-back logs within the log region (the metadata
/// journal owns the first half).
const FB_REGION_OFFSET: u64 = 32 * 1024 * 1024;
/// Header offset of core 0's persisted head pointer — where the one
/// machine-wide head used to live, so a single-core machine's persists
/// reach the same bank and row as ever.
const HDR_FB_HEAD: u64 = 80;
/// Header offset of the head pointers of cores 1 and up, one line each
/// (no false sharing), in the header's second page: clear of the page
/// table's, the journal's and the logging baselines' registers.
const HDR_FB_HEADS: u64 = PAGE_SIZE as u64;

/// Size of one undo record: tid(4) + vaddr(8) + paddr(8) + data(64) = 84,
/// padded to 96 so records stay line-friendly.
pub const UNDO_RECORD_BYTES: u64 = 96;
/// Record bytes per page: a record may not straddle a page boundary, so
/// 42 fit a page (4032 B) and the remainder is skipped.
const PAGE_RECORD_BYTES: u64 = PAGE_SIZE as u64 / UNDO_RECORD_BYTES * UNDO_RECORD_BYTES;

/// One decoded undo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoRecord {
    /// Owning transaction.
    pub tid: u32,
    /// Virtual line address of the update.
    pub vaddr: VirtAddr,
    /// Physical (committed-copy) line address updated in place.
    pub paddr: PhysAddr,
    /// The pre-image of the full line.
    pub old_data: [u8; LINE_SIZE],
}

/// The software undo logs backing the fall-back path: one per core, each
/// with its own record region and persisted head, because transactions on
/// different cores overflow, commit and abort independently — a core that
/// resets its log must not take another core's live records with it.
#[derive(Debug, Clone)]
pub struct FallbackLog {
    layout: NvLayout,
    /// Per core, the persisted append offset (bytes past its region base).
    heads: Vec<u64>,
}

impl FallbackLog {
    /// Opens the logs of a `cores`-core machine over `layout`; the cores
    /// share the fall-back half of the log region equally.
    pub fn new(layout: NvLayout, cores: usize) -> Self {
        Self {
            layout,
            heads: vec![0; cores],
        }
    }

    /// Number of live undo records in `core`'s log.
    pub fn len(&self, core: CoreId) -> usize {
        (self.heads[core.index()] / UNDO_RECORD_BYTES) as usize
    }

    /// Whether every core's log is empty.
    pub fn is_empty(&self) -> bool {
        self.heads.iter().all(|&head| head == 0)
    }

    /// Appends and immediately persists an undo record to `core`'s log,
    /// charging the blocking persist latency to `core` — the fall-back
    /// path is slow by design.
    pub fn append(&mut self, machine: &mut Machine, core: CoreId, record: &UndoRecord) {
        let mut buf = [0u8; UNDO_RECORD_BYTES as usize];
        buf[0..4].copy_from_slice(&record.tid.to_le_bytes());
        buf[4..12].copy_from_slice(&record.vaddr.raw().to_le_bytes());
        buf[12..20].copy_from_slice(&record.paddr.raw().to_le_bytes());
        buf[20..20 + LINE_SIZE].copy_from_slice(&record.old_data);
        let addr = self.record_addr(core, self.heads[core.index()]);
        machine.persist_bytes(Some(core), addr, &buf, WriteClass::Log);
        self.heads[core.index()] += UNDO_RECORD_BYTES;
        self.persist_head(machine, core, Some(core));
    }

    /// Reads `core`'s live records (oldest first).
    pub fn read(&self, machine: &Machine, core: CoreId) -> Vec<UndoRecord> {
        let mut records = Vec::with_capacity(self.len(core));
        let mut offset = 0;
        while offset < self.heads[core.index()] {
            let mut buf = [0u8; UNDO_RECORD_BYTES as usize];
            machine.read_bytes_uncached(self.record_addr(core, offset), &mut buf);
            let tid = u32::from_le_bytes(buf[0..4].try_into().unwrap());
            let vaddr = VirtAddr::new(u64::from_le_bytes(buf[4..12].try_into().unwrap()));
            let paddr = PhysAddr::new(u64::from_le_bytes(buf[12..20].try_into().unwrap()));
            let mut old_data = [0u8; LINE_SIZE];
            old_data.copy_from_slice(&buf[20..20 + LINE_SIZE]);
            records.push(UndoRecord {
                tid,
                vaddr,
                paddr,
                old_data,
            });
            offset += UNDO_RECORD_BYTES;
        }
        records
    }

    /// Reads every core's live records: core by core, oldest first within
    /// a core (what recovery rolls back, in reverse).
    pub fn read_all(&self, machine: &Machine) -> Vec<UndoRecord> {
        (0..self.heads.len())
            .flat_map(|c| self.read(machine, CoreId::new(c)))
            .collect()
    }

    /// Truncates `core`'s log (after its commit or rollback) and persists
    /// the empty head pointer, charged to `core`.
    pub fn reset(&mut self, machine: &mut Machine, core: CoreId) {
        self.heads[core.index()] = 0;
        self.persist_head(machine, core, Some(core));
    }

    /// Truncates every non-empty log (the end of recovery), charging no
    /// core.
    pub fn reset_all(&mut self, machine: &mut Machine) {
        for c in 0..self.heads.len() {
            if self.heads[c] != 0 {
                self.heads[c] = 0;
                self.persist_head(machine, CoreId::new(c), None);
            }
        }
    }

    /// Re-reads the persisted head pointers after a crash.
    pub fn recover(&mut self, machine: &Machine) {
        for c in 0..self.heads.len() {
            let mut buf = [0u8; 8];
            machine.read_bytes_uncached(self.head_addr(CoreId::new(c)), &mut buf);
            self.heads[c] = u64::from_le_bytes(buf);
        }
    }

    fn persist_head(&self, machine: &mut Machine, core: CoreId, charged: Option<CoreId>) {
        machine.persist_bytes(
            charged,
            self.head_addr(core),
            &self.heads[core.index()].to_le_bytes(),
            WriteClass::Log,
        );
    }

    fn head_addr(&self, core: CoreId) -> PhysAddr {
        self.layout.header_addr(match core.index() as u64 {
            0 => HDR_FB_HEAD,
            c => HDR_FB_HEADS + c * LINE_SIZE as u64,
        })
    }

    /// Whole pages in each core's region.
    fn region_pages(&self) -> u64 {
        (self.layout.log_capacity() - FB_REGION_OFFSET) / PAGE_SIZE as u64 / self.heads.len() as u64
    }

    fn record_addr(&self, core: CoreId, offset: u64) -> PhysAddr {
        let page = offset / PAGE_RECORD_BYTES;
        let region_pages = self.region_pages();
        // Past this, the record would land in the next core's region.
        assert!(page < region_pages, "the fall-back log of {core} is full");
        let page = core.index() as u64 * region_pages + page;
        self.layout
            .log_addr(FB_REGION_OFFSET + page * PAGE_SIZE as u64 + offset % PAGE_RECORD_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_simulator::config::MachineConfig;

    fn setup() -> (Machine, FallbackLog) {
        (
            Machine::new(MachineConfig::default()),
            FallbackLog::new(NvLayout::default(), 2),
        )
    }

    fn record(tid: u32, seed: u8) -> UndoRecord {
        UndoRecord {
            tid,
            vaddr: VirtAddr::new(0x10_0000_0000 + seed as u64 * 64),
            paddr: PhysAddr::new(0x20_0000_0000 + seed as u64 * 64),
            old_data: [seed; LINE_SIZE],
        }
    }

    #[test]
    fn append_read_round_trip() {
        let (mut m, mut log) = setup();
        let c = CoreId::new(0);
        log.append(&mut m, c, &record(1, 0xaa));
        log.append(&mut m, c, &record(1, 0xbb));
        let all = log.read(&m, c);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], record(1, 0xaa));
        assert_eq!(all[1], record(1, 0xbb));
    }

    #[test]
    fn records_survive_crash() {
        let (mut m, mut log) = setup();
        log.append(&mut m, CoreId::new(0), &record(7, 0x11));
        m.crash();
        let mut log2 = FallbackLog::new(NvLayout::default(), 2);
        log2.recover(&m);
        assert_eq!(log2.len(CoreId::new(0)), 1);
        assert_eq!(log2.read_all(&m)[0].tid, 7);
    }

    #[test]
    fn reset_empties_durably() {
        let (mut m, mut log) = setup();
        log.append(&mut m, CoreId::new(0), &record(1, 0x22));
        log.reset(&mut m, CoreId::new(0));
        m.crash();
        let mut log2 = FallbackLog::new(NvLayout::default(), 2);
        log2.recover(&m);
        assert!(log2.is_empty());
    }

    #[test]
    fn each_core_has_its_own_records_and_head() {
        let (mut m, mut log) = setup();
        let (c0, c1) = (CoreId::new(0), CoreId::new(1));
        log.append(&mut m, c1, &record(5, 0x55));
        log.append(&mut m, c0, &record(6, 0x66));
        log.append(&mut m, c0, &record(6, 0x67));
        // Core 0 commits: its log empties, core 1's record stays.
        log.reset(&mut m, c0);
        assert_eq!((log.len(c0), log.len(c1)), (0, 1));
        assert_eq!(log.read(&m, c1), [record(5, 0x55)]);
        // ... durably.
        m.crash();
        let mut log2 = FallbackLog::new(NvLayout::default(), 2);
        log2.recover(&m);
        assert!(!log2.is_empty());
        assert_eq!(log2.read_all(&m), [record(5, 0x55)]);
        log2.reset_all(&mut m);
        assert!(log2.is_empty());
    }

    #[test]
    fn core_zero_keeps_the_single_log_addresses() {
        // Single-core machines' persists must reach the same lines as
        // before the logs were split per core.
        let log = FallbackLog::new(NvLayout::default(), 4);
        let layout = NvLayout::default();
        assert_eq!(log.head_addr(CoreId::new(0)), layout.header_addr(80));
        assert_eq!(
            log.record_addr(CoreId::new(0), 43 * UNDO_RECORD_BYTES),
            layout.log_addr(32 * 1024 * 1024 + 4096 + 96)
        );
        // Regions are disjoint: a quarter of the 32 MiB each.
        assert_eq!(
            log.record_addr(CoreId::new(1), 0),
            layout.log_addr(40 * 1024 * 1024)
        );
    }

    #[test]
    #[should_panic(expected = "fall-back log of core1 is full")]
    fn a_full_region_panics_instead_of_overwriting_the_next_core() {
        let log = FallbackLog::new(NvLayout::default(), 2);
        let pages = 16 * 1024 * 1024 / 4096;
        log.record_addr(CoreId::new(1), pages * PAGE_RECORD_BYTES);
    }

    #[test]
    fn appends_count_as_log_writes() {
        let (mut m, mut log) = setup();
        log.append(&mut m, CoreId::new(0), &record(1, 0x33));
        assert!(m.stats().nvram_writes(WriteClass::Log) >= 2);
    }

    #[test]
    fn many_records_span_pages() {
        let (mut m, mut log) = setup();
        let c = CoreId::new(0);
        for i in 0..100u32 {
            log.append(&mut m, c, &record(i, i as u8));
        }
        let all = log.read(&m, c);
        assert_eq!(all.len(), 100);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.tid, i as u32);
        }
    }
}
