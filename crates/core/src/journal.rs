//! The metadata journal (Section 3.3 / 4.1.2 of the paper).
//!
//! Every update to per-page SSP metadata is first appended as a record to a
//! redo journal in NVRAM; only then may the persistent SSP-cache slots be
//! updated (by checkpointing). Commit-path records are 16 bytes — the
//! paper's "128 bits of metadata for each modified page" — so journaling
//! traffic is tiny compared to data logging.
//!
//! Record kinds:
//!
//! * [`Record::CommitMeta`] — a transaction's new committed bitmap for one
//!   page (16 B).
//! * [`Record::CommitMark`] — the transaction's atomic commit point (8 B).
//! * [`Record::Assign`] — a slot (re)assignment: page pair + slot id
//!   (32 B; written when a page becomes actively updated).
//! * [`Record::Remap`] — a consolidation result: which physical page now
//!   holds all committed data (32 B; doubles as the durable page-table
//!   update).
//!
//! Appends accumulate in a volatile buffer; a *flush* persists the
//! buffered bytes. Records carry the journal's current **epoch** so
//! recovery can look for the valid extent without a per-commit
//! head-pointer persist: it scans from the start of the journal area and
//! accepts records until one does not decode under the current epoch. A
//! transaction is durable exactly when the flush covering its
//! `CommitMark` record completes. Checkpointing folds records into the
//! persistent slot area, rewinds the journal to offset zero and bumps the
//! persisted epoch.
//!
//! **What the scan does not establish** (ROADMAP item 1; documented here,
//! not yet fixed). The bytes past the true tail are whatever earlier
//! epochs left there — *any* older epoch, at *any* alignment, because
//! records are 8, 16 or 32 bytes and each epoch lays them out afresh from
//! offset zero. A record is accepted on two bytes alone (a kind in
//! `1..=4` and an epoch byte equal to the current one), so (a) the 8-bit
//! epoch laps after 255 truncations and a record 255 truncations old
//! reads as live, and (b) once the scan passes the true tail it can land
//! inside an older record, where payload bytes (a bitmap, a tid) pass for
//! a header. Nothing persisted marks where the live records end.

use ssp_simulator::addr::{PhysAddr, Ppn, Vpn, PAGE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_simulator::machine::Machine;
use ssp_simulator::stats::WriteClass;
use ssp_txn::vm::NvLayout;

use crate::bitmap::LineBitmap;

/// Slot index in the SSP cache.
pub type SlotId = u16;

/// Header-region byte offsets used by the journal (the VM manager owns
/// offsets 0..64).
const HDR_JOURNAL_EPOCH: u64 = 64;

const KIND_COMMIT_META: u8 = 1;
const KIND_COMMIT_MARK: u8 = 2;
const KIND_ASSIGN: u8 = 3;
const KIND_REMAP: u8 = 4;

/// One journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// New committed bitmap for the page in slot `sid`, part of `tid`.
    CommitMeta {
        /// Slot being updated.
        sid: SlotId,
        /// Owning transaction.
        tid: u32,
        /// The new committed bitmap.
        committed: LineBitmap,
    },
    /// Atomic commit point of `tid`.
    CommitMark {
        /// The committing transaction.
        tid: u32,
    },
    /// Slot `sid` now serves `vpn` with pages `(ppn0, ppn1)`.
    Assign {
        /// Slot being assigned.
        sid: SlotId,
        /// The virtual page.
        vpn: Vpn,
        /// Mapped (original) physical page.
        ppn0: Ppn,
        /// Shadow physical page.
        ppn1: Ppn,
    },
    /// Consolidation finished: `vpn` maps to `ppn0`, all lines committed
    /// there; `ppn1` is the slot's (possibly swapped) spare page.
    Remap {
        /// Slot that was consolidated.
        sid: SlotId,
        /// The virtual page.
        vpn: Vpn,
        /// The winning physical page (now holds all committed lines).
        ppn0: Ppn,
        /// The spare physical page.
        ppn1: Ppn,
    },
}

impl Record {
    /// Largest [`encoded_len`](Record::encoded_len) of any record kind.
    const MAX_ENCODED_LEN: usize = 32;

    /// Serialised size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Record::CommitMeta { .. } => 16,
            Record::CommitMark { .. } => 8,
            Record::Assign { .. } | Record::Remap { .. } => 32,
        }
    }

    fn encode(&self, epoch: u8, out: &mut Vec<u8>) {
        match *self {
            Record::CommitMeta {
                sid,
                tid,
                committed,
            } => {
                out.push(KIND_COMMIT_META);
                out.push(epoch);
                out.extend_from_slice(&sid.to_le_bytes());
                out.extend_from_slice(&tid.to_le_bytes());
                out.extend_from_slice(&committed.raw().to_le_bytes());
            }
            Record::CommitMark { tid } => {
                out.push(KIND_COMMIT_MARK);
                out.push(epoch);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&tid.to_le_bytes());
            }
            Record::Assign {
                sid,
                vpn,
                ppn0,
                ppn1,
            } => {
                out.push(KIND_ASSIGN);
                out.push(epoch);
                out.extend_from_slice(&sid.to_le_bytes());
                out.extend_from_slice(&[0, 0, 0, 0]);
                out.extend_from_slice(&vpn.raw().to_le_bytes());
                out.extend_from_slice(&ppn0.raw().to_le_bytes());
                out.extend_from_slice(&ppn1.raw().to_le_bytes());
            }
            Record::Remap {
                sid,
                vpn,
                ppn0,
                ppn1,
            } => {
                out.push(KIND_REMAP);
                out.push(epoch);
                out.extend_from_slice(&sid.to_le_bytes());
                out.extend_from_slice(&[0, 0, 0, 0]);
                out.extend_from_slice(&vpn.raw().to_le_bytes());
                out.extend_from_slice(&ppn0.raw().to_le_bytes());
                out.extend_from_slice(&ppn1.raw().to_le_bytes());
            }
        }
    }

    fn decode(buf: &[u8]) -> Option<(Record, u8, usize)> {
        let kind = *buf.first()?;
        let epoch = *buf.get(1)?;
        match kind {
            KIND_COMMIT_META if buf.len() >= 16 => {
                let sid = u16::from_le_bytes([buf[2], buf[3]]);
                let tid = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
                let committed =
                    LineBitmap::from_raw(u64::from_le_bytes(buf[8..16].try_into().ok()?));
                Some((
                    Record::CommitMeta {
                        sid,
                        tid,
                        committed,
                    },
                    epoch,
                    16,
                ))
            }
            KIND_COMMIT_MARK if buf.len() >= 8 => {
                let tid = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
                Some((Record::CommitMark { tid }, epoch, 8))
            }
            KIND_ASSIGN | KIND_REMAP if buf.len() >= 32 => {
                let sid = u16::from_le_bytes([buf[2], buf[3]]);
                let vpn = Vpn::new(u64::from_le_bytes(buf[8..16].try_into().ok()?));
                let ppn0 = Ppn::new(u64::from_le_bytes(buf[16..24].try_into().ok()?));
                let ppn1 = Ppn::new(u64::from_le_bytes(buf[24..32].try_into().ok()?));
                let rec = if kind == KIND_ASSIGN {
                    Record::Assign {
                        sid,
                        vpn,
                        ppn0,
                        ppn1,
                    }
                } else {
                    Record::Remap {
                        sid,
                        vpn,
                        ppn0,
                        ppn1,
                    }
                };
                Some((rec, epoch, 32))
            }
            _ => None,
        }
    }
}

/// The metadata journal: a volatile append buffer over an NVRAM area
/// validated by per-record epochs.
#[derive(Debug, Clone)]
pub struct MetaJournal {
    layout: NvLayout,
    capacity: u64,
    /// Volatile append point (byte offset into the journal region);
    /// recovery re-derives it by scanning for the current epoch.
    head: u64,
    /// Current epoch, persisted at each checkpoint.
    epoch: u8,
    /// Records appended but not yet persisted.
    buffer: Vec<u8>,
    /// Records appended since creation/recovery (for tests and stats).
    appended_records: u64,
}

impl MetaJournal {
    /// Opens the journal over `layout` with the given ring capacity.
    pub fn new(layout: NvLayout, capacity: u64) -> Self {
        assert!(
            capacity <= layout.log_capacity() / 2,
            "journal must leave room for the fall-back log"
        );
        Self {
            layout,
            capacity,
            head: 0,
            epoch: 1,
            buffer: Vec::new(),
            appended_records: 0,
        }
    }

    /// Bytes currently live in the journal (excluding the unflushed
    /// buffer).
    pub fn used_bytes(&self) -> u64 {
        self.head
    }

    /// Records appended since creation/recovery.
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Whether a flush is needed before the ring can accept `extra` bytes.
    pub fn needs_checkpoint(&self, threshold: u64) -> bool {
        self.used_bytes() >= threshold
    }

    /// Appends a record to the volatile buffer (not yet durable).
    pub fn append(&mut self, record: Record) {
        record.encode(self.epoch, &mut self.buffer);
        self.appended_records += 1;
    }

    /// Persists the buffered records in one `persist_bytes` call, charging
    /// the persist latency to `core` if given, and advances the *volatile*
    /// head. No head pointer is persisted: recovery re-derives the extent
    /// by scanning ([`read_live`](Self::read_live); its limits are in the
    /// module docs and ROADMAP item 1). Returns the number of buffered
    /// bytes persisted.
    ///
    /// # Panics
    ///
    /// Panics if the ring overflows — the engine must checkpoint before
    /// that happens.
    pub fn flush(&mut self, machine: &mut Machine, core: Option<CoreId>) -> usize {
        if self.buffer.is_empty() {
            return 0;
        }
        let len = self.buffer.len() as u64;
        assert!(
            self.head + len <= self.capacity,
            "metadata journal ring overflow; checkpoint was not run"
        );
        // Drain in place (not `mem::take`) so the append buffer keeps its
        // allocation: steady-state commits stop allocating per flush.
        machine.persist_bytes(
            core,
            self.addr(self.head),
            &self.buffer,
            WriteClass::MetaJournal,
        );
        self.head += len;
        self.buffer.clear();
        len as usize
    }

    /// Truncates the journal after a checkpoint: rewinds to offset zero
    /// and bumps the persisted epoch so the surviving bytes are no longer
    /// valid. The caller must already have folded the records into the
    /// persistent slots.
    pub fn truncate(&mut self, machine: &mut Machine) {
        self.head = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.epoch = 1; // epoch 0 marks never-written journal bytes
        }
        machine.persist_bytes(
            None,
            self.layout.header_addr(HDR_JOURNAL_EPOCH),
            &[self.epoch],
            WriteClass::Checkpoint,
        );
    }

    /// Reads records back from NVRAM (recovery): scans from the start of
    /// the journal area and accepts records for as long as the next bytes
    /// decode as a record kind under the current epoch — two bytes are all
    /// that is checked, which stops the scan at the true tail only if what
    /// lies past it does not happen to pass (module docs, ROADMAP item 1).
    /// The area is read a page at a time, only as far as the scan gets.
    pub fn read_live(&self, machine: &Machine) -> Vec<Record> {
        let capacity = self.capacity as usize;
        let mut records = Vec::new();
        // Region bytes `fetched - window.len()..fetched`; the next record
        // starts at `window[cursor]`.
        let mut window = Vec::with_capacity(PAGE_SIZE + Record::MAX_ENCODED_LEN);
        let mut fetched = 0usize;
        let mut cursor = 0usize;
        loop {
            // Keep one maximal record of look-ahead, so a record that
            // straddles a page boundary decodes whole.
            while window.len() - cursor < Record::MAX_ENCODED_LEN && fetched < capacity {
                window.drain(..cursor);
                cursor = 0;
                let addr = self.addr(fetched as u64);
                // Region reads must not span pages.
                let chunk = (PAGE_SIZE - addr.page_offset()).min(capacity - fetched);
                let at = window.len();
                window.resize(at + chunk, 0);
                machine.read_bytes_uncached(addr, &mut window[at..]);
                fetched += chunk;
            }
            match Record::decode(&window[cursor..]) {
                Some((rec, epoch, n)) if epoch == self.epoch => {
                    records.push(rec);
                    cursor += n;
                }
                _ => return records,
            }
        }
    }

    /// Re-reads the persisted epoch after a crash, re-derives the head by
    /// scanning, and drops any unflushed buffer. Returns the live records
    /// the scan decoded, for the engine to replay.
    pub fn recover(&mut self, machine: &Machine) -> Vec<Record> {
        let mut buf = [0u8; 1];
        machine.read_bytes_uncached(self.layout.header_addr(HDR_JOURNAL_EPOCH), &mut buf);
        self.epoch = if buf[0] == 0 { 1 } else { buf[0] };
        self.buffer.clear();
        self.appended_records = 0;
        // Derive the head from the valid extent.
        let live = self.read_live(machine);
        self.head = live.iter().map(|r| r.encoded_len() as u64).sum();
        live
    }

    fn addr(&self, offset: u64) -> PhysAddr {
        self.layout.log_addr(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_simulator::config::MachineConfig;

    fn setup() -> (Machine, MetaJournal) {
        let machine = Machine::new(MachineConfig::default());
        let journal = MetaJournal::new(NvLayout::default(), 1024 * 1024);
        (machine, journal)
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Assign {
                sid: 3,
                vpn: Vpn::new(0x10_0001),
                ppn0: Ppn::new(77),
                ppn1: Ppn::new(88),
            },
            Record::CommitMeta {
                sid: 3,
                tid: 9,
                committed: LineBitmap::from_raw(0b1100),
            },
            Record::CommitMark { tid: 9 },
            Record::Remap {
                sid: 3,
                vpn: Vpn::new(0x10_0001),
                ppn0: Ppn::new(88),
                ppn1: Ppn::new(77),
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode(7, &mut buf);
            assert_eq!(buf.len(), rec.encoded_len());
            let (decoded, epoch, n) = Record::decode(&buf).unwrap();
            assert_eq!(decoded, rec);
            assert_eq!(epoch, 7);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn commit_meta_is_16_bytes() {
        // The paper's "128 bits of metadata for each modified page".
        let rec = Record::CommitMeta {
            sid: 1,
            tid: 2,
            committed: LineBitmap::FULL,
        };
        assert_eq!(rec.encoded_len(), 16);
    }

    #[test]
    fn flush_persists_and_survives_crash() {
        let (mut m, mut j) = setup();
        for rec in sample_records() {
            j.append(rec);
        }
        j.flush(&mut m, None);
        m.crash();
        let mut j2 = MetaJournal::new(NvLayout::default(), 1024 * 1024);
        j2.recover(&m);
        assert_eq!(j2.read_live(&m), sample_records());
    }

    #[test]
    fn unflushed_buffer_lost_in_crash() {
        let (mut m, mut j) = setup();
        j.append(Record::CommitMark { tid: 1 });
        j.flush(&mut m, None);
        j.append(Record::CommitMark { tid: 2 }); // never flushed
        m.crash();
        let mut j2 = MetaJournal::new(NvLayout::default(), 1024 * 1024);
        j2.recover(&m);
        let live = j2.read_live(&m);
        assert_eq!(live, vec![Record::CommitMark { tid: 1 }]);
    }

    #[test]
    fn journal_writes_are_counted_as_meta() {
        let (mut m, mut j) = setup();
        j.append(Record::CommitMark { tid: 7 });
        j.flush(&mut m, None);
        assert!(m.stats().nvram_writes(WriteClass::MetaJournal) >= 1);
        assert_eq!(m.stats().nvram_writes(WriteClass::Log), 0);
    }

    #[test]
    fn truncate_rewinds_past_half_capacity() {
        let (mut m, j) = setup();
        let mut j_small = MetaJournal::new(NvLayout::default(), 1024);
        for _ in 0..80 {
            j_small.append(Record::CommitMark { tid: 1 });
        }
        j_small.flush(&mut m, None);
        assert_eq!(j_small.used_bytes(), 640);
        j_small.truncate(&mut m);
        assert_eq!(j_small.used_bytes(), 0);
        // 640 > 512, so the ring rewound.
        j_small.append(Record::CommitMark { tid: 2 });
        j_small.flush(&mut m, None);
        assert_eq!(j_small.read_live(&m), vec![Record::CommitMark { tid: 2 }]);
        let _ = j;
    }

    impl MetaJournal {
        /// The scan `read_live` replaced, kept as its reference: copy the
        /// whole region out of NVRAM, then decode from the front.
        fn read_live_whole_region(&self, machine: &Machine) -> Vec<Record> {
            let mut records = Vec::new();
            let mut raw = vec![0u8; self.capacity as usize];
            let mut off = 0usize;
            // Region reads must not span pages.
            while off < raw.len() {
                let addr = self.addr(off as u64);
                let page_left = 4096 - addr.page_offset();
                let chunk = page_left.min(raw.len() - off);
                machine.read_bytes_uncached(addr, &mut raw[off..off + chunk]);
                off += chunk;
            }
            let mut cursor = 0usize;
            while cursor < raw.len() {
                match Record::decode(&raw[cursor..]) {
                    Some((rec, epoch, n)) if epoch == self.epoch => {
                        records.push(rec);
                        cursor += n;
                    }
                    _ => break,
                }
            }
            records
        }
    }

    /// Crashes, recovers a fresh journal the way the engine does, and
    /// returns its live records after checking them against the
    /// whole-region scan of the same NVRAM image.
    fn scan_after_crash(m: &mut Machine, capacity: u64) -> Vec<Record> {
        m.crash();
        let mut j = MetaJournal::new(NvLayout::default(), capacity);
        let recovered = j.recover(m);
        let live = j.read_live(m);
        assert_eq!(recovered, live, "recover returns what it scanned");
        assert_eq!(live, j.read_live_whole_region(m));
        assert_eq!(
            j.used_bytes(),
            live.iter().map(|r| r.encoded_len() as u64).sum::<u64>()
        );
        live
    }

    #[test]
    fn scan_of_an_empty_journal() {
        let (mut m, _) = setup();
        let live = scan_after_crash(&mut m, 1024 * 1024);
        assert!(live.is_empty());
    }

    #[test]
    fn scan_of_a_journal_filled_to_capacity() {
        // Three pages and a partial one: the scan must run into the end
        // of the region mid-page, with no byte left for a look-ahead.
        let capacity = 3 * 4096 + 1000;
        let (mut m, _) = setup();
        let mut j = MetaJournal::new(NvLayout::default(), capacity);
        for tid in 0..capacity as u32 / 8 {
            j.append(Record::CommitMark { tid });
        }
        j.flush(&mut m, None);
        assert_eq!(j.used_bytes(), capacity);
        let live = scan_after_crash(&mut m, capacity);
        assert_eq!(live.len() as u64, capacity / 8);
        assert_eq!(live.last(), Some(&Record::CommitMark { tid: 1660 }));
    }

    #[test]
    fn scan_decodes_records_straddling_page_boundaries() {
        let (mut m, mut j) = setup();
        // 8 + 127 × 32 = 4072, so the 128th 32-byte record covers
        // 4072..4104; from there the 256th 16-byte record covers
        // 8184..8200.
        j.append(Record::CommitMark { tid: 1 });
        for i in 0..128u64 {
            j.append(Record::Assign {
                sid: i as SlotId,
                vpn: Vpn::new(0x10_0000 + i),
                ppn0: Ppn::new(2 * i),
                ppn1: Ppn::new(2 * i + 1),
            });
        }
        for tid in 0..256u32 {
            j.append(Record::CommitMeta {
                sid: 1,
                tid,
                committed: LineBitmap::from_raw(u64::from(tid) << 32 | 0xff),
            });
        }
        j.append(sample_records()[3]);
        j.flush(&mut m, None);
        assert_eq!(j.used_bytes(), 8200 + 32);
        let live = scan_after_crash(&mut m, 1024 * 1024);
        assert_eq!(live.len(), 1 + 128 + 256 + 1);
        assert_eq!(live.last(), Some(&sample_records()[3]));
    }

    #[test]
    fn scan_stops_at_the_stale_epoch_tail() {
        let (mut m, mut j) = setup();
        // Two pages of epoch-1 records, truncated; the new epoch's few
        // records are followed by the old epoch's, still in NVRAM.
        for tid in 0..1024u32 {
            j.append(Record::CommitMark { tid });
        }
        j.flush(&mut m, None);
        j.truncate(&mut m);
        let fresh = sample_records();
        for rec in &fresh {
            j.append(*rec);
        }
        j.flush(&mut m, None);
        let live = scan_after_crash(&mut m, 1024 * 1024);
        assert_eq!(live, fresh);
    }

    #[test]
    fn needs_checkpoint_threshold() {
        let (mut m, mut j) = setup();
        assert!(!j.needs_checkpoint(64));
        for _ in 0..16 {
            j.append(Record::CommitMark { tid: 1 });
        }
        j.flush(&mut m, None);
        assert!(j.needs_checkpoint(64));
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn overflow_panics() {
        let (mut m, _) = setup();
        let mut j = MetaJournal::new(NvLayout::default(), 16);
        for _ in 0..4 {
            j.append(Record::CommitMark { tid: 1 });
        }
        j.flush(&mut m, None);
    }
}
