//! Shared pieces of the logging baselines: per-core log areas with
//! coalesced line-write accounting, and commit registers — paired, one per
//! core, as a [`CoreJournal`].
//!
//! Hardware logging designs (ATOM, DHTM) append log entries through a
//! write-combining buffer at the memory controller, so consecutive appends
//! share cache-line writes. [`CoreLog`] models that: it counts one NVRAM
//! line write per *newly touched* line of the log, not per append.

use ssp_simulator::addr::{PhysAddr, VirtAddr, LINE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_simulator::machine::Machine;
use ssp_simulator::stats::WriteClass;
use ssp_simulator::timing::{AccessKind, MemKind};
use ssp_txn::vm::NvLayout;

/// Bytes of log area per core.
pub const PER_CORE_LOG_BYTES: u64 = 4 * 1024 * 1024;

/// Header byte offsets (per core) for the baselines' registers; the VM
/// manager owns 0..64 and SSP owns 64..128.
const HDR_BASE: u64 = 128;
const HDR_STRIDE: u64 = 64; // one line per core: no false sharing

/// One log entry: a full line image plus identifying metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Owning transaction.
    pub tid: u64,
    /// Home physical address of the line.
    pub paddr: PhysAddr,
    /// Virtual line address (diagnostics).
    pub vaddr: VirtAddr,
    /// The logged line image (old data for undo, new data for redo).
    pub data: [u8; LINE_SIZE],
}

/// Serialised entry size: tid(8) + paddr(8) + vaddr(8) + data(64).
pub const ENTRY_BYTES: u64 = 88;

/// A per-core log area with coalesced write accounting.
#[derive(Debug, Clone)]
pub struct CoreLog {
    layout: NvLayout,
    core: usize,
    /// Volatile append offset.
    head: u64,
    /// Highest log line already counted as written (for coalescing).
    counted_until: u64,
    entries_appended: u64,
}

impl CoreLog {
    /// Opens core `core`'s log area.
    pub fn new(layout: NvLayout, core: usize) -> Self {
        Self {
            layout,
            core,
            head: 0,
            counted_until: 0,
            entries_appended: 0,
        }
    }

    /// Entries appended since creation.
    pub fn entries_appended(&self) -> u64 {
        self.entries_appended
    }

    /// Live entries (since the last truncation).
    pub fn len(&self) -> usize {
        (self.head / ENTRY_BYTES) as usize
    }

    /// Whether the log holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.head == 0
    }

    /// Appends an entry and persists it. Returns the persist latency in
    /// cycles (callers decide whether it blocks the core — undo logging
    /// blocks; redo logging overlaps). NVRAM line writes are counted with
    /// coalescing: only newly touched log lines count.
    pub fn append(&mut self, machine: &mut Machine, entry: &LogEntry) -> u64 {
        let mut buf = [0u8; ENTRY_BYTES as usize];
        buf[0..8].copy_from_slice(&entry.tid.to_le_bytes());
        buf[8..16].copy_from_slice(&entry.paddr.raw().to_le_bytes());
        buf[16..24].copy_from_slice(&entry.vaddr.raw().to_le_bytes());
        buf[24..24 + LINE_SIZE].copy_from_slice(&entry.data);

        // One write-combined store: the log lines below `counted_until`
        // were counted by earlier appends, the rest count now.
        let addr = self.entry_addr(self.head);
        let counted = self.entry_addr(self.counted_until * LINE_SIZE as u64);
        let mut cycles = machine.persist_combined(addr, &buf, counted, WriteClass::Log);
        self.head += ENTRY_BYTES;
        self.entries_appended += 1;
        self.counted_until = self.head.div_ceil(LINE_SIZE as u64);
        if cycles == 0 {
            // Entirely coalesced into an already-counted line; charge the
            // buffered-write cost only.
            cycles = machine.persist_share(machine.array_cycles(MemKind::Nvram, AccessKind::Write));
        }
        cycles
    }

    /// Reads all live entries (oldest first).
    pub fn read_all(&self, machine: &Machine) -> Vec<LogEntry> {
        let mut out = Vec::with_capacity(self.len());
        let mut offset = 0;
        while offset + ENTRY_BYTES <= self.head {
            let mut buf = [0u8; ENTRY_BYTES as usize];
            machine.read_bytes_uncached(self.entry_addr(offset), &mut buf);
            let tid = u64::from_le_bytes(buf[0..8].try_into().unwrap());
            let paddr = PhysAddr::new(u64::from_le_bytes(buf[8..16].try_into().unwrap()));
            let vaddr = VirtAddr::new(u64::from_le_bytes(buf[16..24].try_into().unwrap()));
            let mut data = [0u8; LINE_SIZE];
            data.copy_from_slice(&buf[24..24 + LINE_SIZE]);
            out.push(LogEntry {
                tid,
                paddr,
                vaddr,
                data,
            });
            offset += ENTRY_BYTES;
        }
        out
    }

    /// Truncates the log (volatile — validity is determined by the commit
    /// register, see [`CommitRegister`]).
    pub fn truncate(&mut self) {
        self.head = 0;
        self.counted_until = 0;
    }

    /// Persists the current head so recovery knows the extent of valid
    /// entries. One 8-byte persist (one line write).
    pub fn persist_head(&mut self, machine: &mut Machine, core: Option<CoreId>) {
        machine.persist_bytes(
            core,
            self.head_addr(),
            &self.head.to_le_bytes(),
            WriteClass::Log,
        );
    }

    /// Re-reads the persisted head after a crash.
    pub fn recover(&mut self, machine: &Machine) {
        let mut buf = [0u8; 8];
        machine.read_bytes_uncached(self.head_addr(), &mut buf);
        self.head = u64::from_le_bytes(buf);
        self.counted_until = 0;
    }

    fn head_addr(&self) -> PhysAddr {
        self.layout
            .header_addr(HDR_BASE + self.core as u64 * HDR_STRIDE)
    }

    fn entry_addr(&self, offset: u64) -> PhysAddr {
        debug_assert!(offset < PER_CORE_LOG_BYTES);
        self.layout
            .log_addr(self.core as u64 * PER_CORE_LOG_BYTES + offset)
    }
}

/// A per-core persisted "last committed transaction" register — the commit
/// point of the logging designs.
#[derive(Debug, Clone)]
pub struct CommitRegister {
    layout: NvLayout,
    core: usize,
    value: u64,
}

impl CommitRegister {
    /// Opens core `core`'s commit register.
    pub fn new(layout: NvLayout, core: usize) -> Self {
        Self {
            layout,
            core,
            value: 0,
        }
    }

    /// The last committed transaction id.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Persists `tid` as committed (the 8-byte atomic commit record).
    /// Returns after charging the persist to `core` if given.
    pub fn commit(&mut self, machine: &mut Machine, core: Option<CoreId>, tid: u64) {
        self.value = tid;
        machine.persist_bytes(core, self.addr(), &tid.to_le_bytes(), WriteClass::Log);
    }

    /// Re-reads the register after a crash.
    pub fn recover(&mut self, machine: &Machine) {
        let mut buf = [0u8; 8];
        machine.read_bytes_uncached(self.addr(), &mut buf);
        self.value = u64::from_le_bytes(buf);
    }

    fn addr(&self) -> PhysAddr {
        self.layout
            .header_addr(HDR_BASE + self.core as u64 * HDR_STRIDE + 8)
    }
}

/// One core's durable transaction record: its log area and the commit
/// register that says which of the log's transactions count.
#[derive(Debug, Clone)]
pub struct CoreJournal {
    /// The log area.
    pub log: CoreLog,
    /// The "last committed transaction" register.
    pub commit: CommitRegister,
}

impl CoreJournal {
    /// One journal per core of a `cores`-core machine.
    pub fn per_core(layout: NvLayout, cores: usize) -> Vec<Self> {
        (0..cores)
            .map(|core| Self {
                log: CoreLog::new(layout, core),
                commit: CommitRegister::new(layout, core),
            })
            .collect()
    }

    /// The per-core recovery step every logging engine starts from:
    /// re-reads the persisted head and commit register, and returns the
    /// last committed transaction id with the entries that were live at
    /// the crash (oldest first). `max_tid` is raised to the largest id
    /// either names, and the log is left truncated — what the caller
    /// replays or rolls back is in the returned entries.
    pub fn recover(&mut self, machine: &Machine, max_tid: &mut u64) -> (u64, Vec<LogEntry>) {
        self.log.recover(machine);
        self.commit.recover(machine);
        let committed = self.commit.get();
        let entries = self.log.read_all(machine);
        self.log.truncate();
        let seen = entries.iter().map(|e| e.tid).max().unwrap_or(0);
        *max_tid = (*max_tid).max(committed).max(seen);
        (committed, entries)
    }
}

/// What the shell's id allocator and [`CoreJournal::recover`] guarantee
/// together, checked for each logging engine from its own test module
/// (`open_tid` reads the open transaction's id through the engine's
/// shell): the first id issued after a recovery exceeds every id issued
/// before it that left a trace in NVRAM — committed ones through the
/// commit register, and a transaction torn inside `commit` through the log
/// records it persisted, which stay in the log area under its id after
/// the roll-back. (An id that never reached NVRAM — REDO's and SHADOW's
/// open transaction at a plain power cut — may be issued again: nothing
/// can confuse it with its first use. SSP's ids restart at 1 after every
/// recovery, which is not harmless; that is ROADMAP item 1(iii).)
#[cfg(test)]
pub(crate) fn assert_tids_resume_above_every_durable_one<E: ssp_txn::engine::TxnEngine>(
    engine: &mut E,
    open_tid: impl Fn(&E) -> u64,
) {
    use ssp_simulator::fault::{CrashPoint, FaultSite};
    let core = CoreId::new(0);
    let addr = engine.map_new_page(core).base();
    let mut issued = Vec::new();
    for value in 1..=3u64 {
        engine.begin(core);
        issued.push(open_tid(engine));
        engine.store(core, addr, &value.to_le_bytes());
        engine.commit(core);
    }
    // Cut after the log is durable, before the commit register moves.
    engine.machine_mut().arm_crash(CrashPoint::AtSite {
        site: FaultSite::CommitData,
        hits: 1,
    });
    engine.begin(core);
    issued.push(open_tid(engine));
    engine.store(core, addr, &4u64.to_le_bytes());
    engine.commit(core);
    assert!(engine.machine().power_lost());
    engine.crash_and_recover();

    engine.begin(core);
    let first = open_tid(engine);
    assert!(
        issued.iter().all(|&tid| tid < first),
        "{}: id {first} issued after recovery, {issued:?} before it",
        engine.name()
    );
    // The reissue-proof id commits, and the torn transaction stayed out.
    let mut buf = [0u8; 8];
    engine.load(core, addr, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 3);
    engine.store(core, addr, &5u64.to_le_bytes());
    engine.commit(core);
    engine.crash_and_recover();
    engine.load(core, addr, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 5);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_simulator::config::MachineConfig;

    fn setup() -> (Machine, CoreLog) {
        (
            Machine::new(MachineConfig::default()),
            CoreLog::new(NvLayout::default(), 0),
        )
    }

    fn entry(tid: u64, seed: u8) -> LogEntry {
        LogEntry {
            tid,
            paddr: PhysAddr::new(0x1000 + seed as u64 * 64),
            vaddr: VirtAddr::new(0x2000 + seed as u64 * 64),
            data: [seed; LINE_SIZE],
        }
    }

    #[test]
    fn append_read_round_trip() {
        let (mut m, mut log) = setup();
        log.append(&mut m, &entry(1, 0x11));
        log.append(&mut m, &entry(1, 0x22));
        let all = log.read_all(&m);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], entry(1, 0x11));
        assert_eq!(all[1], entry(1, 0x22));
    }

    #[test]
    fn coalesced_write_counting() {
        let (mut m, mut log) = setup();
        // 10 entries x 88 B = 880 B -> ceil(880/64) = 14 line writes, not
        // 10 x 2 = 20.
        for i in 0..10 {
            log.append(&mut m, &entry(1, i));
        }
        assert_eq!(m.stats().nvram_writes(WriteClass::Log), 14);
    }

    #[test]
    fn head_and_entries_survive_crash() {
        let (mut m, mut log) = setup();
        log.append(&mut m, &entry(9, 0x33));
        log.persist_head(&mut m, None);
        m.crash();
        let mut log2 = CoreLog::new(NvLayout::default(), 0);
        log2.recover(&m);
        assert_eq!(log2.len(), 1);
        assert_eq!(log2.read_all(&m)[0].tid, 9);
    }

    #[test]
    fn unpersisted_head_hides_entries() {
        let (mut m, mut log) = setup();
        log.append(&mut m, &entry(9, 0x44));
        // head never persisted
        m.crash();
        let mut log2 = CoreLog::new(NvLayout::default(), 0);
        log2.recover(&m);
        assert!(log2.is_empty());
    }

    #[test]
    fn per_core_logs_are_disjoint() {
        let (mut m, mut log0) = setup();
        let mut log1 = CoreLog::new(NvLayout::default(), 1);
        log0.append(&mut m, &entry(1, 0x55));
        log1.append(&mut m, &entry(2, 0x66));
        assert_eq!(log0.read_all(&m)[0].tid, 1);
        assert_eq!(log1.read_all(&m)[0].tid, 2);
    }

    #[test]
    fn commit_register_round_trip() {
        let mut m = Machine::new(MachineConfig::default());
        let mut reg = CommitRegister::new(NvLayout::default(), 0);
        reg.commit(&mut m, None, 42);
        m.crash();
        let mut reg2 = CommitRegister::new(NvLayout::default(), 0);
        reg2.recover(&m);
        assert_eq!(reg2.get(), 42);
    }

    #[test]
    fn journal_recovery_returns_the_live_entries_and_the_largest_tid() {
        let mut m = Machine::new(MachineConfig::default());
        let mut journals = CoreJournal::per_core(NvLayout::default(), 2);
        let j = &mut journals[1];
        j.commit.commit(&mut m, None, 7);
        j.log.append(&mut m, &entry(8, 0x11));
        j.log.append(&mut m, &entry(9, 0x22));
        j.log.persist_head(&mut m, None);
        m.crash();
        let mut fresh = CoreJournal::per_core(NvLayout::default(), 2);
        let mut max_tid = 3;
        let (committed, entries) = fresh[1].recover(&m, &mut max_tid);
        assert_eq!(committed, 7);
        assert_eq!(entries, [entry(8, 0x11), entry(9, 0x22)]);
        assert_eq!(max_tid, 9);
        assert!(fresh[1].log.is_empty(), "recovery leaves the log truncated");
        // The other core's journal is untouched and raises nothing.
        let (committed, entries) = fresh[0].recover(&m, &mut max_tid);
        assert_eq!((committed, entries.len(), max_tid), (0, 0, 9));
    }

    #[test]
    fn truncate_resets_coalescing() {
        let (mut m, mut log) = setup();
        log.append(&mut m, &entry(1, 1));
        log.truncate();
        let before = m.stats().nvram_writes(WriteClass::Log);
        log.append(&mut m, &entry(2, 2));
        // After truncation the first log lines are rewritten and counted
        // again.
        assert!(m.stats().nvram_writes(WriteClass::Log) > before);
    }
}
