//! UNDO-LOG: hardware undo logging (the paper's first baseline).
//!
//! Every `ATOMIC_STORE` that touches a line for the first time in a
//! transaction persists an undo record (the line's pre-image) and **blocks
//! until the record reaches NVRAM** — the defining cost of undo logging.
//! Updates then proceed in place. A log buffer suppresses redundant
//! entries for repeatedly-updated lines, as in the paper's tuned baseline.
//!
//! Commit: flush the write-set lines, persist the 8-byte commit register.
//! Recovery: entries of the (single, per-core) uncommitted transaction are
//! applied in reverse.

use ssp_simulator::addr::{PhysAddr, VirtAddr, Vpn, LINE_SIZE};
use ssp_simulator::cache::{CoreId, TxEviction};
use ssp_simulator::config::MachineConfig;
use ssp_simulator::fault::FaultSite;
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::ObsKind;
use ssp_simulator::stats::WriteClass;
use ssp_simulator::tlb::Tlb;
use ssp_txn::engine::{line_spans, PageBitmaps, TxnEngine, TxnStats, WriteSetTracker};
use ssp_txn::vm::{NvLayout, VmManager};

use crate::common::{blocking_persist_cycles, CommitRegister, CoreLog, LogEntry};

/// Per-core open-transaction marker. The logged-line set and write-set
/// tracker live in per-core engine fields, reused across transactions so
/// the steady state allocates nothing.
#[derive(Debug, Clone)]
struct OpenTxn {
    tid: u64,
}

/// The hardware undo-logging engine.
///
/// # Examples
///
/// ```
/// use ssp_baselines::UndoLog;
/// use ssp_simulator::cache::CoreId;
/// use ssp_simulator::config::MachineConfig;
/// use ssp_txn::engine::TxnEngine;
///
/// let mut e = UndoLog::new(MachineConfig::default());
/// let core = CoreId::new(0);
/// let addr = e.map_new_page(core).base();
/// e.begin(core);
/// e.store(core, addr, &7u64.to_le_bytes());
/// e.commit(core);
/// e.crash_and_recover();
/// let mut buf = [0u8; 8];
/// e.load(core, addr, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 7);
/// ```
#[derive(Debug, Clone)]
pub struct UndoLog {
    machine: Machine,
    vm: VmManager,
    tlbs: Vec<Tlb<()>>,
    logs: Vec<CoreLog>,
    commits: Vec<CommitRegister>,
    open: Vec<Option<OpenTxn>>,
    /// Per-core physical lines already logged this transaction (cleared,
    /// capacity kept, at commit/abort); iterates in address order, which
    /// is the order commit flushes them in.
    logged: Vec<PageBitmaps>,
    /// Per-core write-set trackers, reused across transactions.
    trackers: Vec<WriteSetTracker>,
    stats: TxnStats,
    next_tid: u64,
}

impl UndoLog {
    /// Builds an undo-logging machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let layout = NvLayout::default();
        let cores = cfg.cores;
        Self {
            machine: Machine::new(cfg.clone()),
            vm: VmManager::new(layout),
            tlbs: (0..cores).map(|_| Tlb::new(cfg.dtlb_entries)).collect(),
            logs: (0..cores).map(|c| CoreLog::new(layout, c)).collect(),
            commits: (0..cores).map(|c| CommitRegister::new(layout, c)).collect(),
            open: (0..cores).map(|_| None).collect(),
            logged: (0..cores).map(|_| PageBitmaps::new()).collect(),
            trackers: (0..cores).map(|_| WriteSetTracker::new()).collect(),
            stats: TxnStats::default(),
            next_tid: 1,
        }
    }

    /// Undo log entries written so far (for Figure 6).
    pub fn log_entries(&self) -> u64 {
        self.logs.iter().map(CoreLog::entries_appended).sum()
    }

    fn translate(&mut self, core: CoreId, vpn: Vpn) -> PhysAddr {
        // Mappings never change under this engine, so a TLB entry is
        // always current.
        if let Some(entry) = self.tlbs[core.index()].lookup(vpn) {
            return entry.ppn.base();
        }
        let ppn = self
            .vm
            .translate(vpn)
            .unwrap_or_else(|| panic!("access to unmapped page {vpn}"));
        self.machine.record_tlb_miss(core);
        let _ = self.tlbs[core.index()].insert(vpn, ppn, ());
        ppn.base()
    }

    fn paddr_of(&mut self, core: CoreId, addr: VirtAddr) -> PhysAddr {
        let base = self.translate(core, addr.vpn());
        PhysAddr::new(base.raw() + addr.page_offset() as u64)
    }

    /// In-place update writes can always go home: the undo record protects
    /// them.
    fn handle_tx_evictions(&mut self, evictions: Vec<TxEviction>) {
        for ev in evictions {
            self.machine
                .persist_bytes(None, ev.line, &ev.data, WriteClass::Data);
        }
    }

    fn store_line(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        let paddr = self.paddr_of(core, addr);
        let line_base = paddr.line_base();
        let tid = self.open[core.index()].as_ref().expect("open txn").tid;
        let needs_log =
            self.logged[core.index()].insert(line_base.ppn().raw(), line_base.line_index().raw());
        if needs_log {
            // Read the pre-image (through the cache: it may be dirty).
            let mut old = [0u8; LINE_SIZE];
            let r = self.machine.read(core, line_base, &mut old);
            self.handle_tx_evictions(r.tx_evictions);
            let mut entry_data = [0u8; LINE_SIZE];
            entry_data.copy_from_slice(&old);
            let entry = LogEntry {
                tid,
                paddr: line_base,
                vaddr: addr.line_base(),
                data: entry_data,
            };
            let _ = self.logs[core.index()].append(&mut self.machine, &entry);
            self.logs[core.index()].persist_head(&mut self.machine, None);
            // The store blocks until the record is durable: charge the full
            // (un-overlapped) persist latency.
            let stall = blocking_persist_cycles(&self.machine);
            self.machine.add_cycles(core, stall);
        }
        let r = self.machine.write(core, paddr, data, false);
        self.handle_tx_evictions(r.tx_evictions);
    }
}

impl TxnEngine for UndoLog {
    fn name(&self) -> &'static str {
        "UNDO-LOG"
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        self.vm.map_new_page(&mut self.machine, core)
    }

    fn begin(&mut self, core: CoreId) {
        assert!(
            self.open[core.index()].is_none(),
            "{core} already has an open transaction"
        );
        let tid = self.next_tid;
        self.next_tid += 1;
        self.open[core.index()] = Some(OpenTxn { tid });
        self.machine.add_cycles(core, 10);
        self.machine.obs_record(ObsKind::TxnBegin, tid);
    }

    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        self.stats.loads += 1;
        self.machine.obs_record(ObsKind::ReadSpan, addr.raw());
        for span in line_spans(addr, buf.len()) {
            let paddr = self.paddr_of(core, span.addr);
            let r = self.machine.read(
                core,
                paddr,
                &mut buf[span.buf_offset..span.buf_offset + span.len],
            );
            self.handle_tx_evictions(r.tx_evictions);
        }
    }

    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        assert!(
            self.open[core.index()].is_some(),
            "ATOMIC_STORE outside a transaction on {core}"
        );
        self.stats.stores += 1;
        self.machine.obs_record(ObsKind::WriteSpan, addr.raw());
        self.trackers[core.index()].record(addr, data.len());
        for span in line_spans(addr, data.len()) {
            self.store_line(
                core,
                span.addr,
                &data[span.buf_offset..span.buf_offset + span.len],
            );
        }
    }

    fn commit(&mut self, core: CoreId) {
        let txn = self.open[core.index()]
            .take()
            .unwrap_or_else(|| panic!("commit without an open transaction on {core}"));
        self.machine.obs_record(ObsKind::Validate, txn.tid);
        // Flush the write set so the new values are durable, in address
        // order: flush order reaches the row-buffer model (determinism
        // contract of `TxnEngine`).
        for line in self.logged[core.index()].line_addrs() {
            self.machine
                .flush(Some(core), PhysAddr::new(line), WriteClass::Data);
        }
        self.logged[core.index()].clear();
        // Fault site: data durable, commit register not yet bumped — a
        // cut here must roll the transaction back on recovery.
        self.machine.fault_point(FaultSite::CommitData);
        // Atomic commit point.
        self.commits[core.index()].commit(&mut self.machine, Some(core), txn.tid);
        // Fault site: the commit register is durable — a cut here must
        // keep the transaction.
        self.machine.fault_point(FaultSite::CommitMark);
        // The log space can be reused.
        self.logs[core.index()].truncate();
        self.trackers[core.index()].fold_commit(&mut self.stats);
        self.machine.obs_record(ObsKind::Commit, txn.tid);
    }

    fn abort(&mut self, core: CoreId) {
        let txn = self.open[core.index()]
            .take()
            .unwrap_or_else(|| panic!("abort without an open transaction on {core}"));
        self.machine.obs_record(ObsKind::Abort, txn.tid);
        // Apply undo images in reverse.
        let entries = self.logs[core.index()].read_all(&self.machine);
        for entry in entries.iter().rev() {
            if entry.tid == txn.tid {
                let r = self.machine.write(core, entry.paddr, &entry.data, false);
                self.handle_tx_evictions(r.tx_evictions);
            }
        }
        self.logs[core.index()].truncate();
        self.logged[core.index()].clear();
        self.trackers[core.index()].fold_abort(&mut self.stats);
    }

    fn crash(&mut self) {
        self.machine.crash();
        for tlb in &mut self.tlbs {
            let _ = tlb.drain();
        }
        for o in &mut self.open {
            *o = None;
        }
        for l in &mut self.logged {
            l.clear();
        }
        for t in &mut self.trackers {
            t.clear();
        }
    }

    fn recover(&mut self) {
        self.machine.obs_record(ObsKind::RecoveryReplay, 0);
        self.vm.recover(&self.machine);
        let mut max_tid = 0;
        let mut per_core: Vec<(u64, Vec<LogEntry>)> = Vec::new();
        for c in 0..self.logs.len() {
            self.logs[c].recover(&self.machine);
            self.commits[c].recover(&self.machine);
            let committed = self.commits[c].get();
            max_tid = max_tid.max(committed);
            per_core.push((committed, self.logs[c].read_all(&self.machine)));
        }
        // Fault site: logs and commit registers read, nothing rolled back
        // yet — a crash *during recovery*; rerunning recovery must
        // succeed (undo replay is idempotent).
        self.machine.fault_point(FaultSite::Recovery);
        for (committed, entries) in &per_core {
            // Roll back the (single) uncommitted transaction: its entries
            // are exactly those with tid > the core's commit register.
            for entry in entries.iter().rev() {
                max_tid = max_tid.max(entry.tid);
                if entry.tid > *committed {
                    self.machine
                        .persist_bytes(None, entry.paddr, &entry.data, WriteClass::Data);
                }
            }
        }
        for log in &mut self.logs {
            log.truncate();
        }
        self.next_tid = max_tid + 1;
    }

    fn in_txn(&self, core: CoreId) -> bool {
        self.open[core.index()].is_some()
    }

    fn txn_stats(&self) -> &TxnStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId::new(0);

    fn engine() -> UndoLog {
        UndoLog::new(MachineConfig::default())
    }

    fn read_u64(e: &mut UndoLog, addr: VirtAddr) -> u64 {
        let mut buf = [0u8; 8];
        e.load(C0, addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    #[test]
    fn committed_survives_crash() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &5u64.to_le_bytes());
        e.commit(C0);
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, addr), 5);
    }

    #[test]
    fn uncommitted_rolls_back_on_crash() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &1u64.to_le_bytes());
        e.commit(C0);
        e.begin(C0);
        e.store(C0, addr, &2u64.to_le_bytes());
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, addr), 1);
    }

    #[test]
    fn abort_restores_pre_images() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &10u64.to_le_bytes());
        e.commit(C0);
        e.begin(C0);
        e.store(C0, addr, &20u64.to_le_bytes());
        e.abort(C0);
        assert_eq!(read_u64(&mut e, addr), 10);
    }

    #[test]
    fn one_log_entry_per_line_despite_repeated_writes() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        for i in 0..10u64 {
            e.store(C0, addr, &i.to_le_bytes());
        }
        e.commit(C0);
        assert_eq!(e.log_entries(), 1);
    }

    #[test]
    fn log_and_data_writes_both_counted() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        for i in 0..4u64 {
            e.store(C0, addr.add(i * 64), &i.to_le_bytes());
        }
        e.commit(C0);
        let s = e.machine().stats();
        // 4 undo entries (88 B each, coalesced) + head + commit register.
        assert!(s.nvram_writes(WriteClass::Log) >= 6);
        assert!(s.nvram_writes(WriteClass::Data) >= 4);
    }

    #[test]
    fn stores_block_on_log_persist() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        let before = e.machine().cycles(C0);
        e.store(C0, addr, &1u64.to_le_bytes());
        let delta = e.machine().cycles(C0) - before;
        // At least the full 200 ns NVRAM write (740 cycles at 3.7 GHz).
        assert!(delta >= 740, "store stalled only {delta} cycles");
    }

    #[test]
    fn multi_page_atomicity() {
        let mut e = engine();
        let a = e.map_new_page(C0).base();
        let b = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, a, &1u64.to_le_bytes());
        e.store(C0, b, &2u64.to_le_bytes());
        e.commit(C0);
        e.begin(C0);
        e.store(C0, a, &3u64.to_le_bytes());
        e.store(C0, b, &4u64.to_le_bytes());
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, a), 1);
        assert_eq!(read_u64(&mut e, b), 2);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &9u64.to_le_bytes());
        e.commit(C0);
        e.crash_and_recover();
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, addr), 9);
    }
}
