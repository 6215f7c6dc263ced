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
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_simulator::fault::FaultSite;
use ssp_simulator::machine::Machine;
use ssp_simulator::stats::WriteClass;
use ssp_simulator::timing::{AccessKind, MemKind};
use ssp_txn::engine::{line_spans, PageBitmaps, TxnEngine, TxnStats};
use ssp_txn::shell::TxnShell;

use crate::common::{CoreJournal, LogEntry};

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
    shell: TxnShell,
    journals: Vec<CoreJournal>,
    /// Per-core physical lines already logged this transaction (cleared,
    /// capacity kept, at commit/abort); iterates in address order, which
    /// is the order commit flushes them in.
    logged: Vec<PageBitmaps>,
}

impl UndoLog {
    /// Builds an undo-logging machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let shell = TxnShell::new(cfg);
        Self {
            journals: CoreJournal::per_core(shell.layout(), shell.cores()),
            logged: vec![PageBitmaps::new(); shell.cores()],
            shell,
        }
    }

    /// Undo log entries written so far (for Figure 6).
    pub fn log_entries(&self) -> u64 {
        self.journals.iter().map(|j| j.log.entries_appended()).sum()
    }

    /// In-place update under an undo record. (The lines are never marked
    /// TX: the record protects them, so the hierarchy may write them home
    /// whenever it likes.)
    fn store_line(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        let paddr = self.shell.paddr_of(core, addr);
        let line_base = paddr.line_base();
        let needs_log =
            self.logged[core.index()].insert(line_base.ppn().raw(), line_base.line_index().raw());
        if needs_log {
            // Read the pre-image (through the cache: it may be dirty).
            let mut old = [0u8; LINE_SIZE];
            self.shell.machine.read(core, line_base, &mut old);
            let entry = LogEntry {
                tid: self.shell.tid(core),
                paddr: line_base,
                vaddr: addr.line_base(),
                data: old,
            };
            let log = &mut self.journals[core.index()].log;
            let _ = log.append(&mut self.shell.machine, &entry);
            log.persist_head(&mut self.shell.machine, None);
            // The store blocks until the record is durable: charge the full
            // (un-overlapped) persist latency.
            let stall = self
                .shell
                .machine
                .array_cycles(MemKind::Nvram, AccessKind::Write);
            self.shell.machine.add_cycles(core, stall);
        }
        self.shell.machine.write(core, paddr, data, false);
    }
}

impl TxnEngine for UndoLog {
    fn name(&self) -> &'static str {
        "UNDO-LOG"
    }

    fn machine(&self) -> &Machine {
        &self.shell.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.shell.machine
    }

    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        self.shell.map_new_page(core)
    }

    fn begin(&mut self, core: CoreId) {
        self.shell.begin(core);
    }

    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        self.shell.on_load(addr);
        for span in line_spans(addr, buf.len()) {
            let paddr = self.shell.paddr_of(core, span.addr);
            self.shell.machine.read(core, paddr, span.of_mut(buf));
        }
    }

    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        self.shell.on_store(core, addr, data.len());
        for span in line_spans(addr, data.len()) {
            self.store_line(core, span.addr, span.of(data));
        }
    }

    fn commit(&mut self, core: CoreId) {
        let tid = self.shell.begin_commit(core);
        let machine = &mut self.shell.machine;
        // Flush the write set so the new values are durable, in address
        // order: flush order reaches the row-buffer model (determinism
        // contract of `TxnEngine`).
        for line in self.logged[core.index()].line_addrs() {
            machine.flush(Some(core), PhysAddr::new(line), WriteClass::Data);
        }
        self.logged[core.index()].clear();
        // Fault site: data durable, commit register not yet bumped — a
        // cut here must roll the transaction back on recovery.
        machine.fault_point(FaultSite::CommitData);
        // Atomic commit point.
        let journal = &mut self.journals[core.index()];
        journal.commit.commit(machine, Some(core), tid);
        // Fault site: the commit register is durable — a cut here must
        // keep the transaction.
        machine.fault_point(FaultSite::CommitMark);
        // The log space can be reused.
        journal.log.truncate();
        self.shell.finish_commit(core, tid);
    }

    fn abort(&mut self, core: CoreId) {
        let tid = self.shell.begin_abort(core);
        // Apply undo images in reverse.
        let log = &mut self.journals[core.index()].log;
        for entry in log.read_all(&self.shell.machine).iter().rev() {
            if entry.tid == tid {
                self.shell
                    .machine
                    .write(core, entry.paddr, &entry.data, false);
            }
        }
        log.truncate();
        self.logged[core.index()].clear();
        self.shell.finish_abort(core);
    }

    fn crash(&mut self) {
        self.shell.power_off();
        for l in &mut self.logged {
            l.clear();
        }
    }

    fn recover(&mut self) {
        self.shell.begin_recovery();
        let machine = &mut self.shell.machine;
        let mut max_tid = 0;
        let per_core: Vec<(u64, Vec<LogEntry>)> = self
            .journals
            .iter_mut()
            .map(|j| j.recover(machine, &mut max_tid))
            .collect();
        // Fault site: logs and commit registers read, nothing rolled back
        // yet — a crash *during recovery*; rerunning recovery must
        // succeed (undo replay is idempotent).
        machine.fault_point(FaultSite::Recovery);
        for (committed, entries) in &per_core {
            // Roll back the (single) uncommitted transaction: its entries
            // are exactly those with tid > the core's commit register.
            for entry in entries.iter().rev().filter(|e| e.tid > *committed) {
                machine.persist_bytes(None, entry.paddr, &entry.data, WriteClass::Data);
            }
        }
        self.shell.resume_tids_after(max_tid);
    }

    fn in_txn(&self, core: CoreId) -> bool {
        self.shell.in_txn(core)
    }

    fn txn_stats(&self) -> &TxnStats {
        &self.shell.stats
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
    fn first_tid_after_recovery_exceeds_every_durable_tid() {
        crate::common::assert_tids_resume_above_every_durable_one(&mut engine(), |e| {
            e.shell.tid(C0)
        });
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
