//! REDO-LOG: hardware redo logging (DHTM-like, the paper's strongest
//! baseline).
//!
//! Transactional stores stay speculative in the cache (TX lines never
//! write home before commit). A coalescing log buffer predicts each line's
//! final value, so commit persists **one** redo entry per distinct line
//! plus the 8-byte commit register — that is the critical-path cost.
//! The in-place data write-back then *drains after commit*, overlapping
//! the non-transactional code that follows; only a subsequent commit on
//! the same core may have to wait for the drain (the paper's observation
//! that committing redundant writes still delays dependent transactions).

use fxhash::FxHashMap;
use ssp_simulator::addr::{PhysAddr, VirtAddr, Vpn, LINE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_simulator::fault::FaultSite;
use ssp_simulator::machine::Machine;
use ssp_simulator::stats::WriteClass;
use ssp_simulator::timing::{AccessKind, MemKind};
use ssp_txn::engine::{line_spans, sorted_scratch, TxnEngine, TxnStats};
use ssp_txn::shell::TxnShell;

use crate::common::{CoreJournal, LogEntry};

/// The hardware redo-logging engine.
///
/// # Examples
///
/// ```
/// use ssp_baselines::RedoLog;
/// use ssp_simulator::cache::CoreId;
/// use ssp_simulator::config::MachineConfig;
/// use ssp_txn::engine::TxnEngine;
///
/// let mut e = RedoLog::new(MachineConfig::default());
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
pub struct RedoLog {
    shell: TxnShell,
    journals: Vec<CoreJournal>,
    /// Per-core write-set lines (physical line base → virtual line base),
    /// cleared (capacity kept) at commit/abort.
    lines: Vec<FxHashMap<u64, u64>>,
    /// Per-core TX lines evicted from the cache mid-transaction
    /// (line base → data).
    overflow: Vec<FxHashMap<u64, [u8; LINE_SIZE]>>,
    /// Reusable commit scratch: the write-set lines sorted for draining.
    scratch_lines: Vec<(u64, u64)>,
    /// Per-core absolute cycle time until which the post-commit data drain
    /// occupies the persist path.
    drain_until: Vec<u64>,
}

impl RedoLog {
    /// Builds a redo-logging machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut shell = TxnShell::new(cfg);
        // The one engine whose speculative lines must not reach home
        // before commit: spills wait for `stash_spills`.
        shell.machine.hold_tx_spills();
        let cores = shell.cores();
        Self {
            journals: CoreJournal::per_core(shell.layout(), cores),
            lines: vec![FxHashMap::default(); cores],
            overflow: vec![FxHashMap::default(); cores],
            scratch_lines: Vec::new(),
            drain_until: vec![0; cores],
            shell,
        }
    }

    /// Redo log entries written so far (for Figure 6).
    pub fn log_entries(&self) -> u64 {
        self.journals.iter().map(|j| j.log.entries_appended()).sum()
    }

    /// Moves the TX lines `core`'s last access pushed out of the hierarchy
    /// into its overflow buffer (DHTM spills such lines to the log — the
    /// log entry is written at commit from the coalesced final value
    /// anyway). Called after every `read`/`write`; the machine asserts it.
    #[inline]
    fn stash_spills(&mut self, core: CoreId) {
        for ev in self.shell.machine.drain_tx_spills() {
            assert!(
                !self.lines[core.index()].is_empty(),
                "TX eviction outside a transaction"
            );
            self.overflow[core.index()].insert(ev.line.line_base().raw(), ev.data);
        }
    }

    fn store_line(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        let paddr = self.shell.paddr_of(core, addr);
        let line = paddr.line_base();
        self.lines[core.index()].insert(line.raw(), addr.line_base().raw());
        // If this line previously overflowed, restore it into the cache
        // first so the patch lands on the full speculative image.
        let overflowed = self.overflow[core.index()].get(&line.raw()).copied();
        if let Some(image) = overflowed {
            self.shell.machine.write(core, line, &image, true);
            self.stash_spills(core);
            self.overflow[core.index()].remove(&line.raw());
        }
        self.shell.machine.write(core, paddr, data, true);
        self.stash_spills(core);
    }

    /// Reads the current speculative image of a write-set line.
    fn line_image(&mut self, core: CoreId, line: PhysAddr) -> [u8; LINE_SIZE] {
        if let Some(img) = self.overflow[core.index()].get(&line.raw()) {
            return *img;
        }
        let mut buf = [0u8; LINE_SIZE];
        self.shell.machine.read(core, line, &mut buf);
        // A read cannot evict the line it just fetched, but may displace
        // other TX lines.
        self.stash_spills(core);
        buf
    }
}

impl TxnEngine for RedoLog {
    fn name(&self) -> &'static str {
        "REDO-LOG"
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
            // Serve from the overflow buffer if the line spilled.
            if let Some(img) = self.overflow[core.index()].get(&paddr.line_base().raw()) {
                let off = paddr.line_offset();
                span.of_mut(buf).copy_from_slice(&img[off..off + span.len]);
                continue;
            }
            self.shell.machine.read(core, paddr, span.of_mut(buf));
            self.stash_spills(core);
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
        // Sorted: the map's hash order varies per instance, and drain
        // order reaches the row-buffer model (determinism contract). The
        // sort runs in an engine-owned scratch vector (no per-commit
        // allocation).
        let lines = sorted_scratch(
            &mut self.scratch_lines,
            self.lines[core.index()].iter().map(|(&p, &v)| (p, v)),
            |&(p, _)| p,
        );

        // An earlier transaction's data drain must finish before this
        // commit's log can persist (log order).
        let now = self.shell.machine.cycles(core);
        if self.drain_until[core.index()] > now {
            let wait = self.drain_until[core.index()] - now;
            self.shell.machine.add_cycles(core, wait);
        }

        // 1. Persist one coalesced redo entry per line (critical path,
        //    MLP-overlapped) plus the head pointer.
        for &(pline, vline) in &lines {
            let entry = LogEntry {
                tid,
                paddr: PhysAddr::new(pline),
                vaddr: VirtAddr::new(vline),
                data: self.line_image(core, PhysAddr::new(pline)),
            };
            let log = &mut self.journals[core.index()].log;
            let cycles = log.append(&mut self.shell.machine, &entry);
            let charged = self.shell.machine.persist_share(cycles);
            self.shell.machine.add_cycles(core, charged.max(1));
        }
        let machine = &mut self.shell.machine;
        let journal = &mut self.journals[core.index()];
        journal.log.persist_head(machine, Some(core));
        // Fault site: redo log durable, commit register not yet bumped —
        // a cut here must roll the transaction back on recovery.
        machine.fault_point(FaultSite::CommitData);

        // 2. Atomic commit point: the transaction is durable here.
        journal.commit.commit(machine, Some(core), tid);
        // Fault site: the commit register is durable — a cut here must
        // keep the transaction (redo replay finishes the data drain).
        machine.fault_point(FaultSite::CommitMark);

        // 3. Post-commit data drain: write the speculative lines home.
        //    Functionally now; latency-wise it only extends drain_until.
        let mut drain_cycles = 0u64;
        let line_write =
            machine.persist_share(machine.array_cycles(MemKind::Nvram, AccessKind::Write));
        for &(pline, _) in &lines {
            let line = PhysAddr::new(pline);
            if let Some(img) = self.overflow[core.index()].remove(&pline) {
                machine.persist_bytes(None, line, &img, WriteClass::Data);
                drain_cycles += line_write;
                continue;
            }
            machine.clear_tx(line);
            if machine.flush(None, line, WriteClass::Data) {
                drain_cycles += line_write;
            }
        }
        let start = self.drain_until[core.index()].max(machine.cycles(core));
        self.drain_until[core.index()] = start + drain_cycles;

        journal.log.truncate();
        self.scratch_lines = lines;
        self.lines[core.index()].clear();
        self.overflow[core.index()].clear();
        self.shell.finish_commit(core, tid);
    }

    fn abort(&mut self, core: CoreId) {
        self.shell.begin_abort(core);
        for (&pline, _) in self.lines[core.index()].iter() {
            // Speculative lines never reached home: dropping them restores
            // the committed state.
            self.shell.machine.discard_line(PhysAddr::new(pline));
        }
        self.lines[core.index()].clear();
        self.overflow[core.index()].clear();
        self.journals[core.index()].log.truncate();
        self.shell.finish_abort(core);
    }

    fn crash(&mut self) {
        self.shell.power_off();
        for l in &mut self.lines {
            l.clear();
        }
        for o in &mut self.overflow {
            o.clear();
        }
        self.drain_until.fill(0);
    }

    fn recover(&mut self) {
        self.shell.begin_recovery();
        let machine = &mut self.shell.machine;
        // Fault site: before any redo replay writes land — a crash
        // *during recovery*; rerunning recovery must succeed (redo
        // replay is idempotent).
        machine.fault_point(FaultSite::Recovery);
        let mut max_tid = 0;
        for journal in &mut self.journals {
            // Redo: replay entries of committed transactions (the last
            // commit may not have finished draining home).
            let (committed, entries) = journal.recover(machine, &mut max_tid);
            for entry in entries.iter().filter(|e| e.tid <= committed) {
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

    fn engine() -> RedoLog {
        RedoLog::new(MachineConfig::default())
    }

    fn read_u64(e: &mut RedoLog, addr: VirtAddr) -> u64 {
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
    fn uncommitted_vanishes_on_crash() {
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
    fn reads_see_speculative_values() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &3u64.to_le_bytes());
        assert_eq!(read_u64(&mut e, addr), 3);
        e.commit(C0);
    }

    #[test]
    fn abort_discards_speculation() {
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
    fn one_coalesced_entry_per_line() {
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
    fn stores_do_not_block_on_persist() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        let before = e.machine().cycles(C0);
        e.store(C0, addr.add(64), &1u64.to_le_bytes());
        let delta = e.machine().cycles(C0) - before;
        // Only cache-access latency; nowhere near an NVRAM write (740 cyc).
        assert!(delta < 600, "redo store stalled {delta} cycles");
    }

    #[test]
    fn drain_delays_next_commit_not_this_one() {
        let mut e = engine();
        let pages: Vec<VirtAddr> = (0..2).map(|_| e.map_new_page(C0).base()).collect();
        e.begin(C0);
        for i in 0..32u64 {
            e.store(C0, pages[0].add(i * 64), &i.to_le_bytes());
        }
        e.commit(C0);
        let drain0 = e.drain_until[0];
        assert!(drain0 > e.machine().cycles(C0) || drain0 > 0);
        // The next commit waits for the drain.
        e.begin(C0);
        e.store(C0, pages[1], &1u64.to_le_bytes());
        e.commit(C0);
        assert!(e.machine().cycles(C0) >= drain0);
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
    fn overflowed_tx_lines_never_reach_home_before_commit() {
        let cfg = MachineConfig::default();
        let mut e = RedoLog::new(cfg.clone());
        // Write many TX lines mapping to the same L1 set to force TX
        // evictions up through L3 — conservatively, write a lot of lines.
        let page_count = 40;
        let pages: Vec<VirtAddr> = (0..page_count).map(|_| e.map_new_page(C0).base()).collect();
        e.begin(C0);
        for (i, &p) in pages.iter().enumerate() {
            for l in 0..16u64 {
                e.store(C0, p.add(l * 64), &(i as u64 * 100 + l).to_le_bytes());
            }
        }
        // Before commit, crash: every update must vanish.
        e.crash_and_recover();
        for &p in &pages {
            assert_eq!(read_u64(&mut e, p), 0);
        }

        // At commit, an overflowed line drains home at the configured
        // NVRAM write latency, like a flushed one: a one-set, two-way L3
        // spills all but the last two of eight TX lines.
        let drain = |write_ns: f64| {
            let mut cfg = MachineConfig::default();
            cfg.nvram.write_ns = write_ns;
            (cfg.l3.size_bytes, cfg.l3.ways) = (2 * LINE_SIZE, 2);
            let mut e = RedoLog::new(cfg);
            let pages: Vec<VirtAddr> = (0..8).map(|_| e.map_new_page(C0).base()).collect();
            e.begin(C0);
            for &p in &pages {
                e.store(C0, p, &1u64.to_le_bytes());
            }
            assert_eq!(e.overflow[0].len(), 6, "overflowed lines");
            e.commit(C0);
            let m = e.machine();
            let line_write = m.persist_share(m.array_cycles(MemKind::Nvram, AccessKind::Write));
            let drain = e.drain_until[0] - m.cycles(C0);
            assert_eq!(drain, 8 * line_write, "write_ns {write_ns}");
            drain
        };
        assert_eq!(drain(400.0), 2 * drain(200.0));
    }

    #[test]
    fn recovery_replays_undrained_commits() {
        let mut e = engine();
        let addr = e.map_new_page(C0).base();
        e.begin(C0);
        e.store(C0, addr, &77u64.to_le_bytes());
        e.commit(C0);
        // Crash immediately after commit (drain may be incomplete in a
        // real machine; our functional write-home plus idempotent replay
        // must agree).
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, addr), 77);
        e.crash_and_recover();
        assert_eq!(read_u64(&mut e, addr), 77);
    }
}
