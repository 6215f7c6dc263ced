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
use ssp_simulator::cache::{CoreId, TxEviction};
use ssp_simulator::config::MachineConfig;
use ssp_simulator::fault::FaultSite;
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::ObsKind;
use ssp_simulator::stats::WriteClass;
use ssp_simulator::timing::{AccessKind, MemKind};
use ssp_simulator::tlb::Tlb;
use ssp_txn::engine::{line_spans, sorted_scratch, TxnEngine, TxnStats, WriteSetTracker};
use ssp_txn::vm::{NvLayout, VmManager};

use crate::common::{CommitRegister, CoreLog, LogEntry};

/// Per-core open-transaction marker. The write-set map, overflow buffer
/// and tracker live in per-core engine fields, reused across transactions
/// so the steady state allocates nothing.
#[derive(Debug, Clone)]
struct OpenTxn {
    tid: u64,
}

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
    machine: Machine,
    vm: VmManager,
    tlbs: Vec<Tlb<()>>,
    logs: Vec<CoreLog>,
    commits: Vec<CommitRegister>,
    open: Vec<Option<OpenTxn>>,
    /// Per-core write-set lines (physical line base → virtual line base),
    /// cleared (capacity kept) at commit/abort.
    lines: Vec<FxHashMap<u64, u64>>,
    /// Per-core TX lines evicted from the cache mid-transaction
    /// (line base → data).
    overflow: Vec<FxHashMap<u64, [u8; LINE_SIZE]>>,
    /// Per-core write-set trackers, reused across transactions.
    trackers: Vec<WriteSetTracker>,
    /// Reusable commit scratch: the write-set lines sorted for draining.
    scratch_lines: Vec<(u64, u64)>,
    /// Per-core absolute cycle time until which the post-commit data drain
    /// occupies the persist path.
    drain_until: Vec<u64>,
    stats: TxnStats,
    next_tid: u64,
}

impl RedoLog {
    /// Builds a redo-logging machine.
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
            lines: (0..cores).map(|_| FxHashMap::default()).collect(),
            overflow: (0..cores).map(|_| FxHashMap::default()).collect(),
            trackers: (0..cores).map(|_| WriteSetTracker::new()).collect(),
            scratch_lines: Vec::new(),
            drain_until: vec![0; cores],
            stats: TxnStats::default(),
            next_tid: 1,
        }
    }

    /// Redo log entries written so far (for Figure 6).
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

    /// An evicted TX line must not reach its home address before commit;
    /// stash its data in the owning transaction's overflow buffer (DHTM
    /// spills such lines to the log — the log entry is written at commit
    /// from the coalesced final value anyway).
    fn handle_tx_evictions(&mut self, core: CoreId, evictions: Vec<TxEviction>) {
        for ev in evictions {
            assert!(
                self.open[core.index()].is_some(),
                "TX eviction outside a transaction"
            );
            self.overflow[core.index()].insert(ev.line.line_base().raw(), ev.data);
        }
    }

    fn store_line(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        let paddr = self.paddr_of(core, addr);
        let line = paddr.line_base();
        // If this line previously overflowed, restore it into the cache
        // first so the patch lands on the full speculative image.
        debug_assert!(self.open[core.index()].is_some(), "open txn");
        let overflowed = self.overflow[core.index()].get(&line.raw()).copied();
        if let Some(image) = overflowed {
            let r = self.machine.write(core, line, &image, true);
            self.handle_tx_evictions(core, r.tx_evictions);
            self.overflow[core.index()].remove(&line.raw());
        }
        let r = self.machine.write(core, paddr, data, true);
        self.handle_tx_evictions(core, r.tx_evictions);
        self.lines[core.index()].insert(line.raw(), addr.line_base().raw());
    }

    /// Reads the current speculative image of a write-set line.
    fn line_image(&mut self, core: CoreId, line: PhysAddr) -> [u8; LINE_SIZE] {
        if let Some(img) = self.overflow[core.index()].get(&line.raw()) {
            return *img;
        }
        let mut buf = [0u8; LINE_SIZE];
        let r = self.machine.read(core, line, &mut buf);
        // A read cannot evict the line it just fetched, but may displace
        // other TX lines.
        self.handle_tx_evictions(core, r.tx_evictions);
        buf
    }
}

impl TxnEngine for RedoLog {
    fn name(&self) -> &'static str {
        "REDO-LOG"
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
            // Serve from the overflow buffer if the line spilled.
            let spilled = self.overflow[core.index()]
                .get(&paddr.line_base().raw())
                .copied();
            if let Some(img) = spilled {
                let off = paddr.line_offset();
                buf[span.buf_offset..span.buf_offset + span.len]
                    .copy_from_slice(&img[off..off + span.len]);
                continue;
            }
            let r = self.machine.read(
                core,
                paddr,
                &mut buf[span.buf_offset..span.buf_offset + span.len],
            );
            self.handle_tx_evictions(core, r.tx_evictions);
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
        let tid = self.open[core.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("commit without an open transaction on {core}"))
            .tid;
        self.machine.obs_record(ObsKind::Validate, tid);
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
        let now = self.machine.cycles(core);
        if self.drain_until[core.index()] > now {
            let wait = self.drain_until[core.index()] - now;
            self.machine.add_cycles(core, wait);
        }

        // 1. Persist one coalesced redo entry per line (critical path,
        //    MLP-overlapped) plus the head pointer.
        let mlp = self.machine.config().persist_mlp.max(1) as u64;
        for &(pline, vline) in &lines {
            let image = self.line_image(core, PhysAddr::new(pline));
            let entry = LogEntry {
                tid,
                paddr: PhysAddr::new(pline),
                vaddr: VirtAddr::new(vline),
                data: image,
            };
            let cycles = self.logs[core.index()].append(&mut self.machine, &entry);
            self.machine.add_cycles(core, (cycles / mlp).max(1));
        }
        self.logs[core.index()].persist_head(&mut self.machine, Some(core));
        // Fault site: redo log durable, commit register not yet bumped —
        // a cut here must roll the transaction back on recovery.
        self.machine.fault_point(FaultSite::CommitData);

        // 2. Atomic commit point: the transaction is durable here.
        self.commits[core.index()].commit(&mut self.machine, Some(core), tid);
        // Fault site: the commit register is durable — a cut here must
        // keep the transaction (redo replay finishes the data drain).
        self.machine.fault_point(FaultSite::CommitMark);

        // 3. Post-commit data drain: write the speculative lines home.
        //    Functionally now; latency-wise it only extends drain_until.
        let _txn = self.open[core.index()].take().expect("open txn");
        let mut drain_cycles = 0u64;
        for &(pline, _) in &lines {
            let line = PhysAddr::new(pline);
            if let Some(img) = self.overflow[core.index()].remove(&pline) {
                self.machine
                    .persist_bytes(None, line, &img, WriteClass::Data);
                drain_cycles += 740 / mlp;
                continue;
            }
            self.machine.clear_tx(line);
            if self.machine.flush(None, line, WriteClass::Data) {
                drain_cycles += self.machine.array_cycles(MemKind::Nvram, AccessKind::Write) / mlp;
            }
        }
        let start = self.drain_until[core.index()].max(self.machine.cycles(core));
        self.drain_until[core.index()] = start + drain_cycles;

        self.logs[core.index()].truncate();
        self.scratch_lines = lines;
        self.lines[core.index()].clear();
        self.overflow[core.index()].clear();
        self.trackers[core.index()].fold_commit(&mut self.stats);
        self.machine.obs_record(ObsKind::Commit, tid);
    }

    fn abort(&mut self, core: CoreId) {
        let txn = self.open[core.index()]
            .take()
            .unwrap_or_else(|| panic!("abort without an open transaction on {core}"));
        self.machine.obs_record(ObsKind::Abort, txn.tid);
        let lines = std::mem::take(&mut self.lines[core.index()]);
        for &pline in lines.keys() {
            // Speculative lines never reached home: dropping them restores
            // the committed state.
            self.machine.discard_line(PhysAddr::new(pline));
        }
        self.lines[core.index()] = lines;
        self.lines[core.index()].clear();
        self.overflow[core.index()].clear();
        self.logs[core.index()].truncate();
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
        for l in &mut self.lines {
            l.clear();
        }
        for o in &mut self.overflow {
            o.clear();
        }
        for t in &mut self.trackers {
            t.clear();
        }
        for d in &mut self.drain_until {
            *d = 0;
        }
    }

    fn recover(&mut self) {
        self.machine.obs_record(ObsKind::RecoveryReplay, 0);
        self.vm.recover(&self.machine);
        // Fault site: before any redo replay writes land — a crash
        // *during recovery*; rerunning recovery must succeed (redo
        // replay is idempotent).
        self.machine.fault_point(FaultSite::Recovery);
        let mut max_tid = 0;
        for c in 0..self.logs.len() {
            self.logs[c].recover(&self.machine);
            self.commits[c].recover(&self.machine);
            let committed = self.commits[c].get();
            max_tid = max_tid.max(committed);
            // Redo: replay entries of committed transactions (the last
            // commit may not have finished draining home).
            for entry in self.logs[c].read_all(&self.machine) {
                max_tid = max_tid.max(entry.tid);
                if entry.tid <= committed {
                    self.machine
                        .persist_bytes(None, entry.paddr, &entry.data, WriteClass::Data);
                }
            }
            self.logs[c].truncate();
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
