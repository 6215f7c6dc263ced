//! The transaction shell: everything an engine owns that is not its
//! durability mechanism.
//!
//! The paper compares four ways of making the *same* transaction durable,
//! so the machine, the page table, the per-core TLBs, which core has a
//! transaction open under which id, the Table 3 write-set trackers, the
//! [`TxnStats`] and the transaction-id allocator exist once, here, with the
//! behaviour around them: `ATOMIC_BEGIN`, the checks and bookkeeping in
//! front of every load and store, the TLB-hit-or-page-walk translation,
//! the commit/abort folds, the volatile half of a power failure and the id
//! allocator's resume after recovery. An engine is one `shell` field plus
//! its mechanism — how a line is stored, the commit protocol, abort and
//! recovery.
//!
//! Everything here is statically dispatched and small enough to inline;
//! the shell adds no indirection between [`TxnEngine::load`] and the L1.
//!
//! [`TxnEngine::load`]: crate::engine::TxnEngine::load

use ssp_simulator::addr::{PhysAddr, Ppn, VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::ObsKind;
use ssp_simulator::tlb::Tlb;

use crate::engine::{TxnStats, WriteSetTracker};
use crate::vm::{NvLayout, VmManager};

/// What a TLB miss did besides the page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbFill {
    /// The page whose translation the fill pushed out of the TLB, if it
    /// was full.
    pub evicted: Option<Vpn>,
}

/// The state and behaviour every engine shares (see the module docs).
///
/// The machine, page table, TLBs and statistics are public fields: an
/// engine's mechanism works on several of them at once (a page-table
/// update persists through the machine), which only disjoint field borrows
/// allow. The open-transaction table, the trackers and the id allocator
/// are private: the methods below keep them consistent with each other.
///
/// # Examples
///
/// ```
/// use ssp_simulator::cache::CoreId;
/// use ssp_simulator::config::MachineConfig;
/// use ssp_txn::shell::TxnShell;
///
/// let mut shell = TxnShell::new(MachineConfig::default());
/// let core = CoreId::new(0);
/// let page = shell.map_new_page(core);
/// let first = shell.begin(core);
/// shell.on_store(core, page.base(), 8);
/// assert_eq!(shell.begin_commit(core), first);
/// shell.finish_commit(core, first);
/// assert!(!shell.in_txn(core));
/// assert_eq!(shell.stats.lines_written_sum, 1);
/// assert!(shell.begin(core) > first);
/// ```
#[derive(Debug, Clone)]
pub struct TxnShell {
    /// The simulated machine.
    pub machine: Machine,
    /// The OS page table (persistent, mirrored in DRAM).
    pub vm: VmManager,
    /// One data TLB per core.
    pub tlbs: Vec<Tlb>,
    /// Aggregate transaction statistics.
    pub stats: TxnStats,
    /// Per core, the id of its open transaction.
    open: Vec<Option<u64>>,
    /// Per-core write-set trackers, reused across transactions (cleared,
    /// capacity kept, by the folds) so tracking allocates nothing.
    trackers: Vec<WriteSetTracker>,
    next_tid: u64,
}

impl TxnShell {
    /// Builds the machine `cfg` describes with an empty page table over
    /// the default NVRAM layout, cold TLBs and no transaction open.
    pub fn new(cfg: MachineConfig) -> Self {
        let cores = cfg.cores;
        Self {
            tlbs: (0..cores).map(|_| Tlb::new(cfg.dtlb_entries)).collect(),
            machine: Machine::new(cfg),
            vm: VmManager::new(NvLayout::default()),
            stats: TxnStats::default(),
            open: vec![None; cores],
            trackers: vec![WriteSetTracker::new(); cores],
            next_tid: 1,
        }
    }

    /// The NVRAM layout the page table was built over.
    pub fn layout(&self) -> NvLayout {
        *self.vm.layout()
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.open.len()
    }

    /// Maps a fresh persistent heap page ([`TxnEngine::map_new_page`]).
    ///
    /// [`TxnEngine::map_new_page`]: crate::engine::TxnEngine::map_new_page
    pub fn map_new_page(&mut self, core: CoreId) -> Vpn {
        self.vm.map_new_page(&mut self.machine, core)
    }

    /// `ATOMIC_BEGIN`: opens a transaction on `core` and returns its id.
    /// The instruction is a full barrier; a fence's worth of cycles is
    /// charged.
    ///
    /// # Panics
    ///
    /// Panics if `core` already has an open transaction.
    pub fn begin(&mut self, core: CoreId) -> u64 {
        assert!(
            self.open[core.index()].is_none(),
            "{core} already has an open transaction"
        );
        debug_assert!(
            self.trackers[core.index()].is_empty(),
            "tracker not folded by the previous transaction"
        );
        let tid = self.next_tid;
        self.next_tid += 1;
        self.open[core.index()] = Some(tid);
        self.machine.add_cycles(core, 10);
        self.machine.obs_record(ObsKind::TxnBegin, tid);
        tid
    }

    /// Whether `core` has an open transaction.
    pub fn in_txn(&self, core: CoreId) -> bool {
        self.open[core.index()].is_some()
    }

    /// The id of `core`'s open transaction.
    ///
    /// # Panics
    ///
    /// Panics if there is none (callers sit behind [`on_store`]'s check).
    ///
    /// [`on_store`]: Self::on_store
    pub fn tid(&self, core: CoreId) -> u64 {
        self.open[core.index()].expect("open txn")
    }

    /// The bookkeeping in front of every [`TxnEngine::load`].
    ///
    /// [`TxnEngine::load`]: crate::engine::TxnEngine::load
    #[inline]
    pub fn on_load(&mut self, addr: VirtAddr) {
        self.stats.loads += 1;
        self.machine.obs_record(ObsKind::ReadSpan, addr.raw());
    }

    /// The check and bookkeeping in front of every `ATOMIC_STORE` of `len`
    /// bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `core` has no open transaction.
    #[inline]
    pub fn on_store(&mut self, core: CoreId, addr: VirtAddr, len: usize) {
        assert!(
            self.in_txn(core),
            "ATOMIC_STORE outside a transaction on {core}"
        );
        self.stats.stores += 1;
        self.machine.obs_record(ObsKind::WriteSpan, addr.raw());
        self.trackers[core.index()].record(addr, len);
    }

    /// Translates `vpn` for `core`: a TLB hit, or a charged page walk that
    /// fills the TLB — in which case what the fill did is returned too, for
    /// the engine that reacts to it (SSP fetches its per-page metadata and
    /// consolidates the page the fill evicted).
    ///
    /// A TLB entry is trusted without consulting the page table, so an
    /// engine that repoints a mapped page must repoint the TLB entries
    /// with it (shadow paging's commit does).
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is not mapped.
    #[inline]
    pub fn walk(&mut self, core: CoreId, vpn: Vpn) -> (Ppn, Option<TlbFill>) {
        if let Some(entry) = self.tlbs[core.index()].lookup(vpn) {
            return (entry.ppn, None);
        }
        let ppn = self
            .vm
            .translate(vpn)
            .unwrap_or_else(|| panic!("access to unmapped page {vpn}"));
        self.machine.record_tlb_miss(core);
        let evicted = self.tlbs[core.index()].insert(vpn, ppn).map(|old| old.vpn);
        (ppn, Some(TlbFill { evicted }))
    }

    /// The physical address behind `addr` under the page table's mapping
    /// (see [`walk`](Self::walk)).
    #[inline]
    pub fn paddr_of(&mut self, core: CoreId, addr: VirtAddr) -> PhysAddr {
        let (ppn, _) = self.walk(core, addr.vpn());
        PhysAddr::new(ppn.base().raw() + addr.page_offset() as u64)
    }

    /// `ATOMIC_END`, first half: closes `core`'s transaction and returns
    /// its id; the engine's commit protocol runs next.
    ///
    /// # Panics
    ///
    /// Panics if `core` has no open transaction.
    pub fn begin_commit(&mut self, core: CoreId) -> u64 {
        let tid = self.close(core, "commit");
        self.machine.obs_record(ObsKind::Validate, tid);
        tid
    }

    /// `ATOMIC_END`, second half: the transaction is durable; folds its
    /// write set into the statistics.
    pub fn finish_commit(&mut self, core: CoreId, tid: u64) {
        self.trackers[core.index()].fold_commit(&mut self.stats);
        self.machine.obs_record(ObsKind::Commit, tid);
    }

    /// Abort, first half: closes `core`'s transaction and returns its id;
    /// the engine's roll-back runs next.
    ///
    /// # Panics
    ///
    /// Panics if `core` has no open transaction.
    pub fn begin_abort(&mut self, core: CoreId) -> u64 {
        let tid = self.close(core, "abort");
        self.machine.obs_record(ObsKind::Abort, tid);
        tid
    }

    /// Abort, second half: the roll-back is done; counts it and drops the
    /// tracked write set.
    pub fn finish_abort(&mut self, core: CoreId) {
        self.trackers[core.index()].fold_abort(&mut self.stats);
    }

    fn close(&mut self, core: CoreId, what: &str) -> u64 {
        self.open[core.index()]
            .take()
            .unwrap_or_else(|| panic!("{what} without an open transaction on {core}"))
    }

    /// The volatile half of a power failure: the machine loses its caches,
    /// DRAM and clocks, every TLB empties and every open transaction is
    /// forgotten without touching the statistics. The engine clears its
    /// own volatile state beside this call.
    pub fn power_off(&mut self) {
        self.machine.crash();
        for tlb in &mut self.tlbs {
            let _ = tlb.drain();
        }
        self.open.fill(None);
        for tracker in &mut self.trackers {
            tracker.clear();
        }
    }

    /// Recovery, first step for every engine: notes the replay in the
    /// trace and rebuilds the page-table mirror from NVRAM.
    pub fn begin_recovery(&mut self) {
        self.machine.obs_record(ObsKind::RecoveryReplay, 0);
        self.vm.recover(&self.machine);
    }

    /// Recovery, last step: ids resume above `max_tid`, the largest id the
    /// engine found in its persistent state.
    pub fn resume_tids_after(&mut self, max_tid: u64) {
        self.next_tid = max_tid + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId::new(0);
    const C1: CoreId = CoreId::new(1);

    fn shell() -> TxnShell {
        TxnShell::new(MachineConfig::default())
    }

    #[test]
    fn tids_are_unique_across_cores_and_resume_above_the_recovered_maximum() {
        let mut s = shell();
        let a = s.begin(C0);
        let b = s.begin(C1);
        assert!(b > a);
        assert_eq!((s.tid(C0), s.tid(C1)), (a, b));
        s.power_off();
        assert!(!s.in_txn(C0) && !s.in_txn(C1));
        s.begin_recovery();
        s.resume_tids_after(40);
        assert_eq!(s.begin(C0), 41);
    }

    #[test]
    fn walk_charges_one_page_walk_per_tlb_fill_and_reports_the_victim() {
        let cfg = MachineConfig {
            dtlb_entries: 2,
            ..MachineConfig::default()
        };
        let mut s = TxnShell::new(cfg);
        let pages: Vec<Vpn> = (0..3).map(|_| s.map_new_page(C0)).collect();
        let (ppn, fill) = s.walk(C0, pages[0]);
        assert_eq!(Some(ppn), s.vm.translate(pages[0]));
        assert_eq!(fill, Some(TlbFill { evicted: None }));
        assert_eq!(s.walk(C0, pages[0]), (ppn, None), "second touch hits");
        let _ = s.walk(C0, pages[1]);
        let (_, fill) = s.walk(C0, pages[2]);
        assert_eq!(
            fill,
            Some(TlbFill {
                evicted: Some(pages[0])
            })
        );
        assert_eq!(s.machine.stats().tlb_misses, 3);
        // Another core's TLB is its own.
        assert!(s.walk(C1, pages[2]).1.is_some());
        let addr = pages[1].base().add(100);
        assert_eq!(s.paddr_of(C0, addr), s.vm.translate_addr(addr).unwrap());
    }

    #[test]
    fn folds_count_the_tracked_write_set_once() {
        let mut s = shell();
        let page = s.map_new_page(C0).base();
        let tid = s.begin(C0);
        s.on_store(C0, page, 8);
        s.on_store(C0, page.add(60), 8); // crosses into a second line
        s.on_load(page);
        assert_eq!(s.begin_commit(C0), tid);
        s.finish_commit(C0, tid);
        assert_eq!((s.stats.stores, s.stats.loads), (2, 1));
        assert_eq!((s.stats.committed, s.stats.lines_written_sum), (1, 2));
        s.begin(C0);
        s.on_store(C0, page, 8);
        s.begin_abort(C0);
        s.finish_abort(C0);
        assert_eq!((s.stats.aborted, s.stats.lines_written_sum), (1, 2));
        // A crash drops the open transaction from the statistics entirely.
        s.begin(C0);
        s.on_store(C0, page, 8);
        s.power_off();
        s.begin(C0);
        s.begin_commit(C0);
        assert_eq!(s.stats.committed, 1, "finish_commit not called yet");
    }

    #[test]
    #[should_panic(expected = "abort without an open transaction on core0")]
    fn closing_what_is_not_open_names_the_operation_and_the_core() {
        shell().begin_abort(C0);
    }
}
