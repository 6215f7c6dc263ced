//! The simulated machine: cores, cache hierarchy, memory controller glue,
//! per-core cycle accounting, and the crash/power-cycle boundary.
//!
//! Transaction engines drive the machine through line-granularity physical
//! accesses; virtual→physical translation lives above (in the engines and
//! the [`Tlb`](crate::tlb::Tlb)) because SSP redirects translation per cache
//! line.

use std::ops::Range;

use crate::addr::{PhysAddr, LINE_SIZE, PAGE_SIZE};
use crate::cache::{AccessResult, CacheHierarchy, CoreId, LineOp, TxEviction};
use crate::config::MachineConfig;
use crate::fault::{CrashPoint, FaultSite, FaultState};
use crate::interconnect::{EpochCharge, LlcEvent, MemEvent};
use crate::obs::{ObsKind, ObsRing};
use crate::phys::{MemPort, PhysMem};
use crate::stats::{MachineStats, WriteClass};
use crate::timing::{AccessKind, MemKind};

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use ssp_simulator::addr::PhysAddr;
/// use ssp_simulator::cache::CoreId;
/// use ssp_simulator::config::MachineConfig;
/// use ssp_simulator::machine::Machine;
/// use ssp_simulator::phys::NVRAM_PPN_BASE;
/// use ssp_simulator::stats::WriteClass;
///
/// let mut m = Machine::new(MachineConfig::default());
/// let addr = PhysAddr::new(NVRAM_PPN_BASE * 4096);
/// m.write(CoreId::new(0), addr, &[1, 2, 3], false);
/// let mut buf = [0u8; 3];
/// m.read(CoreId::new(0), addr, &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    /// Memory, its timing model and the power-cut latch: every byte
    /// written to memory passes [`MemPort::write`].
    port: MemPort,
    cache: CacheHierarchy,
    stats: MachineStats,
    core_cycles: Vec<u64>,
    fault: FaultState,
    obs: ObsRing,
    /// Whether dirty TX lines that leave the hierarchy wait in the spill
    /// buffer for the engine (see [`Machine::hold_tx_spills`]) instead of
    /// being written home.
    hold_spills: bool,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let port = MemPort::new(&cfg);
        let cache = CacheHierarchy::new(&cfg);
        let core_cycles = vec![0; cfg.cores];
        let obs = ObsRing::new(&cfg.obs);
        Self {
            cfg,
            port,
            cache,
            stats: MachineStats::new(),
            core_cycles,
            fault: FaultState::default(),
            obs,
            hold_spills: false,
        }
    }

    /// Makes this machine keep dirty TX lines that leave the hierarchy in
    /// its spill buffer instead of writing them home. For the one kind of
    /// engine whose speculative lines must not reach their home address
    /// before commit (redo logging); it says so once, at construction, and
    /// from then on empties the buffer with [`Machine::drain_tx_spills`]
    /// after every access that can evict (`read`, `write`). A spill still
    /// in the buffer at the next access fails a `debug_assert!`.
    pub fn hold_tx_spills(&mut self) {
        self.hold_spills = true;
    }

    /// Hands out the held TX spills, oldest first, leaving the buffer empty
    /// (its capacity is kept). Always empty unless
    /// [`Machine::hold_tx_spills`] was called.
    #[inline]
    pub fn drain_tx_spills(&mut self) -> std::vec::Drain<'_, TxEviction> {
        self.cache.spills.drain(..)
    }

    /// Settles the dirty TX lines the operation that just finished pushed
    /// out of the hierarchy: unless the engine holds them, each is written
    /// home, in eviction order, as background data write-back. That is
    /// safe for any engine whose TX lines' home is not the committed copy
    /// (SSP: the home is the line's remapped, non-committed side). The
    /// order — after the access has been charged, oldest spill first —
    /// reaches the row-buffer model and is part of the determinism
    /// contract.
    #[inline]
    fn settle_spills(&mut self) {
        if !self.cache.spills.is_empty() && !self.hold_spills {
            self.write_spills_home();
        }
    }

    #[cold]
    fn write_spills_home(&mut self) {
        let mut spills = std::mem::take(&mut self.cache.spills);
        for ev in spills.drain(..) {
            self.persist_bytes(None, ev.line, &ev.data, WriteClass::Data);
        }
        self.cache.spills = spills;
    }

    /// Every operation that can spill starts with an empty buffer: the
    /// machine settled the last one's spills, or the engine that holds
    /// them drained them.
    #[inline]
    fn assert_spills_settled(&self) {
        debug_assert!(
            self.cache.spills.is_empty(),
            "held TX spills were not drained before the next access"
        );
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Event counters accumulated so far.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Resets all counters and cycle accounting (but not memory contents);
    /// used to exclude warm-up phases from measurements.
    pub fn reset_stats(&mut self) {
        self.stats = MachineStats::new();
        for c in &mut self.core_cycles {
            *c = 0;
        }
    }

    /// Cycles executed by `core`.
    pub fn cycles(&self, core: CoreId) -> u64 {
        self.core_cycles[core.index()]
    }

    /// The maximum per-core cycle count — the wall-clock of the run.
    pub fn elapsed_cycles(&self) -> u64 {
        self.core_cycles.iter().copied().max().unwrap_or(0)
    }

    /// The array latency of one `mem` line access in core cycles
    /// (`ns_to_cycles` of the technology's read/write latency, converted
    /// once when the machine was built) — what an engine charges for a
    /// persist it models itself.
    #[inline]
    pub fn array_cycles(&self, mem: MemKind, kind: AccessKind) -> u64 {
        self.port.timing.array_cycles(mem, kind)
    }

    /// A core's share of a persist taking `cycles`: the persists one
    /// commit issues overlap, [`MachineConfig::persist_mlp`] at a time.
    #[inline]
    pub fn persist_share(&self, cycles: u64) -> u64 {
        cycles / self.cfg.persist_mlp.max(1) as u64
    }

    /// Adds explicit cycles (instruction overhead) to a core.
    pub fn add_cycles(&mut self, core: CoreId, cycles: u64) {
        self.core_cycles[core.index()] += cycles;
    }

    /// The observability event ring (empty and inert unless
    /// [`ObsConfig::enabled`] is set).
    ///
    /// [`ObsConfig::enabled`]: crate::obs::ObsConfig::enabled
    pub fn obs(&self) -> &ObsRing {
        &self.obs
    }

    /// Records one observability event stamped with the current virtual
    /// clock (max per-core cycle count) and this shard's worker index.
    /// A branch-and-return when tracing is off; never allocates, never
    /// touches the simulated state.
    #[inline]
    pub fn obs_record(&mut self, kind: ObsKind, arg: u64) {
        if self.obs.enabled() {
            let now = self.core_cycles.iter().copied().max().unwrap_or(0);
            self.obs.record(now, kind, arg);
        }
    }

    /// Refreshes the local virtual time stamped onto memory events the
    /// timing model records for the cross-shard interconnect, and checks
    /// any armed virtual-time crash point against the same clock. Called
    /// at every public entry point that can reach the memory controller;
    /// a cheap no-op when the interconnect is disabled and no crash point
    /// is armed.
    #[inline(always)]
    fn stamp_event_clock(&mut self) {
        self.fault_tick();
        if self.port.timing.recording() {
            let now = self.core_cycles.iter().copied().max().unwrap_or(0);
            self.port.timing.set_now(now);
        }
    }

    /// Checks an armed [`CrashPoint::AtCycle`] against the clock and
    /// trips the power cut when it fires. The clock is the maximum
    /// per-core cycle count — the same deterministic quantity in every
    /// execution mode.
    #[inline(always)]
    fn fault_tick(&mut self) {
        if matches!(self.fault.armed(), Some(CrashPoint::AtCycle(_))) {
            let now = self.core_cycles.iter().copied().max().unwrap_or(0);
            if self.fault.check_cycle(now, &mut self.port) {
                // Site code 0 = virtual-time (AtCycle) cut.
                self.obs_record(ObsKind::Fault, 0);
            }
        }
    }

    /// Arms a crash point, replacing any previously armed one (the
    /// fault scheduler keeps at most one pending cut). See
    /// [`fault`](crate::fault) for trigger semantics.
    pub fn arm_crash(&mut self, point: CrashPoint) {
        self.fault.arm(point);
    }

    /// Disarms any pending crash point without clearing a latched trip.
    pub fn disarm_crash(&mut self) {
        self.fault.disarm();
    }

    /// True once an armed crash point has tripped: every write to memory
    /// is dropped and the run driver should crash + recover this machine.
    /// Cleared by [`Machine::crash`].
    pub fn power_lost(&self) -> bool {
        self.port.power_lost()
    }

    /// Engine hook: reports passing the named fault site and trips the
    /// power cut if an armed [`CrashPoint::AtSite`] fires here. Engines
    /// call this at the semantic points named by [`FaultSite`]; a cheap
    /// no-op when nothing is armed.
    pub fn fault_point(&mut self, site: FaultSite) {
        if self.fault.check_site(site, &mut self.port) {
            self.obs_record(ObsKind::Fault, fault_site_code(site));
        }
    }

    /// Drains the memory events recorded since the last drain (empty
    /// unless [`InterconnectConfig::enabled`] is set) into `buf`, which
    /// is cleared first; the machine records the next epoch into `buf`'s
    /// old backing store, so two buffers ping-pong per shard and the
    /// epoch drain allocates nothing. The driver feeds the drained
    /// streams to [`Interconnect::arbitrate`] at epoch boundaries.
    ///
    /// [`InterconnectConfig::enabled`]: crate::config::InterconnectConfig::enabled
    /// [`Interconnect::arbitrate`]: crate::interconnect::Interconnect::arbitrate
    pub fn take_mem_events_into(&mut self, buf: &mut Vec<MemEvent>) {
        self.port.timing.swap_events(buf);
    }

    /// Drains the shared-LLC probe events recorded since the last drain
    /// (empty unless the shared-LLC or coherence actor is enabled) into
    /// `buf`, which is cleared first; like [`Machine::take_mem_events_into`]
    /// the two buffers ping-pong so the drain allocates nothing. The
    /// driver feeds the drained streams to
    /// [`Interconnect::arbitrate_epoch`] at epoch boundaries.
    ///
    /// [`Interconnect::arbitrate_epoch`]: crate::interconnect::Interconnect::arbitrate_epoch
    pub fn take_llc_events_into(&mut self, buf: &mut Vec<LlcEvent>) {
        self.port.timing.swap_llc_events(buf);
    }

    /// Discards any recorded memory events without yielding them (warm-up
    /// phases, shards running with the interconnect disabled).
    pub fn discard_mem_events(&mut self) {
        self.port.timing.discard_events();
    }

    /// Applies one epoch's interconnect verdict to this shard: the
    /// queueing delay stalls `core` (back-pressure visible to everything
    /// the shard does next) and the contention counters land in
    /// [`MachineStats`].
    pub fn apply_epoch_charge(&mut self, core: CoreId, charge: &EpochCharge) {
        let delay = charge.delay_cycles + charge.llc_delay_cycles + charge.coh_delay_cycles;
        self.core_cycles[core.index()] += delay;
        // Port back-pressure (deferred issue under the in-flight cap)
        // paces the next epoch's event stream but is not lost core time.
        self.port
            .timing
            .stall_port(delay + charge.port_stall_cycles);
        self.stats.bankq_delay_cycles += charge.delay_cycles;
        self.stats.bankq_conflicts += charge.conflicts;
        self.stats.bankq_row_hits += charge.row_hits;
        self.stats.bankq_row_misses += charge.row_misses;
        self.stats.bankq_stall_cycles += charge.port_stall_cycles;
        self.stats.llc_extra_misses += charge.llc_extra_misses;
        self.stats.llc_delay_cycles += charge.llc_delay_cycles;
        self.stats.coh_cross_invalidations += charge.coh_invalidations;
        self.stats.coh_cross_delay_cycles += charge.coh_delay_cycles;
        if self.obs.enabled() {
            self.obs_record(ObsKind::EpochMerge, delay);
            let grants = charge.row_hits + charge.row_misses;
            if grants > 0 {
                self.obs_record(ObsKind::BankGrant, grants);
            }
            if charge.port_stall_cycles > 0 {
                self.obs_record(ObsKind::BankDefer, charge.port_stall_cycles);
            }
            if charge.llc_extra_misses > 0 {
                self.obs_record(ObsKind::LlcShortfall, charge.llc_extra_misses);
            }
            if charge.coh_invalidations > 0 {
                self.obs_record(ObsKind::CohInvalidate, charge.coh_invalidations);
            }
        }
        // The charge lands exactly once per epoch per shard, so arming
        // the same EpochBoundary schedule on every shard cuts the power
        // on all of them at the same epoch boundary.
        self.fault_point(FaultSite::EpochBoundary);
    }

    /// Reads `buf.len()` bytes at `addr` through the cache hierarchy.
    /// The range must lie within one cache line.
    pub fn read(&mut self, core: CoreId, addr: PhysAddr, buf: &mut [u8]) -> AccessResult {
        self.stamp_event_clock();
        let offset = addr.line_offset();
        assert!(
            offset + buf.len() <= LINE_SIZE,
            "read crosses line boundary"
        );
        self.assert_spills_settled();
        let result = self.cache.access(
            core,
            addr,
            LineOp::Read { offset, buf },
            false,
            &self.cfg,
            &mut self.port,
            &mut self.stats,
        );
        self.core_cycles[core.index()] += result.cycles;
        self.settle_spills();
        result
    }

    /// Writes `data` at `addr` through the cache hierarchy. `tx` marks the
    /// line transactional (see [`CacheHierarchy`] TX-bit rules). The range
    /// must lie within one cache line; a crossing store panics here,
    /// before the hierarchy is touched.
    pub fn write(&mut self, core: CoreId, addr: PhysAddr, data: &[u8], tx: bool) -> AccessResult {
        self.stamp_event_clock();
        let offset = addr.line_offset();
        assert!(
            offset + data.len() <= LINE_SIZE,
            "write crosses line boundary"
        );
        self.assert_spills_settled();
        let result = self.cache.access(
            core,
            addr,
            LineOp::Write { offset, data },
            tx,
            &self.cfg,
            &mut self.port,
            &mut self.stats,
        );
        self.core_cycles[core.index()] += result.cycles;
        self.settle_spills();
        result
    }

    /// Flushes a line to memory (`clwb` + fence share). When `core` is
    /// given, the persist latency is charged to it divided by the machine's
    /// persist MLP (consecutive flushes from one commit overlap); `None`
    /// models background write-back that stays off the critical path.
    /// Returns `true` if the line was dirty.
    pub fn flush(&mut self, core: Option<CoreId>, addr: PhysAddr, class: WriteClass) -> bool {
        self.stamp_event_clock();
        match self
            .cache
            .flush_line(addr, class, &mut self.port, &mut self.stats)
        {
            Some(cycles) => {
                if let Some(core) = core {
                    let charged = self.persist_share(cycles);
                    self.core_cycles[core.index()] += charged.max(1);
                }
                true
            }
            None => false,
        }
    }

    /// SSP line remap: move `core`'s cached copy of `old` to tag `new`
    /// (no latency is charged). Returns `false` if the line was not
    /// present in `core`'s L1.
    pub fn retag(&mut self, core: CoreId, old: PhysAddr, new: PhysAddr) -> bool {
        self.stamp_event_clock();
        self.assert_spills_settled();
        let moved = self
            .cache
            .retag(core, old, new, &mut self.port, &mut self.stats);
        self.settle_spills();
        moved
    }

    /// Clears the TX bit on all cached copies of `addr`'s line.
    pub fn clear_tx(&mut self, addr: PhysAddr) {
        self.cache.clear_tx(addr);
    }

    /// Drops all cached copies of `addr`'s line without write-back.
    pub fn discard_line(&mut self, addr: PhysAddr) {
        self.cache.discard_line(addr);
    }

    /// Writes bytes directly to memory, bypassing the cache (the memory
    /// controller's own writes: journal records, persistent metadata).
    /// Counts one write of `class` per touched line when targeting NVRAM
    /// and charges the (MLP-shared) write latency to `core` if given.
    pub fn persist_bytes(
        &mut self,
        core: Option<CoreId>,
        addr: PhysAddr,
        data: &[u8],
        class: WriteClass,
    ) {
        self.stamp_event_clock();
        for (a, range) in chunks(addr, data.len(), LINE_SIZE) {
            let cycles = self.write_uncached(a, &data[range], Some(class));
            if let Some(c) = core {
                self.core_cycles[c.index()] += self.persist_share(cycles).max(1);
            }
        }
    }

    /// Appends `data` at `addr` through the memory controller's
    /// write-combining buffer, which several small appends share: a
    /// touched line below `counted_until` was counted by an earlier
    /// append, so its bytes land uncounted and untimed; every other
    /// touched line is one write of `class`. Returns the summed latency
    /// of the counted lines without charging any core (the caller decides
    /// who stalls).
    pub fn persist_combined(
        &mut self,
        addr: PhysAddr,
        data: &[u8],
        counted_until: PhysAddr,
        class: WriteClass,
    ) -> u64 {
        self.stamp_event_clock();
        let mut cycles = 0;
        for (a, range) in chunks(addr, data.len(), LINE_SIZE) {
            let class = (a >= counted_until).then_some(class);
            cycles += self.write_uncached(a, &data[range], class);
        }
        cycles
    }

    /// Memory written behind the hierarchy: a cached copy keeps the bytes
    /// it held (the hierarchy is told first), then `data`, within one
    /// line, passes the port.
    #[inline]
    fn write_uncached(&mut self, addr: PhysAddr, data: &[u8], class: Option<WriteClass>) -> u64 {
        self.cache.before_memory_write(addr, self.port.mem());
        self.port.write(&mut self.stats, addr, data, class)
    }

    /// Times and counts one line read straight from memory.
    #[inline(always)]
    fn line_read(&mut self, addr: PhysAddr) {
        let kind = PhysMem::kind_of_addr(addr);
        let _ = self
            .port
            .timing
            .access_cycles(&mut self.stats, kind, addr, AccessKind::Read);
        match kind {
            MemKind::Dram => self.stats.dram_reads += 1,
            MemKind::Nvram => self.stats.nvram_reads += 1,
        }
    }

    /// Reads bytes directly from memory, bypassing the cache (memory
    /// controller metadata reads, recovery). Page-crossing ranges are
    /// split internally.
    pub fn read_bytes_uncached(&self, addr: PhysAddr, buf: &mut [u8]) {
        for (a, range) in chunks(addr, buf.len(), PAGE_SIZE) {
            self.port.mem().read_bytes(a, &mut buf[range]);
        }
    }

    /// Writes a line to NVRAM (counted as `class`) and leaves a clean copy
    /// resident in the shared L3 — the effect of a background OS thread
    /// copying through the cache and flushing with `clwb`.
    pub fn install_line_cached(
        &mut self,
        addr: PhysAddr,
        data: [u8; LINE_SIZE],
        class: WriteClass,
    ) {
        self.stamp_event_clock();
        self.assert_spills_settled();
        self.write_uncached(addr.line_base(), &data, Some(class));
        self.cache
            .install_line_l3(addr, data, &mut self.port, &mut self.stats);
        self.settle_spills();
    }

    /// Reads a full line directly from memory (uncached).
    pub fn read_line_uncached(&mut self, addr: PhysAddr) -> [u8; LINE_SIZE] {
        self.stamp_event_clock();
        self.line_read(addr);
        self.port.mem().read_line(addr.ppn(), addr.line_index())
    }

    /// Copies whole-line data directly between physical lines in memory
    /// (consolidation's DMA-style copy). Counts reads and writes.
    pub fn copy_line_uncached(&mut self, from: PhysAddr, to: PhysAddr, class: WriteClass) {
        self.stamp_event_clock();
        let data = self.port.mem().read_line(from.ppn(), from.line_index());
        self.line_read(from);
        self.write_uncached(to.line_base(), &data, Some(class));
    }

    /// Counts coherence traffic for a TLB-metadata broadcast (the paper's
    /// `flip-current-bit` message) and charges its latency.
    pub fn broadcast_flip(&mut self, core: CoreId) {
        self.stats.flip_broadcasts += 1;
        self.core_cycles[core.index()] += self.cfg.coherence_broadcast_cycles;
    }

    /// Records a TLB miss on the persistent heap.
    pub fn record_tlb_miss(&mut self, core: CoreId) {
        self.stats.tlb_misses += 1;
        self.core_cycles[core.index()] += self.cfg.page_walk_cycles;
    }

    /// Simulated power failure: all caches, row buffers, cycle accounting
    /// and DRAM contents are lost; NVRAM survives. Also consumes any
    /// fault-injection state — a tripped power cut ends here, and memory
    /// becomes writable again. The observability ring is *kept*: it sits
    /// outside the simulated machine, and the flight recorder needs the
    /// pre-crash tail.
    pub fn crash(&mut self) {
        self.cache.crash();
        self.port.crash();
        for c in &mut self.core_cycles {
            *c = 0;
        }
        self.fault.disarm();
    }

    /// Number of dirty lines still cached (diagnostics; should be zero
    /// after quiescing flushes in tests).
    pub fn dirty_cached_lines(&self) -> usize {
        self.cache.dirty_lines()
    }

    /// Number of materialised NVRAM frames (capacity accounting for the
    /// consolidation experiments).
    pub fn resident_nvram_frames(&self) -> usize {
        self.port.mem().resident_nvram_frames()
    }

    /// Order-independent hash of the NVRAM region's contents (see
    /// [`PhysMem::nvram_fingerprint`]). Crash first to fingerprint only
    /// the *durable* state — dirty cached lines have not reached memory.
    pub fn nvram_fingerprint(&self) -> u64 {
        self.port.mem().nvram_fingerprint()
    }
}

/// Splits the byte range `addr .. addr + len` at multiples of `unit`, a
/// power of two — pages for the page-granular frame store, lines for the
/// port: each chunk's address and its range of offsets.
#[inline(always)]
fn chunks(
    addr: PhysAddr,
    len: usize,
    unit: usize,
) -> impl Iterator<Item = (PhysAddr, Range<usize>)> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        if off >= len {
            return None;
        }
        let a = PhysAddr::new(addr.raw() + off as u64);
        let start = off;
        off += (unit - (a.raw() as usize & (unit - 1))).min(len - off);
        Some((a, start..off))
    })
}

/// Stable numeric code for a [`FaultSite`], carried as the `arg` of
/// [`ObsKind::Fault`] events (0 is reserved for virtual-time cuts).
fn fault_site_code(site: FaultSite) -> u64 {
    match site {
        FaultSite::CommitData => 1,
        FaultSite::CommitMark => 2,
        FaultSite::Consolidation => 3,
        FaultSite::Recovery => 4,
        FaultSite::EpochBoundary => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::NVRAM_PPN_BASE;

    fn nv(page: u64, off: u64) -> PhysAddr {
        PhysAddr::new((NVRAM_PPN_BASE + page) * 4096 + off)
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn byte_ranges_split_at_page_boundaries_only() {
        let split = |off, len| -> Vec<_> { chunks(nv(2, off), len, PAGE_SIZE).collect() };
        assert_eq!(split(100, 0), []);
        assert_eq!(split(100, 50), [(nv(2, 100), 0..50)]);
        assert_eq!(split(4000, 96), [(nv(2, 4000), 0..96)]);
        let spanning = [
            (nv(2, 4090), 0..6),
            (nv(3, 0), 6..4102),
            (nv(4, 0), 4102..4200),
        ];
        assert_eq!(split(4090, 4200), spanning);
        // The uncached byte paths round-trip across the boundary.
        let mut m = machine();
        let data: Vec<u8> = (0..200u8).collect();
        m.persist_bytes(None, nv(2, 4000), &data, WriteClass::Log);
        let mut back = vec![0u8; 200];
        m.read_bytes_uncached(nv(2, 4000), &mut back);
        assert_eq!(back, data);
        assert_eq!(m.stats().nvram_writes(WriteClass::Log), 4);
    }

    #[test]
    fn write_read_round_trip_charges_cycles() {
        let mut m = machine();
        let c = CoreId::new(0);
        m.write(c, nv(0, 128), &[9, 8, 7], false);
        let mut buf = [0u8; 3];
        m.read(c, nv(0, 128), &mut buf);
        assert_eq!(buf, [9, 8, 7]);
        assert!(m.cycles(c) > 0);
        assert_eq!(m.cycles(CoreId::new(1)), 0);
    }

    #[test]
    #[should_panic(expected = "write crosses line boundary")]
    fn crossing_write_panics_with_the_hierarchy_untouched() {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        let mut m = machine();
        let c = CoreId::new(0);
        // A cold line: the miss path would fill L3 and L2 before any
        // byte is patched, so the check has to come first.
        let crossing = catch_unwind(AssertUnwindSafe(|| {
            m.write(c, nv(0, 60), &[7u8; 8], false);
        }));
        let panic = crossing.expect_err("a store crossing a line end must panic");
        assert_eq!(*m.stats(), MachineStats::new(), "no counter moved");
        assert_eq!(m.cycles(c), 0);
        assert_eq!(m.dirty_cached_lines(), 0);
        resume_unwind(panic);
    }

    #[test]
    fn crash_loses_unflushed_writes() {
        let mut m = machine();
        let c = CoreId::new(0);
        m.write(c, nv(1, 0), &[0xaa], false);
        m.crash();
        let mut buf = [0u8; 1];
        m.read(c, nv(1, 0), &mut buf);
        assert_eq!(buf, [0]);
    }

    #[test]
    fn flush_makes_writes_durable() {
        let mut m = machine();
        let c = CoreId::new(0);
        m.write(c, nv(2, 0), &[0xbb], false);
        assert!(m.flush(Some(c), nv(2, 0), WriteClass::Data));
        m.crash();
        let mut buf = [0u8; 1];
        m.read(c, nv(2, 0), &mut buf);
        assert_eq!(buf, [0xbb]);
    }

    #[test]
    fn persist_bytes_is_durable_and_counted() {
        let mut m = machine();
        m.persist_bytes(None, nv(3, 32), &[1, 2, 3, 4], WriteClass::MetaJournal);
        assert_eq!(m.stats().nvram_writes(WriteClass::MetaJournal), 1);
        m.crash();
        let mut buf = [0u8; 4];
        m.read_bytes_uncached(nv(3, 32), &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn persist_bytes_counts_per_line() {
        let mut m = machine();
        // 100 bytes starting at offset 32 touch lines 0 and 1 and 2.
        m.persist_bytes(None, nv(4, 32), &[0u8; 100], WriteClass::Log);
        assert_eq!(m.stats().nvram_writes(WriteClass::Log), 3);
    }

    #[test]
    fn elapsed_is_max_over_cores() {
        let mut m = machine();
        m.add_cycles(CoreId::new(0), 10);
        m.add_cycles(CoreId::new(1), 25);
        assert_eq!(m.elapsed_cycles(), 25);
    }

    #[test]
    fn broadcast_and_tlb_miss_counters() {
        let mut m = machine();
        let c = CoreId::new(0);
        m.broadcast_flip(c);
        m.record_tlb_miss(c);
        assert_eq!(m.stats().flip_broadcasts, 1);
        assert_eq!(m.stats().tlb_misses, 1);
        assert!(m.cycles(c) > 0);
    }

    #[test]
    fn copy_line_uncached_moves_data() {
        let mut m = machine();
        m.persist_bytes(None, nv(5, 0), &[7u8; 64], WriteClass::Other);
        m.copy_line_uncached(nv(5, 0), nv(6, 0), WriteClass::Consolidation);
        let mut buf = [0u8; 64];
        m.read_bytes_uncached(nv(6, 0), &mut buf);
        assert_eq!(buf, [7u8; 64]);
        assert_eq!(m.stats().nvram_writes(WriteClass::Consolidation), 1);
    }

    #[test]
    fn reset_stats_clears_counters_and_cycles() {
        let mut m = machine();
        let c = CoreId::new(0);
        m.write(c, nv(7, 0), &[1], false);
        m.reset_stats();
        assert_eq!(m.elapsed_cycles(), 0);
        assert_eq!(m.stats().nvram_writes_total(), 0);
        // Data written before the reset is still there.
        let mut buf = [0u8; 1];
        m.read(c, nv(7, 0), &mut buf);
        assert_eq!(buf, [1]);
    }

    #[test]
    fn armed_at_cycle_cut_freezes_memory_until_crash() {
        let mut m = machine();
        let c = CoreId::new(0);
        m.persist_bytes(Some(c), nv(10, 0), &[1u8; 8], WriteClass::Data);
        assert!(!m.power_lost());
        // Arm just past the current clock. The trigger is checked at the
        // *start* of each memory access, so the access that advances the
        // clock past the target still lands; the one after it trips the
        // cut first and is dropped.
        m.arm_crash(CrashPoint::AtCycle(m.cycles(c) + 1));
        m.persist_bytes(Some(c), nv(10, 64), &[2u8; 8], WriteClass::Data);
        assert!(!m.power_lost());
        let before = m.cycles(c);
        m.persist_bytes(Some(c), nv(10, 128), &[3u8; 8], WriteClass::Data);
        assert!(m.power_lost());
        // Cycles keep accumulating after the cut.
        assert!(m.cycles(c) > before);
        m.crash();
        assert!(!m.power_lost());
        let mut buf = [0u8; 8];
        m.read_bytes_uncached(nv(10, 0), &mut buf);
        assert_eq!(buf, [1u8; 8]); // pre-cut write survived
        m.read_bytes_uncached(nv(10, 64), &mut buf);
        assert_eq!(buf, [2u8; 8]); // clock-crossing write still landed
        m.read_bytes_uncached(nv(10, 128), &mut buf);
        assert_eq!(buf, [0u8; 8]); // post-cut write dropped
    }

    #[test]
    fn a_combined_append_counts_new_lines_and_is_dropped_past_a_due_cut() {
        let mut m = machine();
        let c = CoreId::new(0);
        // 88 bytes at offset 40 touch lines 0 and 1; line 0 is counted.
        let (at, counted) = (nv(13, 40), nv(13, 64));
        assert!(m.persist_combined(at, &[7u8; 88], counted, WriteClass::Log) > 0);
        assert_eq!(m.stats().nvram_writes(WriteClass::Log), 1);
        assert_eq!(durable_byte(&m, nv(13, 127)), 7);
        // A cut the clock has already passed trips before the bytes land.
        m.arm_crash(CrashPoint::AtCycle(m.elapsed_cycles() + 1));
        m.add_cycles(c, 10);
        let next = nv(13, 128);
        m.persist_combined(next, &[8u8; 88], next, WriteClass::Log);
        assert!(m.power_lost());
        assert_eq!(m.stats().nvram_writes(WriteClass::Log), 3);
        m.crash();
        let mut buf = [0u8; 88];
        m.read_bytes_uncached(next, &mut buf);
        assert_eq!(buf, [0u8; 88], "the append after the cut is absent");
        assert_eq!(durable_byte(&m, nv(13, 127)), 7);
    }

    #[test]
    fn fault_point_site_trips_on_requested_hit() {
        let mut m = machine();
        m.arm_crash(CrashPoint::AtSite {
            site: FaultSite::CommitMark,
            hits: 2,
        });
        m.fault_point(FaultSite::CommitMark);
        assert!(!m.power_lost());
        m.fault_point(FaultSite::CommitData); // different site: no count
        assert!(!m.power_lost());
        m.fault_point(FaultSite::CommitMark);
        assert!(m.power_lost());
        m.crash();
        assert!(!m.power_lost());
    }

    #[test]
    fn disarm_cancels_pending_cut() {
        let mut m = machine();
        let c = CoreId::new(0);
        m.arm_crash(CrashPoint::AtCycle(0));
        m.disarm_crash();
        m.persist_bytes(Some(c), nv(11, 0), &[5u8; 8], WriteClass::Data);
        assert!(!m.power_lost());
        let mut buf = [0u8; 8];
        m.read_bytes_uncached(nv(11, 0), &mut buf);
        assert_eq!(buf, [5u8; 8]);
    }

    #[test]
    fn obs_ring_records_stamped_events_and_survives_crash() {
        use crate::obs::{ObsConfig, ObsKind};
        let cfg = MachineConfig {
            obs: ObsConfig {
                worker: 3,
                ..ObsConfig::tracing()
            },
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg);
        let c = CoreId::new(0);
        m.write(c, nv(12, 0), &[1], false);
        m.obs_record(ObsKind::Commit, 42);
        assert_eq!(m.obs().len(), 1);
        let ev = *m.obs().iter().next().unwrap();
        assert_eq!(ev.kind, ObsKind::Commit);
        assert_eq!(ev.arg, 42);
        assert_eq!(ev.worker, 3);
        assert_eq!(ev.at, m.elapsed_cycles());
        // A tripped site fault records an event, and the ring survives
        // the crash that follows.
        m.arm_crash(CrashPoint::AtSite {
            site: FaultSite::CommitMark,
            hits: 1,
        });
        m.fault_point(FaultSite::CommitMark);
        assert!(m.power_lost());
        assert_eq!(m.obs().len(), 2);
        m.crash();
        assert_eq!(m.obs().len(), 2);
        // Disabled machines record nothing.
        let mut off = Machine::new(MachineConfig::default());
        off.obs_record(ObsKind::Commit, 1);
        assert_eq!(off.obs().len(), 0);
    }

    /// A machine whose L3 is one 2-way set under a full-size L1: the third
    /// distinct line evicts the first from the L3 while its dirty copy is
    /// still in the L1.
    fn two_line_l3() -> Machine {
        let mut cfg = MachineConfig::default();
        cfg.l3.size_bytes = 2 * LINE_SIZE;
        cfg.l3.ways = 2;
        Machine::new(cfg)
    }

    fn durable_byte(m: &Machine, addr: PhysAddr) -> u8 {
        let mut buf = [0u8; 1];
        m.read_bytes_uncached(addr, &mut buf);
        buf[0]
    }

    #[test]
    fn a_tx_spill_is_written_home_once_the_access_is_charged() {
        let mut m = two_line_l3();
        let c = CoreId::new(0);
        m.write(c, nv(20, 0), &[0xa1], true);
        m.write(c, nv(21, 0), &[0xb2], true);
        assert_eq!(m.stats().nvram_writes(WriteClass::Data), 0);
        // The third line pushes the first out of the L3 and, with it, out
        // of the L1 that held it dirty and transactional.
        let r = m.write(c, nv(22, 0), &[0xc3], true);
        assert_eq!(durable_byte(&m, nv(20, 0)), 0xa1, "spilled line is home");
        assert_eq!(durable_byte(&m, nv(21, 0)), 0, "resident TX line is not");
        assert_eq!(m.stats().nvram_writes(WriteClass::Data), 1);
        assert_eq!(m.stats().writebacks, 0, "a spill is not a write-back");
        // Background write-back: the access itself cost what it would have
        // without the spill.
        let mut twin = two_line_l3();
        twin.write(c, nv(20, 0), &[0xa1], false);
        twin.write(c, nv(21, 0), &[0xb2], false);
        assert_eq!(twin.write(c, nv(22, 0), &[0xc3], false), r);
        assert_eq!(twin.cycles(c), m.cycles(c));
        assert!(m.drain_tx_spills().next().is_none());
    }

    #[test]
    fn held_tx_spills_wait_for_the_engine_and_never_reach_home() {
        let mut m = two_line_l3();
        m.hold_tx_spills();
        let c = CoreId::new(0);
        for (page, byte) in [(20, 0xa1), (21, 0xb2), (22, 0xc3), (23, 0xd4)] {
            m.write(c, nv(page, 0), &[byte], true);
            let spilled: Vec<(PhysAddr, u8)> = m
                .drain_tx_spills()
                .map(|ev| (ev.line, ev.data[0]))
                .collect();
            match page {
                22 => assert_eq!(spilled, [(nv(20, 0), 0xa1)]),
                23 => assert_eq!(spilled, [(nv(21, 0), 0xb2)]),
                _ => assert!(spilled.is_empty()),
            }
        }
        assert_eq!(m.stats().nvram_writes(WriteClass::Data), 0);
        assert_eq!(durable_byte(&m, nv(20, 0)), 0);
        assert_eq!(durable_byte(&m, nv(21, 0)), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "held TX spills were not drained")]
    fn an_undrained_held_spill_fails_the_next_access() {
        let mut m = two_line_l3();
        m.hold_tx_spills();
        let c = CoreId::new(0);
        for page in 20..23 {
            m.write(c, nv(page, 0), &[1], true);
        }
        // The spill of page 20's line is still in the buffer.
        m.read(c, nv(22, 0), &mut [0u8; 1]);
    }

    /// Pushes `addr`'s line out of core 0's L1 but not out of the L3: the
    /// default L1 set has eight ways, and eight more lines a page apart
    /// fill it.
    fn push_out_of_l1(m: &mut Machine, addr: PhysAddr) {
        for k in 1..=8 {
            m.read(
                CoreId::new(0),
                PhysAddr::new(addr.raw() + k * 4096),
                &mut [0u8; 1],
            );
        }
    }

    /// Core 0's cached read of `addr`'s byte, asserting that it missed the
    /// L1 and that no memory access served it: the L3 copy did.
    fn l3_byte(m: &mut Machine, addr: PhysAddr) -> u8 {
        let (l1_hits, mem_accesses) = (m.stats().l1_hits, m.stats().mem_accesses);
        let mut buf = [0u8; 1];
        m.read(CoreId::new(0), addr, &mut buf);
        assert_eq!(m.stats().l1_hits, l1_hits, "an L1 miss");
        assert_eq!(m.stats().mem_accesses, mem_accesses, "served by the L3");
        buf[0]
    }

    /// Trips a power cut: memory is frozen until `crash`.
    fn trip_cut(m: &mut Machine) {
        m.arm_crash(CrashPoint::AtSite {
            site: FaultSite::CommitData,
            hits: 1,
        });
        m.fault_point(FaultSite::CommitData);
        assert!(m.power_lost());
    }

    #[test]
    fn memory_written_behind_the_cache_leaves_the_l3_copy_as_it_was() {
        for via_copy in [false, true] {
            let mut m = machine();
            let (x, src) = (nv(30, 64), nv(31, 64));
            m.persist_bytes(None, x, &[1; 8], WriteClass::Data);
            m.persist_bytes(None, src, &[2; LINE_SIZE], WriteClass::Data);
            let mut buf = [0u8; 1];
            m.read(CoreId::new(0), x, &mut buf);
            assert_eq!(buf, [1]);
            push_out_of_l1(&mut m, x);
            if via_copy {
                m.copy_line_uncached(src, x, WriteClass::Consolidation);
            } else {
                m.persist_bytes(None, x, &[2; 8], WriteClass::Data);
            }
            assert_eq!(l3_byte(&mut m, x), 1, "copy: {via_copy}");
            assert_eq!(durable_byte(&m, x), 2, "copy: {via_copy}");
        }
    }

    #[test]
    fn a_flush_under_a_tripped_cut_is_cached_but_not_durable() {
        let mut m = machine();
        let x = nv(40, 0);
        m.write(CoreId::new(0), x, &[0xee], false);
        trip_cut(&mut m);
        assert!(m.flush(None, x, WriteClass::Data));
        push_out_of_l1(&mut m, x);
        assert_eq!(l3_byte(&mut m, x), 0xee);
        m.crash();
        assert_eq!(durable_byte(&m, x), 0);
    }

    #[test]
    fn an_install_under_a_tripped_cut_is_cached_but_not_durable() {
        let mut m = machine();
        let x = nv(50, 0);
        trip_cut(&mut m);
        m.install_line_cached(x, [0x77; LINE_SIZE], WriteClass::Consolidation);
        assert_eq!(l3_byte(&mut m, x), 0x77);
        push_out_of_l1(&mut m, x);
        assert_eq!(l3_byte(&mut m, x), 0x77);
        m.crash();
        assert_eq!(durable_byte(&m, x), 0);
    }

    #[test]
    fn retag_through_machine() {
        let mut m = machine();
        let c = CoreId::new(0);
        m.write(c, nv(8, 0), &[0x5a], true);
        assert!(m.retag(c, nv(8, 0), nv(9, 0)));
        let mut buf = [0u8; 1];
        m.read(c, nv(9, 0), &mut buf);
        assert_eq!(buf, [0x5a]);
    }
}
