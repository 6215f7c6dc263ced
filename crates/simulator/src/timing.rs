//! Memory timing model (DRAMSim2 substitute).
//!
//! Models a hybrid memory system with a DRAM channel and an NVRAM channel on
//! the same bus. Each channel has a set of banks with open-row buffers: an
//! access that hits the currently open row pays only the array latency, a
//! miss additionally pays an activate/precharge penalty. This reproduces the
//! first-order latency structure the paper gets from DRAMSim2 without a
//! cycle-accurate DRAM command scheduler.

use crate::addr::PhysAddr;
use crate::config::{MachineConfig, MemTechConfig};
use crate::fastmod::Modulus;
use crate::interconnect::{LlcEvent, MemEvent};
use crate::stats::MachineStats;

/// Which memory technology an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Volatile DRAM: contents are lost on a crash.
    Dram,
    /// Non-volatile RAM: contents survive a crash.
    Nvram,
}

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Line read.
    Read,
    /// Line write (write-back or persist).
    Write,
}

/// Per-bank open-row state for one channel, with everything an access
/// needs derived from the configuration once: the four latencies in core
/// cycles (read/write × row hit/miss, each through the same
/// [`MachineConfig::ns_to_cycles`] rounding a per-access conversion would
/// apply), the row size as a shift when it is a power of two, and the
/// bank count as a mask or reciprocal.
#[derive(Debug, Clone)]
struct Channel {
    /// `cycles[write as usize][row_miss as usize]`.
    cycles: [[u64; 2]; 2],
    row_bytes: u64,
    /// `log2(row_bytes)` when it is a power of two.
    row_shift: Option<u32>,
    banks: Modulus,
    open_rows: Vec<Option<u64>>,
}

impl Channel {
    fn new(tech: MemTechConfig, cfg: &MachineConfig) -> Self {
        let banks = tech.banks.max(1);
        let row_bytes = tech.row_buffer_bytes.max(1) as u64;
        let latencies = |base: f64| {
            [
                cfg.ns_to_cycles(base),
                cfg.ns_to_cycles(base + tech.row_miss_penalty_ns),
            ]
        };
        Self {
            cycles: [latencies(tech.read_ns), latencies(tech.write_ns)],
            row_bytes,
            row_shift: row_bytes
                .is_power_of_two()
                .then(|| row_bytes.trailing_zeros()),
            banks: Modulus::new(banks as u64),
            open_rows: vec![None; banks],
        }
    }

    /// Returns the latency of the access in core cycles, whether the
    /// access hit the open row buffer, and the row index it targeted.
    #[inline]
    fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> (u64, bool, u64) {
        let row = match self.row_shift {
            Some(shift) => addr.raw() >> shift,
            None => addr.raw() / self.row_bytes,
        };
        let bank = self.banks.of(row) as usize;
        let hit = self.open_rows[bank] == Some(row);
        self.open_rows[bank] = Some(row);
        let cycles = self.cycles[(kind == AccessKind::Write) as usize][!hit as usize];
        (cycles, hit, row)
    }

    fn reset_rows(&mut self) {
        for r in &mut self.open_rows {
            *r = None;
        }
    }
}

/// The memory subsystem: one DRAM channel and one NVRAM channel.
///
/// # Examples
///
/// ```
/// use ssp_simulator::addr::PhysAddr;
/// use ssp_simulator::config::MachineConfig;
/// use ssp_simulator::stats::MachineStats;
/// use ssp_simulator::timing::{AccessKind, MemKind, MemTiming};
///
/// let cfg = MachineConfig::default();
/// let mut timing = MemTiming::new(&cfg);
/// let mut stats = MachineStats::new();
/// let cycles = timing.access_cycles(
///     &mut stats, MemKind::Nvram, PhysAddr::new(0), AccessKind::Write);
/// assert!(cycles >= cfg.ns_to_cycles(cfg.nvram.write_ns));
/// ```
#[derive(Debug, Clone)]
pub struct MemTiming {
    dram: Channel,
    nvram: Channel,
    /// When `true` (the machine's interconnect model is enabled), every
    /// access is also appended to `events` for epoch arbitration.
    recording: bool,
    /// The issuing core's cycle count, stamped onto recorded events; the
    /// machine refreshes it at each public entry point.
    now: u64,
    /// Pacing cursor: a shard issues memory traffic through one
    /// controller port, so recorded arrivals are spaced at least one
    /// service time apart. Without this, background bursts (write-backs,
    /// checkpoints — which charge no core cycles) would all "arrive" at
    /// one instant and self-queue quadratically, drowning the cross-shard
    /// contention the model exists to expose.
    cursor: u64,
    events: Vec<MemEvent>,
    /// When `true` (interconnect enabled *and* the shared-LLC or
    /// coherence actor is on), L3 demand probes are also recorded for the
    /// epoch replay against the shared set space.
    llc_recording: bool,
    llc_events: Vec<LlcEvent>,
}

impl MemTiming {
    /// Creates the timing model from a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        let icfg = &cfg.interconnect;
        Self {
            dram: Channel::new(cfg.dram, cfg),
            nvram: Channel::new(cfg.nvram, cfg),
            recording: icfg.enabled,
            now: 0,
            cursor: 0,
            events: Vec::new(),
            llc_recording: icfg.enabled && (icfg.shared_llc || icfg.coherence),
            llc_events: Vec::new(),
        }
    }

    /// Performs one line access and returns its latency in core cycles.
    /// Row-buffer hit/miss counters are recorded into `stats`.
    #[inline]
    pub fn access_cycles(
        &mut self,
        stats: &mut MachineStats,
        mem: MemKind,
        addr: PhysAddr,
        kind: AccessKind,
    ) -> u64 {
        let channel = match mem {
            MemKind::Dram => &mut self.dram,
            MemKind::Nvram => &mut self.nvram,
        };
        let (cycles, hit, row) = channel.access(addr, kind);
        if hit {
            stats.row_hits += 1;
        } else {
            stats.row_misses += 1;
        }
        if self.recording {
            let at = self.now.max(self.cursor);
            self.cursor = at + cycles.max(1);
            self.events.push(MemEvent {
                at,
                mem,
                row,
                write: kind == AccessKind::Write,
            });
        }
        cycles
    }

    /// The row-hit latency of one line access in core cycles —
    /// `ns_to_cycles(read_ns)` / `ns_to_cycles(write_ns)` of the channel,
    /// converted once at construction.
    #[inline]
    pub fn array_cycles(&self, mem: MemKind, kind: AccessKind) -> u64 {
        let channel = match mem {
            MemKind::Dram => &self.dram,
            MemKind::Nvram => &self.nvram,
        };
        channel.cycles[(kind == AccessKind::Write) as usize][0]
    }

    /// Whether accesses are being recorded for the interconnect model.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Sets the local virtual time stamped onto subsequently recorded
    /// events (a no-op unless recording).
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Takes the recorded event stream, leaving an empty one. Events are
    /// in issue order, so their timestamps are nondecreasing.
    pub fn take_events(&mut self) -> Vec<MemEvent> {
        std::mem::take(&mut self.events)
    }

    /// Moves the recorded event stream into `buf` (cleared first) and
    /// keeps `buf`'s old allocation as the new recording buffer — the
    /// zero-allocation epoch-drain the sharded driver uses: two buffers
    /// ping-pong per shard instead of a fresh `Vec` per epoch.
    pub fn swap_events(&mut self, buf: &mut Vec<MemEvent>) {
        buf.clear();
        std::mem::swap(&mut self.events, buf);
    }

    /// Drops any recorded events in place, keeping the allocations.
    pub fn discard_events(&mut self) {
        self.events.clear();
        self.llc_events.clear();
    }

    /// Whether L3 demand probes are being recorded for the shared-LLC /
    /// coherence actors.
    pub fn llc_recording(&self) -> bool {
        self.llc_recording
    }

    /// Records one L3 demand probe for the shared-LLC replay (a no-op
    /// unless the LLC actors are on). `line` is the local line index,
    /// `private_hit` whether the shard's own L3 slice hit. Probes need no
    /// pacing — the shared LLC models capacity, not a queue — so they are
    /// stamped with the core clock directly.
    pub fn record_llc_probe(&mut self, line: u64, mem: MemKind, write: bool, private_hit: bool) {
        if self.llc_recording {
            self.llc_events.push(LlcEvent {
                at: self.now,
                line,
                mem,
                write,
                private_hit,
            });
        }
    }

    /// Moves the recorded LLC-probe stream into `buf` (cleared first),
    /// recycling `buf`'s allocation — the same zero-allocation ping-pong
    /// as [`swap_events`](Self::swap_events).
    pub fn swap_llc_events(&mut self, buf: &mut Vec<LlcEvent>) {
        buf.clear();
        std::mem::swap(&mut self.llc_events, buf);
    }

    /// Pushes the pacing cursor `delay` cycles further out: when the
    /// interconnect charges a shard for cross-shard queueing, the shard's
    /// future arrivals shift by the same amount (the port stalls with the
    /// client), so an oversubscribed bank sees its offered load throttle
    /// instead of accumulating an unbounded backlog.
    pub fn stall_port(&mut self, delay: u64) {
        self.cursor += delay;
    }

    /// Clears all open-row buffers, any recorded events and the pacing
    /// cursor (used after a simulated power cycle).
    pub fn reset(&mut self) {
        self.dram.reset_rows();
        self.nvram.reset_rows();
        self.events.clear();
        self.llc_events.clear();
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MachineConfig, MemTiming, MachineStats) {
        let cfg = MachineConfig::default();
        let timing = MemTiming::new(&cfg);
        (cfg, timing, MachineStats::new())
    }

    /// The per-access-converting channel the precomputed one replaced,
    /// verbatim: nanoseconds out, `/` and `%` per access.
    struct RefChannel {
        tech: MemTechConfig,
        open_rows: Vec<Option<u64>>,
    }

    impl RefChannel {
        fn new(tech: MemTechConfig) -> Self {
            let banks = tech.banks.max(1);
            Self {
                tech,
                open_rows: vec![None; banks],
            }
        }

        fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> (f64, bool, u64) {
            let row_bytes = self.tech.row_buffer_bytes.max(1) as u64;
            let row = addr.raw() / row_bytes;
            let bank = (row % self.open_rows.len() as u64) as usize;
            let hit = self.open_rows[bank] == Some(row);
            self.open_rows[bank] = Some(row);
            let base = match kind {
                AccessKind::Read => self.tech.read_ns,
                AccessKind::Write => self.tech.write_ns,
            };
            let ns = if hit {
                base
            } else {
                base + self.tech.row_miss_penalty_ns
            };
            (ns, hit, row)
        }
    }

    #[test]
    fn precomputed_cycles_match_per_access_conversion_for_every_bench_config() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        // Every machine the bench targets and the repo benchmark build:
        // the default, each worker's slice of 1-8-way sharded runs
        // (non-power-of-two bank counts included), the Fig 8 latency
        // multipliers — and one odd geometry no target uses, for the
        // division fallbacks.
        let base = MachineConfig::default();
        let mut cfgs = vec![base.clone()];
        for threads in 1..=8 {
            cfgs.extend((0..threads).map(|w| base.shard_slice_for(threads, w)));
        }
        for factor in [1.0, 3.0, 5.0, 7.0, 9.0] {
            let slow = base.with_nvram_latency_multiplier(factor);
            cfgs.push(slow.shard_slice_for(2, 0));
            cfgs.push(slow);
        }
        let mut odd = base.clone();
        odd.freq_ghz = 2.3;
        odd.nvram.row_buffer_bytes = 1536;
        odd.dram.banks = 7;
        cfgs.push(odd);

        let mut rng = SmallRng::seed_from_u64(0x71);
        for cfg in &cfgs {
            let mut timing = MemTiming::new(cfg);
            let mut stats = MachineStats::new();
            let mut dram = RefChannel::new(cfg.dram);
            let mut nvram = RefChannel::new(cfg.nvram);
            for (mem, tech) in [(MemKind::Dram, cfg.dram), (MemKind::Nvram, cfg.nvram)] {
                assert_eq!(
                    timing.array_cycles(mem, AccessKind::Read),
                    cfg.ns_to_cycles(tech.read_ns)
                );
                assert_eq!(
                    timing.array_cycles(mem, AccessKind::Write),
                    cfg.ns_to_cycles(tech.write_ns)
                );
            }
            let (mut hits, mut misses) = (0u64, 0u64);
            for _ in 0..4_000 {
                let mem = if rng.gen_range(0..2u32) == 0 {
                    MemKind::Dram
                } else {
                    MemKind::Nvram
                };
                let kind = if rng.gen_range(0..2u32) == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                // Clustered so rows re-open, wide so every bank is used.
                let addr =
                    PhysAddr::new(rng.gen_range(0..64u64) * 37 * 1024 + rng.gen_range(0..4096u64));
                let reference = match mem {
                    MemKind::Dram => &mut dram,
                    MemKind::Nvram => &mut nvram,
                };
                let (ns, hit, _row) = reference.access(addr, kind);
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                assert_eq!(
                    timing.access_cycles(&mut stats, mem, addr, kind),
                    cfg.ns_to_cycles(ns),
                    "{mem:?} {kind:?} at {addr:?}"
                );
                assert_eq!((stats.row_hits, stats.row_misses), (hits, misses));
            }
            assert!(hits > 0 && misses > 0);
        }
    }

    #[test]
    fn nvram_write_slower_than_read() {
        let (_, mut t, mut s) = setup();
        let addr = PhysAddr::new(0x1000);
        // Prime the row so both accesses are row hits.
        t.access_cycles(&mut s, MemKind::Nvram, addr, AccessKind::Read);
        let r = t.access_cycles(&mut s, MemKind::Nvram, addr, AccessKind::Read);
        let w = t.access_cycles(&mut s, MemKind::Nvram, addr, AccessKind::Write);
        assert!(w > r, "NVRAM write ({w}) should exceed read ({r})");
    }

    #[test]
    fn row_buffer_hit_is_cheaper() {
        let (_, mut t, mut s) = setup();
        let addr = PhysAddr::new(0);
        let first = t.access_cycles(&mut s, MemKind::Dram, addr, AccessKind::Read);
        let second = t.access_cycles(&mut s, MemKind::Dram, addr, AccessKind::Read);
        assert!(second < first);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_misses, 1);
    }

    #[test]
    fn distinct_rows_conflict_in_same_bank() {
        let (cfg, mut t, mut s) = setup();
        let row_bytes = cfg.dram.row_buffer_bytes as u64;
        let banks = cfg.dram.banks as u64;
        let a = PhysAddr::new(0);
        // Same bank (row difference is a multiple of the bank count), so
        // alternating accesses never hit the row buffer.
        let b = PhysAddr::new(row_bytes * banks);
        for _ in 0..3 {
            t.access_cycles(&mut s, MemKind::Dram, a, AccessKind::Read);
            t.access_cycles(&mut s, MemKind::Dram, b, AccessKind::Read);
        }
        assert_eq!(s.row_hits, 0);
        assert_eq!(s.row_misses, 6);
    }

    #[test]
    fn reset_clears_open_rows() {
        let (_, mut t, mut s) = setup();
        let addr = PhysAddr::new(0x40);
        t.access_cycles(&mut s, MemKind::Nvram, addr, AccessKind::Read);
        t.reset();
        t.access_cycles(&mut s, MemKind::Nvram, addr, AccessKind::Read);
        assert_eq!(s.row_hits, 0);
        assert_eq!(s.row_misses, 2);
    }

    #[test]
    fn recording_is_off_by_default_and_captures_when_enabled() {
        let (cfg, mut t, mut s) = setup();
        t.access_cycles(&mut s, MemKind::Nvram, PhysAddr::new(0), AccessKind::Write);
        assert!(!t.recording());
        assert!(t.take_events().is_empty(), "disabled model records nothing");

        let mut icfg = cfg.clone();
        icfg.interconnect = crate::config::InterconnectConfig::shared();
        let mut t = MemTiming::new(&icfg);
        assert!(t.recording());
        t.set_now(500);
        t.access_cycles(
            &mut s,
            MemKind::Nvram,
            PhysAddr::new(4096),
            AccessKind::Write,
        );
        t.set_now(5000);
        t.access_cycles(&mut s, MemKind::Dram, PhysAddr::new(64), AccessKind::Read);
        let events = t.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, 500);
        assert_eq!(events[0].mem, MemKind::Nvram);
        assert!(events[0].write);
        assert_eq!(events[0].row, 4096 / icfg.nvram.row_buffer_bytes as u64);
        assert_eq!(events[1].at, 5000);
        assert!(!events[1].write);
        assert!(t.take_events().is_empty(), "take drains the stream");
    }

    #[test]
    fn recorded_arrivals_are_paced_by_service_time() {
        // A burst issued "at the same instant" (background write-back
        // charges no core cycles) must still arrive one service time
        // apart — the shard has one controller port.
        let cfg = MachineConfig {
            interconnect: crate::config::InterconnectConfig::shared(),
            ..MachineConfig::default()
        };
        let mut t = MemTiming::new(&cfg);
        let mut s = MachineStats::new();
        t.set_now(100);
        for i in 0..3u64 {
            t.access_cycles(
                &mut s,
                MemKind::Nvram,
                PhysAddr::new(i * 4096),
                AccessKind::Write,
            );
        }
        let events = t.take_events();
        assert_eq!(events[0].at, 100);
        assert!(events[1].at > events[0].at);
        assert!(events[2].at > events[1].at);
        let miss = cfg.ns_to_cycles(cfg.nvram.write_ns + cfg.nvram.row_miss_penalty_ns);
        assert_eq!(events[1].at - events[0].at, miss);
    }

    #[test]
    fn reset_discards_recorded_events() {
        let cfg = MachineConfig {
            interconnect: crate::config::InterconnectConfig::shared(),
            ..MachineConfig::default()
        };
        let mut t = MemTiming::new(&cfg);
        let mut s = MachineStats::new();
        t.access_cycles(&mut s, MemKind::Nvram, PhysAddr::new(0), AccessKind::Write);
        t.reset();
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn llc_probes_record_only_when_the_actors_are_on() {
        let (cfg, mut t, _s) = setup();
        assert!(!t.llc_recording());
        t.record_llc_probe(7, MemKind::Nvram, true, true);
        let mut buf = Vec::new();
        t.swap_llc_events(&mut buf);
        assert!(buf.is_empty(), "plain shared() records no probes");

        let mut icfg = cfg.clone();
        icfg.interconnect = crate::config::InterconnectConfig::shared_hierarchy();
        let mut t = MemTiming::new(&icfg);
        assert!(t.llc_recording());
        t.set_now(123);
        t.record_llc_probe(7, MemKind::Dram, false, true);
        t.swap_llc_events(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].at, 123);
        assert!(buf[0].private_hit);
        t.record_llc_probe(8, MemKind::Nvram, true, false);
        t.reset();
        t.swap_llc_events(&mut buf);
        assert!(buf.is_empty(), "reset discards LLC probes");
    }

    #[test]
    fn dram_and_nvram_channels_are_independent() {
        let (_, mut t, mut s) = setup();
        let addr = PhysAddr::new(0);
        t.access_cycles(&mut s, MemKind::Dram, addr, AccessKind::Read);
        // The NVRAM channel has not opened this row yet.
        t.access_cycles(&mut s, MemKind::Nvram, addr, AccessKind::Read);
        assert_eq!(s.row_misses, 2);
    }
}
