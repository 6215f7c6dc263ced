//! The hierarchy against its specification ([`spec`](super::spec)), step
//! by step: the set array against the spec's [`Sets`], and the whole
//! hierarchy against [`Spec`] over random and forced multi-core streams.
//! After every step both must agree on the operation's result, cycle
//! count, spills, counters, dirty-line count and recorded memory and LLC
//! events, and the live L3's overlay must hold an entry for exactly its
//! `FLAG_OVERLAY` slots; at the end, on every byte that reached memory.
//! Release builds run ten times the rounds of the forced suites.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::spec::{Sets, Slot, Spec};
use super::tests::nv_addr;
use super::*;
use crate::config::{CacheConfig, InterconnectConfig};
use crate::timing::MemTiming;

impl SetAssoc {
    /// The set the slot at `at` belongs to.
    fn set_of(&self, at: Loc) -> usize {
        at.idx / self.ways
    }

    /// Copies out the slot at `at` — occupied, or vacated by a `remove`
    /// and not claimed since.
    fn slot(&self, at: Loc) -> Slot {
        Slot::new(
            self.tags[at.idx],
            self.is_dirty(at),
            self.is_tx(at),
            *self.line(at),
        )
    }

    /// Inserts a slot as MRU the way the hierarchy does — `claim`, then
    /// fill the payload; returns where it landed and the victim if the
    /// set was full. A slot that bounces comes straight back as its own
    /// victim, with no location.
    pub(super) fn insert(&mut self, slot: Slot) -> (Option<Loc>, Option<Slot>) {
        let set = self.set_index(slot.line);
        let flags = (if slot.dirty { FLAG_DIRTY } else { 0 }) | (if slot.tx { FLAG_TX } else { 0 });
        let Some((at, displaced)) = self.claim(set, slot.line, flags) else {
            return (None, Some(slot));
        };
        let victim = displaced.map(|v| {
            let (dirty, tx) = (v.flags & FLAG_DIRTY != 0, v.flags & FLAG_TX != 0);
            Slot::new(v.line, dirty, tx, *self.line(at))
        });
        *self.line_mut(at) = slot.data;
        (Some(at), victim)
    }

    /// The occupied slots' lines whose flags hold `flag`.
    fn lines_flagged(&self, flag: u8) -> Vec<u64> {
        let set = |set| (0..self.len[set] as usize).map(move |pos| self.loc_at(set, pos));
        let slots = (0..self.nsets).flat_map(set);
        slots
            .filter(|at| self.flags[at.idx] & flag != 0)
            .map(|at| self.tags[at.idx])
            .collect()
    }

    /// Per set, its lines MRU-first: the spec's layout.
    pub(super) fn dump(&self) -> Vec<Vec<Slot>> {
        let set =
            |set| (0..self.len[set] as usize).map(move |pos| self.slot(self.loc_at(set, pos)));
        (0..self.nsets).map(|s| set(s).collect()).collect()
    }
}

pub(super) fn soa_layout_matches_reference_model_on_random_streams() {
    // Small geometry so sets overflow constantly, over several
    // (sets, ways) shapes including single-way degenerate sets.
    for (sets, ways, seed) in [(4usize, 3usize, 1u64), (2, 1, 2), (1, 8, 3), (8, 2, 4)] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut soa = SetAssoc::new(sets, ways, Role::Data);
        let mut spec = Sets::new(sets, ways);
        for step in 0..4000u32 {
            let line = rng.gen_range(0..(sets as u64 * ways as u64 * 3)) * LINE_SIZE as u64;
            match rng.gen_range(0..10u32) {
                // Promote + mutate flags through both models.
                0..=2 => {
                    let byte = (step % 251) as u8;
                    let a = soa.find_promote(line);
                    let b = spec.touch(line);
                    assert_eq!(a.is_some(), b.is_some(), "lookup presence @{step}");
                    if let (Some(at), Some(slot)) = (a, b) {
                        soa.set_flag(at, FLAG_DIRTY, true);
                        soa.line_mut(at)[0] = byte;
                        slot.dirty = true;
                        slot.data[0] = byte;
                    }
                }
                3 => {
                    let a = soa.peek(line).map(|at| soa.slot(at).line);
                    let b = spec.peek(line).map(|s| s.line);
                    assert_eq!(a, b, "peek @{step}");
                }
                4 => {
                    // The vacated slot is read where it lies.
                    let a = soa.remove(line).map(|at| soa.slot(at));
                    assert_eq!(a, spec.remove(line), "remove @{step}");
                }
                5 => {
                    if step % 97 == 0 {
                        soa.clear();
                        spec = Sets::new(sets, ways);
                    }
                }
                _ => {
                    // Insert (skipping duplicates, as every caller does).
                    if spec.peek(line).is_some() {
                        continue;
                    }
                    let slot = Slot::new(
                        line,
                        rng.gen_range(0..2u32) == 1,
                        rng.gen_range(0..3u32) == 1,
                        [(step % 251) as u8; LINE_SIZE],
                    );
                    let (at, a) = soa.insert(slot.clone());
                    // A placed slot is reported where a probe finds it.
                    let bounced = a.as_ref().is_some_and(|v| v.line == line);
                    assert_eq!(at.map(|at| at.idx), soa.peek(line).map(|at| at.idx));
                    assert_eq!(at.is_none(), bounced, "location @{step}");
                    let b = spec.insert(slot);
                    assert_eq!(a, b, "victim @{step} (sets={sets}, ways={ways})");
                }
            }
            assert_eq!(
                soa.dump(),
                spec.sets,
                "state diverged @{step} (sets={sets}, ways={ways})"
            );
        }
    }
}

fn level(sets: usize, ways: usize, latency_cycles: u64) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * ways * LINE_SIZE,
        ways,
        latency_cycles,
    }
}

/// A hierarchy small enough that every level overflows constantly:
/// 2×2-line L1s, 4×2 L2 tags and a 3-set (reciprocal-indexed) 8-way L3.
fn tiny_cfg(cores: usize) -> MachineConfig {
    MachineConfig {
        cores,
        l1: level(2, 2, 4),
        l2: level(4, 2, 6),
        l3: level(3, 8, 27),
        ..MachineConfig::default()
    }
}

/// The live hierarchy with everything an access needs.
struct Live {
    port: MemPort,
    stats: MachineStats,
    cache: CacheHierarchy,
}

/// The live hierarchy and the spec behind one call each, compared after
/// every step.
struct Lockstep {
    cfg: MachineConfig,
    live: Live,
    spec: Spec,
    step: u32,
    /// Memory and LLC events compared so far.
    events: usize,
}

/// `op` over `buf`'s span of a line: a write of `data`, else a read.
fn op<'a>(offset: usize, buf: &'a mut [u8], data: Option<&'a [u8]>) -> LineOp<'a> {
    match data {
        Some(data) => LineOp::Write { offset, data },
        None => LineOp::Read { offset, buf },
    }
}

fn lines(spills: &[TxEviction]) -> Vec<(PhysAddr, [u8; LINE_SIZE])> {
    spills.iter().map(|e| (e.line, e.data)).collect()
}

impl Lockstep {
    fn new(cores: usize) -> Self {
        Self::with_cfg(tiny_cfg(cores))
    }

    fn with_cfg(cfg: MachineConfig) -> Self {
        Self {
            live: Live {
                port: MemPort::new(&cfg),
                stats: MachineStats::new(),
                cache: CacheHierarchy::new(&cfg),
            },
            spec: Spec::new(&cfg),
            cfg,
            step: 0,
            events: 0,
        }
    }

    /// Names the next step in failure messages.
    fn what(&mut self, op: std::fmt::Arguments<'_>) -> String {
        self.step += 1;
        format!("step {} of {} core(s): {op}", self.step, self.cfg.cores)
    }

    /// Reads the line's second word, or writes `(byte, tx)` over it.
    fn access(&mut self, core: usize, addr: u64, write: Option<(u8, bool)>) {
        self.access_span(core, addr, 8..16, write);
    }

    /// Reads `span` of `addr`'s line, or writes `(byte, tx)` over it.
    fn access_span(
        &mut self,
        core: usize,
        addr: u64,
        span: Range<usize>,
        write: Option<(u8, bool)>,
    ) {
        let what = self.what(format_args!("{core} {addr:#x}[{span:?}] {write:?}"));
        let (core, addr, offset) = (CoreId::new(core), PhysAddr::new(addr), span.start);
        let tx = write.is_some_and(|(_, tx)| tx);
        let bytes = [write.map_or(0, |(byte, _)| byte); LINE_SIZE];
        let data = write.map(|_| &bytes[span.clone()]);
        let (mut a, mut b) = ([0u8; LINE_SIZE], [0u8; LINE_SIZE]);
        let l = &mut self.live;
        let live = l.cache.access(
            core,
            addr,
            op(offset, &mut a[span.clone()], data),
            tx,
            &self.cfg,
            &mut l.port,
            &mut l.stats,
        );
        let (cycles, spills) = self
            .spec
            .access(core, addr, op(offset, &mut b[span], data), tx);
        assert_eq!(a, b, "bytes, {what}");
        assert_eq!(live.cycles, cycles, "cycles, {what}");
        self.check(&spills, &what);
    }

    fn flush(&mut self, addr: u64) {
        let what = self.what(format_args!("flush {addr:#x}"));
        let (addr, class, l) = (PhysAddr::new(addr), WriteClass::Data, &mut self.live);
        let a = l.cache.flush_line(addr, class, &mut l.port, &mut l.stats);
        assert_eq!(a, self.spec.flush_line(addr, class), "flush, {what}");
        self.check(&[], &what);
    }

    /// Retags `core`'s copy of `old` to `new`; returns whether it held
    /// one and how many lines the retag spilled.
    fn retag(&mut self, core: usize, old: u64, new: u64) -> (bool, usize) {
        let what = self.what(format_args!("{core} retag {old:#x} -> {new:#x}"));
        let (core, old, new) = (CoreId::new(core), PhysAddr::new(old), PhysAddr::new(new));
        let l = &mut self.live;
        let held = l.cache.retag(core, old, new, &mut l.port, &mut l.stats);
        let spills = self.spec.retag(core, old, new);
        assert_eq!(held, spills.is_some(), "presence, {what}");
        let spills = spills.unwrap_or_default();
        self.check(&spills, &what);
        (held, spills.len())
    }

    fn install(&mut self, addr: u64, byte: u8) {
        let what = self.what(format_args!("install {addr:#x} {byte}"));
        let (addr, data, l) = (PhysAddr::new(addr), [byte; LINE_SIZE], &mut self.live);
        l.cache
            .install_line_l3(addr, data, &mut l.port, &mut l.stats);
        let spills = self.spec.install_line_l3(addr, data);
        self.check(&spills, &what);
    }

    fn clear_tx(&mut self, addr: u64) {
        let what = self.what(format_args!("clear_tx {addr:#x}"));
        self.live.cache.clear_tx(PhysAddr::new(addr));
        self.spec.clear_tx(PhysAddr::new(addr));
        self.check(&[], &what);
    }

    fn discard(&mut self, addr: u64) {
        let what = self.what(format_args!("discard {addr:#x}"));
        self.live.cache.discard_line(PhysAddr::new(addr));
        self.spec.discard_line(PhysAddr::new(addr));
        self.check(&[], &what);
    }

    /// Writes `byte` over `addr`'s line in memory behind the hierarchy,
    /// as `Machine`'s uncached writes do: the spec's L3 copy keeps its
    /// bytes, and the live side says so first. Neither side times or
    /// counts it, so both stay comparable; the port's latch still holds.
    fn behind(&mut self, addr: u64, byte: u8) {
        let what = self.what(format_args!("behind {addr:#x} {byte}"));
        let (a, data, l) = (PhysAddr::new(addr), [byte; LINE_SIZE], &mut self.live);
        l.cache.before_memory_write(a, l.port.mem());
        l.port.write(&mut l.stats, a, &data, None);
        if !self.spec.power_lost {
            self.spec.mem.write_unported(a, &data);
        }
        self.check(&[], &what);
    }

    /// A power cut: both memories drop every write until the next crash.
    fn cut_power(&mut self) {
        let what = self.what(format_args!("cut power"));
        self.live.port.cut_power();
        self.spec.power_lost = true;
        self.check(&[], &what);
    }

    fn crash(&mut self) {
        let what = self.what(format_args!("crash"));
        self.live.port.crash();
        self.live.cache.crash();
        self.spec.crash();
        self.check(&[], &what);
    }

    /// Compares what a step left behind besides its result: the spills
    /// (emptying the live buffer, as the machine does), the counters, the
    /// dirty lines and the memory and LLC events recorded. And the live
    /// overlay holds an entry for exactly the L3 slots flagged for one.
    fn check(&mut self, spills: &[TxEviction], what: &str) {
        let (l, spec) = (&mut self.live, &mut self.spec);
        let flagged = l.cache.l3.lines_flagged(FLAG_OVERLAY);
        assert_eq!(flagged.len(), l.cache.overlay.len(), "overlay size, {what}");
        let overlay = &l.cache.overlay;
        assert!(
            flagged.iter().all(|line| overlay.contains_key(line)),
            "overlay, {what}"
        );
        assert_eq!(lines(&l.cache.spills), lines(spills), "spills, {what}");
        l.cache.spills.clear();
        assert_eq!(l.stats, spec.stats, "stats, {what}");
        let dirty = (l.cache.dirty_lines(), spec.dirty_lines());
        assert_eq!(dirty.0, dirty.1, "dirty lines, {what}");
        let events = |timing: &mut MemTiming| {
            let (mut mem, mut llc) = (Vec::new(), Vec::new());
            timing.swap_events(&mut mem);
            timing.swap_llc_events(&mut llc);
            (mem, llc)
        };
        let (a, b) = (events(&mut l.port.timing), events(&mut spec.timing));
        assert_eq!(a, b, "memory and LLC events, {what}");
        self.events += a.0.len() + a.1.len();
    }

    /// Asserts both memories hold the same bytes at every line of `lines`.
    fn same_memory(&self, lines: impl IntoIterator<Item = u64>) {
        for line in lines {
            let a = PhysAddr::new(line);
            assert_eq!(
                self.live.port.mem().read_line(a.ppn(), a.line_index()),
                self.spec.mem.read_line(a.ppn(), a.line_index()),
                "memory at {a:?} ({} core(s))",
                self.cfg.cores
            );
        }
    }
}

pub(super) fn directory_in_l3_matches_the_hash_map_model_on_random_streams() {
    // 40 lines over both memories; only the first six are ever made
    // transactional (written TX or retagged *to*), so an 8-way L3 set
    // can never fill with TX lines — the one state in which both
    // models panic by design.
    let addrs: Vec<u64> = (0..40u64)
        .map(|i| {
            if i % 3 == 0 {
                i * 64
            } else {
                nv_addr(i / 8, i % 8 * 5)
            }
        })
        .collect();
    const TX_POOL: usize = 6;
    // The last machine shares its hierarchy over the interconnect, so its
    // timing model records every memory access and L3 demand probe.
    let shared = MachineConfig {
        interconnect: InterconnectConfig::shared_hierarchy(),
        ..tiny_cfg(4)
    };
    let cfgs = [tiny_cfg(1), tiny_cfg(2), tiny_cfg(4), tiny_cfg(9), shared];

    for (cfg, seed) in cfgs.into_iter().zip(11u64..) {
        let (cores, recording) = (cfg.cores, cfg.interconnect.enabled);
        let mut m = Lockstep::with_cfg(cfg);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Memory written behind the hierarchy and power cuts (the port's
        // latch set until the next crash), from a stream of their own.
        let mut behind = SmallRng::seed_from_u64(seed + 100);
        for step in 0..5_000u32 {
            match behind.gen_range(0..100u32) {
                0..=3 => m.behind(addrs[behind.gen_range(0..addrs.len())], behind.gen()),
                4 if step % 10 == 0 => m.cut_power(),
                _ => {}
            }
            let core = rng.gen_range(0..cores);
            let pick = rng.gen_range(0..addrs.len());
            let addr = addrs[pick];
            match rng.gen_range(0..100u32) {
                // Read: any sub-range of the line.
                0..=34 => {
                    let offset = rng.gen_range(0..LINE_SIZE);
                    let len = rng.gen_range(1..=LINE_SIZE - offset);
                    m.access_span(core, addr, offset..offset + len, None);
                }
                // Write: any sub-range; TX only inside the pool.
                35..=69 => {
                    let offset = rng.gen_range(0..LINE_SIZE);
                    let len = rng.gen_range(1..=LINE_SIZE - offset);
                    let tx = pick < TX_POOL && rng.gen_range(0..2u32) == 0;
                    let write = Some(((step % 251) as u8, tx));
                    m.access_span(core, addr, offset..offset + len, write);
                }
                70..=79 => m.flush(addr),
                80..=86 => {
                    let to = addrs[rng.gen_range(0..TX_POOL)];
                    if to != addr {
                        m.retag(core, addr, to);
                    }
                }
                87..=90 => m.discard(addr),
                91..=95 => m.clear_tx(addr),
                96..=98 => m.install(addr, (step % 249) as u8),
                _ => {
                    if step % 7 == 0 {
                        m.crash();
                    }
                }
            }
        }
        // What reached memory is the same, line for line.
        m.same_memory(addrs.iter().copied());
        assert!(m.live.stats.coherence_invalidations > 0 || cores == 1);
        assert!(m.live.stats.writebacks > 0 && m.live.stats.l3_hits > 0);
        assert_eq!(m.events > 0, recording, "events recorded");
    }
}

/// What the in-place fill decides, each case forced rather than left
/// to chance, against the same model as the random streams above.
/// Ten times the rounds in a release build.
pub(super) fn cold_fills_match_the_hash_map_model() {
    // The tiny L1 has two sets (line number mod 2) of two ways. Lines
    // that go transactional, by L1 set — six in all, so an 8-way L3
    // set never fills with them — and plain lines to sweep.
    let tx_lines = [
        [0, nv_addr(0, 10), nv_addr(0, 20)],
        [3 * 64, nv_addr(0, 5), nv_addr(0, 25)],
    ];
    let plain = |rng: &mut SmallRng| match rng.gen_range(0..3u32) {
        0 => (8 + rng.gen_range(0..24u64)) * 64,
        _ => nv_addr(1 + rng.gen_range(0..3u64), rng.gen_range(0..64u64)),
    };
    let rounds = if cfg!(debug_assertions) { 300 } else { 3_000 };

    for (cores, seed) in [(1usize, 21u64), (2, 22), (3, 23)] {
        let mut m = Lockstep::new(cores);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..rounds {
            let core = rng.gen_range(0..cores);
            match rng.gen_range(0..6u32) {
                // A power cut, then a sequential sweep three times the
                // L1: every fill lands in a set last used before the
                // clear, and from the fifth on evicts a clean victim.
                0 => {
                    m.crash();
                    let base = plain(&mut rng) & !0xfff;
                    for i in 0..12 {
                        m.access(core, base + i * 64, None);
                    }
                    let l1 = &m.live.cache.l1[core];
                    assert!(l1.peek(base + 11 * 64).is_some() && l1.peek(base).is_none());
                }
                // An L1 set filled with TX lines, then plain fills of
                // it: each bounces, a write's bytes reaching the L3
                // copy through `evict_from_l1`.
                1 => {
                    let set = rng.gen_range(0..2usize);
                    let skip = rng.gen_range(0..3usize);
                    let held = (0..3).filter(|&i| i != skip).map(|i| tx_lines[set][i]);
                    for line in held.clone() {
                        m.access(core, line, Some((rng.gen(), true)));
                    }
                    let bounced = (plain(&mut rng) & !64) | ((set as u64) * 64);
                    m.access(core, bounced, None);
                    m.access(core, bounced, Some((rng.gen(), false)));
                    m.access(core, bounced, None);
                    let l1 = &m.live.cache.l1[core];
                    assert!(l1.peek(bounced).is_none(), "the line bounced");
                    assert!(held.clone().all(|line| l1.peek(line).is_some()));
                    // A TX fill of the full set instead evicts its LRU
                    // TX line, which leaves dirty.
                    m.access(core, tx_lines[set][skip], Some((rng.gen(), true)));
                    for line in tx_lines[set] {
                        m.clear_tx(line);
                    }
                }
                // Write misses, plain and TX, cold or not.
                2 => m.access(core, plain(&mut rng), Some((rng.gen(), false))),
                3 => {
                    let line = tx_lines[rng.gen_range(0..2usize)][rng.gen_range(0..3usize)];
                    m.access(core, line, Some((rng.gen(), true)));
                    if rng.gen_bool(0.5) {
                        m.clear_tx(line);
                    }
                }
                // A fill from an L3 copy that is TX: another core's
                // read recalls the dirty TX line into the L3 and fills
                // from there, entering its L1 transactional.
                4 if cores > 1 => {
                    let line = tx_lines[rng.gen_range(0..2usize)][rng.gen_range(0..3usize)];
                    m.clear_tx(line);
                    m.access(core, line, Some((rng.gen(), true)));
                    let other = (core + 1) % cores;
                    m.access(other, line, None);
                    let l1 = &m.live.cache.l1[other];
                    assert!(l1.is_tx(l1.peek(line).expect("filled")));
                    m.clear_tx(line);
                }
                _ => m.access(core, plain(&mut rng), None),
            }
        }
        let pages = (1..4).flat_map(|page| (0..64).map(move |line| nv_addr(page, line)));
        let dram = (0..32).map(|line| line * 64);
        m.same_memory(tx_lines.into_iter().flatten().chain(dram).chain(pages));
        assert!(m.live.stats.writebacks > 0 && m.live.stats.l3_hits > 0);
    }
}

/// What a retag decides, each case forced, against the same model:
/// which way the re-keyed line lands on, whose stale copies go, and
/// how the line its L3 claim displaces leaves.
pub(super) fn retags_match_the_hash_map_model() {
    // DRAM line `n`: L1 set `n % 2`, L3 set `n % 3` of the tiny
    // hierarchy.
    let ln = |n: u64| n * 64;
    let rounds: u32 = if cfg!(debug_assertions) { 20 } else { 200 };
    for round in 0..rounds {
        let byte = round as u8;
        let mut m = Lockstep::new(2);

        // A stale copy of the new identity in the core's own L1, in
        // the set the re-keyed line stays in: the claim lands on the
        // stale copy's way, not on the one just vacated.
        let (old, new) = (ln(4), ln(6));
        m.access(0, new, None);
        m.access(0, old, Some((byte, round % 2 == 0)));
        let l1 = &m.live.cache.l1[0];
        let (from, stale) = (l1.peek(old).expect("held"), l1.peek(new).expect("stale"));
        assert_eq!(l1.set_of(from), l1.set_of(stale));
        assert_eq!(m.retag(0, old, new), (true, 0));
        let l1 = &m.live.cache.l1[0];
        assert_eq!(l1.peek(new).expect("re-keyed").idx, stale.idx);
        assert!(l1.peek(old).is_none());
        m.access(0, new, None);
        m.access(0, old, None);

        // The stale copy in another core's L1 — clean, or dirty and
        // owned: it goes without a write-back, and that core's next
        // read recalls the re-keyed line from this one.
        m.crash();
        let (old, new) = (ln(8), ln(10));
        let stale_dirty = round % 3 == 0;
        m.access(1, new, stale_dirty.then_some((!byte, false)));
        m.access(0, old, Some((byte, false)));
        let from = m.live.cache.l1[0].peek(old).expect("held");
        let before = m.live.stats.writebacks;
        assert_eq!(m.retag(0, old, new), (true, 0));
        assert!(m.live.cache.l1[1].peek(new).is_none(), "stale copy dropped");
        assert_eq!(m.live.stats.writebacks, before);
        // With nothing else leaving the set, the line stayed where it was.
        assert_eq!(
            m.live.cache.l1[0].peek(new).expect("re-keyed").idx,
            from.idx
        );
        m.access(1, new, None);
        m.access(1, old, None);

        // The L3 claim displaces a dirty plain line: L3 set 0 is full
        // of them — dirty in the L3 or under a dirty L1 copy — when
        // line 30 is retagged into it. Written back, not spilled.
        m.crash();
        for n in (0..24).step_by(3) {
            m.access((round % 2) as usize, ln(n), Some((byte ^ n as u8, false)));
        }
        m.access(0, ln(31), Some((byte, true)));
        let before = m.live.stats.writebacks;
        assert_eq!(m.retag(0, ln(31), ln(30)), (true, 0));
        assert_eq!(m.live.stats.writebacks, before + 1);
        m.clear_tx(ln(30));

        // ... and a line dirty and TX in another core's L1, which the
        // L3 — its own copy clean and plain — picks as LRU: the fresh
        // bytes spill from that L1.
        m.crash();
        m.access(1, ln(0), Some((byte, true)));
        for n in (3..24).step_by(3) {
            m.access(
                0,
                ln(n),
                if n % 2 == 0 {
                    None
                } else {
                    Some((byte, false))
                },
            );
        }
        m.access(0, ln(31), Some((byte, true)));
        let before = m.live.stats.writebacks;
        assert_eq!(m.retag(0, ln(31), ln(30)), (true, 1));
        assert_eq!(m.live.stats.writebacks, before);
        assert!(m.live.cache.l1[1].peek(ln(0)).is_none(), "back-invalidated");
        m.clear_tx(ln(30));
        for n in (0..33).step_by(3) {
            m.access(1, ln(n), None);
        }
        assert_eq!(m.retag(0, ln(31), ln(30)), (false, 0), "nothing to retag");

        // A 128-set L1: a page's lines index half the sets, so a line
        // retagged to the page after it changes set — into a free way,
        // or over the LRU of two residents that leaves clean or dirty.
        let mut m = Lockstep::with_cfg(MachineConfig {
            l1: level(128, 2, 4),
            l3: level(96, 8, 27),
            ..tiny_cfg(2)
        });
        let line = u64::from(round % 64);
        let (old, new) = (nv_addr(2, line), nv_addr(3, line));
        let residents = round as usize % 3;
        for page in [5, 7].into_iter().take(residents) {
            m.access(
                0,
                nv_addr(page, line),
                (round % 2 == 0).then_some((byte, false)),
            );
        }
        m.access(0, old, Some((byte, false)));
        let l1 = &m.live.cache.l1[0];
        let from = l1.peek(old).expect("held");
        assert_ne!(l1.set_of(from), l1.set_index(new), "the retag changes set");
        assert_eq!(m.retag(0, old, new), (true, 0));
        let l1 = &m.live.cache.l1[0];
        assert_eq!(
            l1.set_of(l1.peek(new).expect("re-keyed")),
            l1.set_index(new)
        );
        assert!(l1.peek(old).is_none());
        assert_eq!(l1.peek(nv_addr(5, line)).is_some(), residents == 1);
        for page in [2, 3, 5, 7] {
            m.access((round % 2) as usize, nv_addr(page, line), None);
        }
    }
}
