//! The crash-testing oracle.
//!
//! [`Oracle`] mirrors the *committed* contents of the persistent heap at
//! byte granularity. Tests record every store alongside the engine, fold
//! them in at commit, and after an injected crash + recovery compare what
//! the engine reads against the oracle: committed transactions must be
//! fully visible, uncommitted ones fully invisible.
//!
//! # Layout
//!
//! Committed state is kept per 4 KiB page: the page's bytes plus a
//! one-bit-per-byte *written* map, so folding a store is a slice copy and
//! a few word ORs, cloning is one `memcpy` per touched page, and
//! [`Oracle::verify`] walks set-bit runs instead of a per-byte tree.
//! In-flight stores sit in one flat arena per core (`(addr, len)` spans
//! over a reused byte buffer).
//!
//! A power cut that lands inside a transaction leaves two legal outcomes.
//! The driver checks them without copying the oracle: the rolled-back
//! outcome *is* the committed state, and the survived outcome is
//! [`Oracle::on_commit_undoable`] — the fold applied in place, with the
//! touched pages saved so [`Oracle::revert`] can take it back.

use std::collections::BTreeMap;

use ssp_simulator::addr::{VirtAddr, Vpn, PAGE_SIZE};
use ssp_simulator::cache::CoreId;

use crate::engine::TxnEngine;

const WORDS: usize = PAGE_SIZE / 64;

/// One page of committed state: its bytes, and which of them a committed
/// transaction ever wrote (bit `i % 64` of word `i / 64`).
#[derive(Clone)]
struct OraclePage {
    bytes: [u8; PAGE_SIZE],
    written: [u64; WORDS],
}

impl OraclePage {
    fn zeroed() -> Box<Self> {
        Box::new(Self {
            bytes: [0; PAGE_SIZE],
            written: [0; WORDS],
        })
    }

    /// Marks `lo..hi` written; returns how many of those bytes were not
    /// written before.
    fn mark_written(&mut self, lo: usize, hi: usize) -> usize {
        let mut fresh = 0;
        for w in lo / 64..=(hi - 1) / 64 {
            let from = lo.max(w * 64) - w * 64;
            let to = hi.min((w + 1) * 64) - w * 64;
            let mask = (!0u64 >> (64 - (to - from))) << from;
            fresh += (mask & !self.written[w]).count_ones() as usize;
            self.written[w] |= mask;
        }
        fresh
    }

    /// The first offset at or after `from` whose written bit equals
    /// `set`, or `PAGE_SIZE` if there is none.
    fn next_offset(&self, from: usize, set: bool) -> usize {
        let mut off = from;
        while off < PAGE_SIZE {
            let w = off / 64;
            let word = if set {
                self.written[w]
            } else {
                !self.written[w]
            };
            let rest = word & (!0u64 << (off % 64));
            if rest != 0 {
                return w * 64 + rest.trailing_zeros() as usize;
            }
            off = (w + 1) * 64;
        }
        PAGE_SIZE
    }
}

impl std::fmt::Debug for OraclePage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let written: u32 = self.written.iter().map(|w| w.count_ones()).sum();
        f.debug_struct("OraclePage")
            .field("written_bytes", &written)
            .finish()
    }
}

/// One core's in-flight stores, in issue order: `(addr, len)` spans whose
/// data lie back to back in `bytes`. Cleared, capacity kept, at
/// commit/abort/crash.
#[derive(Debug, Clone, Default)]
struct PendingStores {
    spans: Vec<(u64, usize)>,
    bytes: Vec<u8>,
}

impl PendingStores {
    fn clear(&mut self) {
        self.spans.clear();
        self.bytes.clear();
    }
}

/// A byte-level model of committed persistent state.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    /// Committed pages by virtual page number.
    pages: BTreeMap<u64, Box<OraclePage>>,
    /// Written bytes over all pages, kept incrementally.
    committed_len: usize,
    /// In-flight stores, indexed by core.
    pending: Vec<PendingStores>,
}

/// What [`Oracle::on_commit_undoable`] overwrote: every touched page as
/// it was before the fold (`None`: the page did not exist). Handing it to
/// [`Oracle::revert`] restores the oracle exactly.
#[derive(Debug)]
pub struct CommitUndo {
    pages: Vec<(u64, Option<Box<OraclePage>>)>,
    committed_len: usize,
}

/// A divergence between the engine and the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Address of the first mismatching byte.
    pub addr: VirtAddr,
    /// The oracle's expected value.
    pub expected: u8,
    /// What the engine read.
    pub actual: u8,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence at {}: expected {:#04x}, engine read {:#04x}",
            self.addr, self.expected, self.actual
        )
    }
}

impl std::error::Error for Divergence {}

impl Oracle {
    /// Creates an empty oracle (all bytes zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a store issued by `core`'s open transaction.
    pub fn record_store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        if self.pending.len() <= core.index() {
            self.pending
                .resize_with(core.index() + 1, PendingStores::default);
        }
        let pending = &mut self.pending[core.index()];
        pending.spans.push((addr.raw(), data.len()));
        pending.bytes.extend_from_slice(data);
    }

    /// Folds `core`'s pending stores into committed state.
    pub fn on_commit(&mut self, core: CoreId) {
        self.fold(core, None);
    }

    /// [`on_commit`](Oracle::on_commit), remembering what it overwrote so
    /// the fold can be [reverted](Oracle::revert).
    pub fn on_commit_undoable(&mut self, core: CoreId) -> CommitUndo {
        let mut undo = CommitUndo {
            pages: Vec::new(),
            committed_len: self.committed_len,
        };
        self.fold(core, Some(&mut undo));
        undo
    }

    /// Takes back the fold `undo` came from. No commit may have been
    /// folded in between. The reverted stores are gone, not pending again.
    pub fn revert(&mut self, undo: CommitUndo) {
        for (vpn, before) in undo.pages {
            match before {
                Some(page) => self.pages.insert(vpn, page),
                None => self.pages.remove(&vpn),
            };
        }
        self.committed_len = undo.committed_len;
    }

    fn fold(&mut self, core: CoreId, mut undo: Option<&mut CommitUndo>) {
        let Some(pending) = self.pending.get_mut(core.index()) else {
            return;
        };
        let mut data = pending.bytes.as_slice();
        for &(addr, len) in &pending.spans {
            let (mut span, rest) = data.split_at(len);
            data = rest;
            let mut addr = VirtAddr::new(addr);
            while !span.is_empty() {
                let vpn = addr.vpn().raw();
                let off = addr.page_offset();
                let (chunk, tail) = span.split_at(span.len().min(PAGE_SIZE - off));
                if let Some(undo) = undo.as_deref_mut() {
                    if !undo.pages.iter().any(|&(saved, _)| saved == vpn) {
                        undo.pages.push((vpn, self.pages.get(&vpn).cloned()));
                    }
                }
                let page = self.pages.entry(vpn).or_insert_with(OraclePage::zeroed);
                page.bytes[off..off + chunk.len()].copy_from_slice(chunk);
                self.committed_len += page.mark_written(off, off + chunk.len());
                addr = addr.add(chunk.len() as u64);
                span = tail;
            }
        }
        pending.clear();
    }

    /// Discards `core`'s pending stores.
    pub fn on_abort(&mut self, core: CoreId) {
        if let Some(pending) = self.pending.get_mut(core.index()) {
            pending.clear();
        }
    }

    /// Discards all in-flight stores (a crash).
    pub fn on_crash(&mut self) {
        for pending in &mut self.pending {
            pending.clear();
        }
    }

    /// The committed value of a byte (0 if never written).
    pub fn committed_byte(&self, addr: VirtAddr) -> u8 {
        self.pages
            .get(&addr.vpn().raw())
            .map_or(0, |page| page.bytes[addr.page_offset()])
    }

    /// Number of distinct committed bytes tracked.
    pub fn committed_len(&self) -> usize {
        self.committed_len
    }

    /// Compares every committed byte against what `engine` reads. A
    /// contiguous run of committed bytes is loaded whole — one load per
    /// page it touches, since `engine.load` cannot span pages — and then
    /// compared; the first run holding a mismatch ends the check. The
    /// loads warm the engine's simulated caches, so their sequence is
    /// part of every storm's simulated result.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] describing the first mismatching byte.
    pub fn verify<E: TxnEngine + ?Sized>(
        &self,
        engine: &mut E,
        core: CoreId,
    ) -> Result<(), Divergence> {
        let mut actual = [0u8; PAGE_SIZE];
        // The first mismatch of the run being loaded, held back until the
        // run's last load has been issued.
        let mut diverged = None;
        for (&vpn, page) in &self.pages {
            let base = Vpn::new(vpn).base();
            let mut lo = page.next_offset(0, true);
            while lo < PAGE_SIZE {
                let hi = page.next_offset(lo, false);
                let (expected, actual) = (&page.bytes[lo..hi], &mut actual[lo..hi]);
                engine.load(core, base.add(lo as u64), actual);
                if diverged.is_none() {
                    diverged = expected
                        .iter()
                        .zip(actual.iter())
                        .position(|(e, a)| e != a)
                        .map(|i| Divergence {
                            addr: base.add((lo + i) as u64),
                            expected: expected[i],
                            actual: actual[i],
                        });
                }
                let run_goes_on = hi == PAGE_SIZE
                    && self
                        .pages
                        .get(&(vpn + 1))
                        .is_some_and(|next| next.written[0] & 1 != 0);
                if !run_goes_on {
                    if let Some(divergence) = diverged {
                        return Err(divergence);
                    }
                }
                lo = page.next_offset(hi, true);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use ssp_simulator::config::MachineConfig;
    use ssp_simulator::machine::Machine;

    use super::*;
    use crate::engine::TxnStats;

    const C0: CoreId = CoreId::new(0);
    const C1: CoreId = CoreId::new(1);

    #[test]
    fn commit_applies_pending_in_order() {
        let mut o = Oracle::new();
        o.record_store(C0, VirtAddr::new(100), &[1, 2]);
        o.record_store(C0, VirtAddr::new(101), &[9]);
        o.on_commit(C0);
        assert_eq!(o.committed_byte(VirtAddr::new(100)), 1);
        assert_eq!(o.committed_byte(VirtAddr::new(101)), 9); // later wins
    }

    #[test]
    fn abort_discards_pending() {
        let mut o = Oracle::new();
        o.record_store(C0, VirtAddr::new(50), &[7]);
        o.on_abort(C0);
        assert_eq!(o.committed_byte(VirtAddr::new(50)), 0);
    }

    #[test]
    fn cores_are_independent() {
        let mut o = Oracle::new();
        o.record_store(C0, VirtAddr::new(10), &[1]);
        o.record_store(C1, VirtAddr::new(20), &[2]);
        o.on_commit(C0);
        o.on_crash();
        assert_eq!(o.committed_byte(VirtAddr::new(10)), 1);
        assert_eq!(o.committed_byte(VirtAddr::new(20)), 0);
    }

    #[test]
    fn unwritten_bytes_default_to_zero() {
        let o = Oracle::new();
        assert_eq!(o.committed_byte(VirtAddr::new(12345)), 0);
        assert_eq!(o.committed_len(), 0);
    }

    /// The byte-map oracle this module held before it went page-granular,
    /// verbatim: the reference the lockstep tests compare against.
    #[derive(Debug, Clone, Default)]
    struct ByteMapOracle {
        committed: BTreeMap<u64, u8>,
        pending: HashMap<usize, Vec<(u64, Vec<u8>)>>,
    }

    impl ByteMapOracle {
        fn record_store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
            self.pending
                .entry(core.index())
                .or_default()
                .push((addr.raw(), data.to_vec()));
        }

        fn on_commit(&mut self, core: CoreId) {
            if let Some(writes) = self.pending.remove(&core.index()) {
                for (base, bytes) in writes {
                    for (i, b) in bytes.iter().enumerate() {
                        self.committed.insert(base + i as u64, *b);
                    }
                }
            }
        }

        fn on_abort(&mut self, core: CoreId) {
            self.pending.remove(&core.index());
        }

        fn on_crash(&mut self) {
            self.pending.clear();
        }

        fn committed_byte(&self, addr: VirtAddr) -> u8 {
            self.committed.get(&addr.raw()).copied().unwrap_or(0)
        }

        fn committed_len(&self) -> usize {
            self.committed.len()
        }

        fn verify<E: TxnEngine + ?Sized>(
            &self,
            engine: &mut E,
            core: CoreId,
        ) -> Result<(), Divergence> {
            let mut iter = self.committed.iter().peekable();
            while let Some((&start, _)) = iter.peek() {
                // Collect a contiguous run.
                let mut run = Vec::new();
                let mut next = start;
                while let Some((&a, &v)) = iter.peek() {
                    if a == next {
                        run.push(v);
                        next += 1;
                        iter.next();
                    } else {
                        break;
                    }
                }
                let mut actual = vec![0u8; run.len()];
                // Load line-by-line chunks; engine::load splits internally but
                // cannot span pages, so clip to page boundaries here.
                let mut off = 0usize;
                while off < run.len() {
                    let addr = start + off as u64;
                    let page_left = 4096 - (addr % 4096) as usize;
                    let chunk = page_left.min(run.len() - off);
                    engine.load(core, VirtAddr::new(addr), &mut actual[off..off + chunk]);
                    off += chunk;
                }
                for (i, (&exp, &act)) in run.iter().zip(actual.iter()).enumerate() {
                    if exp != act {
                        return Err(Divergence {
                            addr: VirtAddr::new(start + i as u64),
                            expected: exp,
                            actual: act,
                        });
                    }
                }
            }
            Ok(())
        }
    }

    /// A flat byte memory over the test heap (and the page after it)
    /// that records the `(addr, len)` of every load.
    struct RecordingEngine {
        machine: Machine,
        stats: TxnStats,
        memory: Vec<u8>,
        loads: Vec<(u64, usize)>,
    }

    impl RecordingEngine {
        fn new() -> Self {
            Self {
                machine: Machine::new(MachineConfig::default()),
                stats: TxnStats::default(),
                memory: vec![0; HEAP_BYTES as usize + PAGE_SIZE],
                loads: Vec::new(),
            }
        }

        fn bytes(&mut self, addr: VirtAddr, len: usize) -> &mut [u8] {
            let at = (addr.raw() - HEAP) as usize;
            &mut self.memory[at..at + len]
        }
    }

    impl TxnEngine for RecordingEngine {
        fn name(&self) -> &'static str {
            "RECORDING"
        }
        fn machine(&self) -> &Machine {
            &self.machine
        }
        fn machine_mut(&mut self) -> &mut Machine {
            &mut self.machine
        }
        fn map_new_page(&mut self, _core: CoreId) -> Vpn {
            unimplemented!("the oracle maps no pages")
        }
        fn begin(&mut self, _core: CoreId) {}
        fn load(&mut self, _core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
            assert!(
                addr.page_offset() + buf.len() <= PAGE_SIZE,
                "load crosses a page boundary"
            );
            self.loads.push((addr.raw(), buf.len()));
            buf.copy_from_slice(self.bytes(addr, buf.len()));
        }
        fn store(&mut self, _core: CoreId, addr: VirtAddr, data: &[u8]) {
            self.bytes(addr, data.len()).copy_from_slice(data);
        }
        fn commit(&mut self, _core: CoreId) {}
        fn abort(&mut self, _core: CoreId) {}
        fn crash(&mut self) {}
        fn recover(&mut self) {}
        fn in_txn(&self, _core: CoreId) -> bool {
            false
        }
        fn txn_stats(&self) -> &TxnStats {
            &self.stats
        }
    }

    /// Both oracles and a memory that holds exactly the committed bytes,
    /// fed the same seeded stream.
    struct Lockstep {
        old: ByteMapOracle,
        new: Oracle,
        engine: RecordingEngine,
        /// Stores of each core's open transaction, applied to `engine`
        /// when it commits.
        open: [Vec<(VirtAddr, Vec<u8>)>; 2],
    }

    /// Eight pages, so runs meet and cross page boundaries often.
    const HEAP: u64 = 0x10_0000 * PAGE_SIZE as u64;
    const HEAP_BYTES: u64 = 8 * PAGE_SIZE as u64;

    impl Lockstep {
        fn new() -> Self {
            Self {
                old: ByteMapOracle::default(),
                new: Oracle::new(),
                engine: RecordingEngine::new(),
                open: [Vec::new(), Vec::new()],
            }
        }

        fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
            self.old.record_store(core, addr, data);
            self.new.record_store(core, addr, data);
            self.open[core.index()].push((addr, data.to_vec()));
        }

        fn commit(&mut self, core: CoreId) {
            self.old.on_commit(core);
            self.new.on_commit(core);
            for (addr, data) in self.open[core.index()].drain(..) {
                self.engine.store(core, addr, &data);
            }
        }

        /// One random step: mostly stores — unaligned, up to three pages
        /// long, a quarter of them rewriting what is already committed —
        /// then commits, aborts and crashes.
        fn step(&mut self, rng: &mut SmallRng) {
            let core = if rng.gen_bool(0.5) { C0 } else { C1 };
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    let len = match rng.gen_range(0..8u32) {
                        0 => rng.gen_range(PAGE_SIZE..3 * PAGE_SIZE),
                        1..=2 => rng.gen_range(60..200usize),
                        _ => rng.gen_range(1..17usize),
                    };
                    let addr = VirtAddr::new(HEAP + rng.gen_range(0..HEAP_BYTES - len as u64));
                    let data: Vec<u8> = if rng.gen_bool(0.25) {
                        (0..len as u64)
                            .map(|i| self.old.committed_byte(addr.add(i)))
                            .collect()
                    } else {
                        (0..len).map(|_| rng.gen_range(0..=255u8)).collect()
                    };
                    self.store(core, addr, &data);
                }
                6..=7 => self.commit(core),
                8 => {
                    self.old.on_abort(core);
                    self.new.on_abort(core);
                    self.open[core.index()].clear();
                }
                _ => {
                    self.old.on_crash();
                    self.new.on_crash();
                    self.open = [Vec::new(), Vec::new()];
                }
            }
        }

        /// Verifies with both oracles; returns their verdict after
        /// asserting it and the load sequences equal.
        fn verify_both(&mut self) -> Result<(), Divergence> {
            self.engine.loads.clear();
            let old = self.old.verify(&mut self.engine, C0);
            let old_loads = std::mem::take(&mut self.engine.loads);
            let new = self.new.verify(&mut self.engine, C0);
            assert_eq!(old_loads, self.engine.loads, "load sequences differ");
            assert_eq!(old, new, "verdicts differ");
            new
        }

        fn assert_same_state(&self) {
            assert_eq!(self.old.committed_len(), self.new.committed_len());
            for (&addr, &byte) in &self.old.committed {
                assert_eq!(self.new.committed_byte(VirtAddr::new(addr)), byte);
            }
        }
    }

    #[test]
    fn lockstep_with_the_byte_map_oracle() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut rig = Lockstep::new();
            for step in 0..300 {
                rig.step(&mut rng);
                if step % 25 == 24 {
                    rig.assert_same_state();
                    assert_eq!(rig.verify_both(), Ok(()), "seed {seed} step {step}");
                }
            }
            // Unwritten bytes between runs read as zero from both.
            for _ in 0..64 {
                let addr = VirtAddr::new(HEAP + rng.gen_range(0..HEAP_BYTES));
                assert_eq!(rig.old.committed_byte(addr), rig.new.committed_byte(addr));
            }
        }
    }

    #[test]
    fn lockstep_divergence_and_early_exit() {
        for seed in 100..108u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut rig = Lockstep::new();
            // A run crossing two page boundaries is always present.
            let long = vec![0xa5u8; 2 * PAGE_SIZE + 100];
            rig.store(C0, VirtAddr::new(HEAP + PAGE_SIZE as u64 - 50), &long);
            rig.commit(C0);
            for _ in 0..300 {
                rig.step(&mut rng);
            }
            assert_eq!(rig.verify_both(), Ok(()));
            let all_loads = rig.engine.loads.len();
            // Corrupt one committed byte in memory: both oracles must name
            // it, after loading the rest of its run and nothing beyond.
            let victims: Vec<u64> = rig.old.committed.keys().copied().collect();
            let victim = victims[rng.gen_range(0..victims.len())];
            rig.engine.bytes(VirtAddr::new(victim), 1)[0] ^= 0x40;
            let divergence = rig.verify_both().expect_err("corruption unnoticed");
            assert_eq!(divergence.addr, VirtAddr::new(victim));
            assert_eq!(divergence.actual, divergence.expected ^ 0x40);
            assert!(rig.engine.loads.len() <= all_loads);
            let &(last, len) = rig.engine.loads.last().expect("loads issued");
            assert!(last + len as u64 > victim, "stopped before the victim");
        }
    }

    #[test]
    fn undoable_commit_reverts_exactly() {
        for seed in 200..208u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut rig = Lockstep::new();
            for _ in 0..200 {
                rig.step(&mut rng);
            }
            // Close whatever is open, then open one transaction on C0
            // that rewrites committed bytes, extends runs across a page
            // boundary and touches a page nothing has written.
            rig.commit(C0);
            rig.commit(C1);
            let before = rig.new.clone();
            rig.store(
                C0,
                VirtAddr::new(HEAP + 3 * PAGE_SIZE as u64 - 7),
                &[seed as u8; 30],
            );
            rig.store(C0, VirtAddr::new(HEAP + HEAP_BYTES + 5), &[1, 2, 3]);
            for _ in 0..8 {
                let addr = VirtAddr::new(HEAP + rng.gen_range(0..HEAP_BYTES - 8));
                rig.store(C0, addr, &rng.gen::<u64>().to_le_bytes());
            }

            // Kept candidate: equals the reference's plain fold.
            rig.old.on_commit(C0);
            let undo = rig.new.on_commit_undoable(C0);
            rig.assert_same_state();
            for (addr, data) in rig.open[0].clone() {
                rig.engine.store(C0, addr, &data);
            }
            assert_eq!(rig.verify_both(), Ok(()));

            // Taken back: the oracle before the fold, byte for byte.
            rig.new.revert(undo);
            assert_eq!(rig.new.committed_len(), before.committed_len());
            assert_eq!(rig.new.pages.len(), before.pages.len());
            for (vpn, page) in &before.pages {
                let reverted = &rig.new.pages[vpn];
                assert!(page.bytes == reverted.bytes && page.written == reverted.written);
            }
            // The reverted stores are not pending either.
            rig.new.on_commit(C0);
            assert_eq!(rig.new.committed_len(), before.committed_len());
        }
    }

    #[test]
    fn mark_written_counts_fresh_bytes_only() {
        let mut page = OraclePage::zeroed();
        assert_eq!(page.mark_written(60, 70), 10);
        assert_eq!(page.mark_written(64, 128), 58);
        assert_eq!(page.mark_written(0, PAGE_SIZE), PAGE_SIZE - 68);
        assert_eq!(page.mark_written(4095, 4096), 0);
        assert_eq!(page.next_offset(0, false), PAGE_SIZE);
    }
}
