//! The transaction-engine interface — the simulated ISA extension.
//!
//! The paper extends the ISA with `ATOMIC_BEGIN`, `ATOMIC_STORE` and
//! `ATOMIC_END` (Section 3.1). Workloads in this reproduction call the
//! corresponding methods of [`TxnEngine`]; each engine (SSP, UNDO-LOG,
//! REDO-LOG, shadow paging) implements them with its own persistence
//! machinery over the shared [`ssp_simulator::Machine`].

use ssp_simulator::addr::{VirtAddr, Vpn, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_simulator::machine::Machine;

/// Globally unique transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// One span of a byte range clipped to a single cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSpan {
    /// Start address of the span (within one line).
    pub addr: VirtAddr,
    /// Offset of the span within the caller's buffer.
    pub buf_offset: usize,
    /// Length of the span in bytes.
    pub len: usize,
}

impl LineSpan {
    /// The part of the caller's buffer this span covers.
    #[inline]
    pub fn of<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.buf_offset..self.buf_offset + self.len]
    }

    /// The part of the caller's buffer this span covers, mutably.
    #[inline]
    pub fn of_mut<'a>(&self, buf: &'a mut [u8]) -> &'a mut [u8] {
        &mut buf[self.buf_offset..self.buf_offset + self.len]
    }
}

/// Splits `[addr, addr + len)` into per-cache-line spans.
///
/// Engines use this so [`TxnEngine::load`]/[`TxnEngine::store`] accept
/// arbitrary ranges while the hardware model stays line-granular.
///
/// # Examples
///
/// ```
/// use ssp_simulator::addr::VirtAddr;
/// use ssp_txn::engine::line_spans;
///
/// let spans: Vec<_> = line_spans(VirtAddr::new(60), 8).collect();
/// assert_eq!(spans.len(), 2);
/// assert_eq!(spans[0].len, 4);
/// assert_eq!(spans[1].len, 4);
/// assert_eq!(spans[1].buf_offset, 4);
/// ```
pub fn line_spans(addr: VirtAddr, len: usize) -> impl Iterator<Item = LineSpan> {
    let mut cursor = addr.raw();
    let end = addr.raw() + len as u64;
    std::iter::from_fn(move || {
        if cursor >= end {
            return None;
        }
        let line_end = (cursor | (LINE_SIZE as u64 - 1)) + 1;
        let span_end = line_end.min(end);
        let span = LineSpan {
            addr: VirtAddr::new(cursor),
            buf_offset: (cursor - addr.raw()) as usize,
            len: (span_end - cursor) as usize,
        };
        cursor = span_end;
        Some(span)
    })
}

/// Refills `scratch` from `items`, sorts it by `key`, and hands the
/// vector out by value; the caller iterates it and must assign it back
/// to the scratch field so the capacity is reused.
///
/// This is the engines' standard "sort hash-ordered state before it
/// reaches the machine" idiom: the [`TxnEngine`] determinism contract
/// requires the sort (hash iteration order varies per instance), and
/// routing it through an engine-owned scratch vector keeps the warm
/// transaction loop allocation-free (pinned by `tests/hot_path_allocs.rs`
/// at the workspace root).
///
/// # Examples
///
/// ```
/// use ssp_txn::engine::sorted_scratch;
///
/// let mut scratch: Vec<u64> = Vec::with_capacity(16);
/// let lines = sorted_scratch(&mut scratch, [3u64, 1, 2], |&l| l);
/// assert_eq!(lines, [1, 2, 3]);
/// scratch = lines; // give the capacity back for the next transaction
/// assert!(scratch.capacity() >= 16);
/// ```
pub fn sorted_scratch<T, K: Ord>(
    scratch: &mut Vec<T>,
    items: impl IntoIterator<Item = T>,
    key: impl FnMut(&T) -> K,
) -> Vec<T> {
    let mut v = std::mem::take(scratch);
    v.clear();
    v.extend(items);
    v.sort_unstable_by_key(key);
    v
}

/// Aggregate transaction statistics, including the write-set
/// characterisation reported in Table 3 of the paper.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnStats {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted by the application.
    pub aborted: u64,
    /// Transactions that overflowed the hardware write-set and took the
    /// software fall-back path.
    pub fallbacks: u64,
    /// Sum over committed transactions of distinct cache lines written.
    pub lines_written_sum: u64,
    /// Sum over committed transactions of distinct pages written.
    pub pages_written_sum: u64,
    /// Maximum distinct pages written by any committed transaction.
    pub pages_written_max: u64,
    /// Total `ATOMIC_STORE` operations issued.
    pub stores: u64,
    /// Total transactional loads issued.
    pub loads: u64,
}

impl TxnStats {
    /// Average distinct cache lines written per committed transaction.
    pub fn avg_lines_per_txn(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.lines_written_sum as f64 / self.committed as f64
        }
    }

    /// Average distinct pages written per committed transaction.
    pub fn avg_pages_per_txn(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.pages_written_sum as f64 / self.committed as f64
        }
    }

    /// Adds another engine's statistics into this one. The threaded driver
    /// folds per-worker statistics with this in worker-index order, so
    /// merged results are independent of host scheduling.
    pub fn merge(&mut self, other: &TxnStats) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.fallbacks += other.fallbacks;
        self.lines_written_sum += other.lines_written_sum;
        self.pages_written_sum += other.pages_written_sum;
        self.pages_written_max = self.pages_written_max.max(other.pages_written_max);
        self.stores += other.stores;
        self.loads += other.loads;
    }

    /// Counter-wise difference `self - base`, used to exclude setup and
    /// warm-up from a measured phase. `pages_written_max` is a high-water
    /// mark and keeps the value in `self`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via arithmetic overflow) if any counter in
    /// `base` exceeds the one in `self`.
    pub fn diff(&self, base: &TxnStats) -> TxnStats {
        TxnStats {
            committed: self.committed - base.committed,
            aborted: self.aborted - base.aborted,
            fallbacks: self.fallbacks - base.fallbacks,
            lines_written_sum: self.lines_written_sum - base.lines_written_sum,
            pages_written_sum: self.pages_written_sum - base.pages_written_sum,
            pages_written_max: self.pages_written_max,
            stores: self.stores - base.stores,
            loads: self.loads - base.loads,
        }
    }
}

/// A set of cache lines held as one 64-bit line bitmap per page, the
/// pages sorted by number — the shape of every per-transaction line set
/// the engines keep (write-set statistics, UNDO's logged lines, SSP's
/// write-set buffer).
///
/// Pages are numbered by the caller (virtual or physical), lines
/// `0..64` within a page. Iteration is ascending by page, so a consumer
/// that must reach the machine in address order needs no sort.
///
/// **Cost.** A repeat of the page touched last is one compare; any other
/// lookup is a binary search, `O(log P)` for `P` pages in the set.
/// Opening a new page shifts the pages above it, at most `16·P` bytes —
/// nothing when pages arrive in ascending order, and for a transaction
/// that writes 1 000 lines on 1 000 distinct pages in the worst order
/// 8 MB of `memmove` in total, well under the simulated stores
/// themselves. `clear` keeps the capacity, so a warm engine allocates
/// only when a transaction touches more pages than any before it.
///
/// # Examples
///
/// ```
/// use ssp_txn::engine::PageBitmaps;
///
/// let mut set = PageBitmaps::new();
/// assert!(set.insert(7, 3));
/// assert!(!set.insert(7, 3)); // already there
/// assert!(set.insert(2, 63));
/// assert_eq!((set.pages(), set.lines()), (2, 2));
/// assert_eq!(set.bits(7), 1 << 3);
/// assert_eq!(set.iter().collect::<Vec<_>>(), [(2, 1 << 63), (7, 1 << 3)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageBitmaps {
    /// `(page, line bitmap)` sorted by page; no bitmap is zero.
    pages: Vec<(u64, u64)>,
    /// Index of the page the last insert touched (a search hint only).
    last: usize,
    /// Σ popcount over `pages`.
    lines: u64,
}

impl PageBitmaps {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// `Ok(index)` of `page`, or `Err(index)` where it would be inserted.
    #[inline]
    fn find(&self, page: u64) -> Result<usize, usize> {
        match self.pages.get(self.last) {
            Some(&(p, _)) if p == page => Ok(self.last),
            _ => self.pages.binary_search_by_key(&page, |&(p, _)| p),
        }
    }

    /// The line bitmap of `page` (zero if no line of it is in the set).
    #[inline]
    pub fn bits(&self, page: u64) -> u64 {
        self.find(page).map_or(0, |at| self.pages[at].1)
    }

    /// Adds line `line` of `page`; returns whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not below 64.
    #[inline]
    pub fn insert(&mut self, page: u64, line: u8) -> bool {
        assert!((line as usize) < LINES_PER_PAGE, "line {line} out of range");
        let bit = 1u64 << line;
        let at = match self.find(page) {
            Ok(at) => at,
            Err(at) => {
                self.pages.insert(at, (page, 0));
                at
            }
        };
        self.last = at;
        let bits = &mut self.pages[at].1;
        let new = *bits & bit == 0;
        *bits |= bit;
        self.lines += new as u64;
        new
    }

    /// Distinct pages with a line in the set.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Distinct lines in the set.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// `(page, line bitmap)` pairs, ascending by page.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().copied()
    }

    /// The base byte address of every line in the set, ascending (pages
    /// are 4 KiB, lines 64 B).
    pub fn line_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().flat_map(|(page, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let line = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    page * PAGE_SIZE as u64 + line * LINE_SIZE as u64
                })
            })
        })
    }

    /// Empties the set, keeping its capacity.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.last = 0;
        self.lines = 0;
    }
}

/// Tracks the distinct lines/pages written by one in-flight transaction
/// (the Table 3 write-set statistics): one [`PageBitmaps`] over virtual
/// pages, `lines` = Σ popcount, `pages` = its length.
///
/// Engines keep one tracker per core and reuse it across transactions
/// ([`fold_commit`](Self::fold_commit)/[`fold_abort`](Self::fold_abort)
/// clear but keep capacity), so steady-state tracking allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct WriteSetTracker {
    written: PageBitmaps,
}

impl WriteSetTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a store covering `[addr, addr + len)`.
    #[inline]
    pub fn record(&mut self, addr: VirtAddr, len: usize) {
        for span in line_spans(addr, len) {
            self.written
                .insert(span.addr.vpn().raw(), span.addr.line_index().raw());
        }
    }

    /// Distinct lines written so far.
    pub fn lines(&self) -> u64 {
        self.written.lines()
    }

    /// Distinct pages written so far.
    pub fn pages(&self) -> u64 {
        self.written.pages() as u64
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.written.is_empty()
    }

    /// Folds this transaction into `stats` as committed and clears it.
    pub fn fold_commit(&mut self, stats: &mut TxnStats) {
        stats.committed += 1;
        stats.lines_written_sum += self.lines();
        stats.pages_written_sum += self.pages();
        stats.pages_written_max = stats.pages_written_max.max(self.pages());
        self.written.clear();
    }

    /// Clears the tracker after an abort.
    pub fn fold_abort(&mut self, stats: &mut TxnStats) {
        stats.aborted += 1;
        self.written.clear();
    }

    /// Discards the tracked state without touching any statistics (a
    /// simulated crash drops the in-flight transaction silently).
    pub fn clear(&mut self) {
        self.written.clear();
    }
}

/// A failure-atomic transaction engine (the paper's ISA extension).
///
/// All engines guarantee **ACD**: committed transactions survive a
/// [`crash`](TxnEngine::crash) + [`recover`](TxnEngine::recover) cycle;
/// uncommitted ones disappear entirely. Isolation is the caller's job
/// (Section 2.2 of the paper) — the drivers in `ssp-workloads` never run
/// two transactions against overlapping data concurrently.
///
/// # Threading
///
/// Engines are `Send` (they are plain owned data) so the threaded driver
/// can move one engine shard into each worker thread. They are *not*
/// `Sync`: a single engine instance is never shared between threads —
/// cross-shard interactions are resolved deterministically when per-worker
/// results are merged, at simulated-cycle granularity. Engines must also
/// be *schedule-deterministic*: given the same call sequence they must
/// perform the identical memory-access sequence, so anything derived from
/// hash-map iteration order has to be sorted before it reaches the
/// machine (see the commit paths of the engines in `ssp-core` and
/// `ssp-baselines`).
pub trait TxnEngine: Send {
    /// Engine name for reports ("SSP", "UNDO-LOG", ...).
    fn name(&self) -> &'static str;

    /// The underlying machine (counters, configuration).
    fn machine(&self) -> &Machine;

    /// Mutable access to the underlying machine.
    fn machine_mut(&mut self) -> &mut Machine;

    /// Maps a fresh persistent virtual page and returns its number.
    /// This is an OS-level operation, not part of any transaction.
    fn map_new_page(&mut self, core: CoreId) -> Vpn;

    /// `ATOMIC_BEGIN`: opens a failure-atomic section on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` already has an open transaction.
    fn begin(&mut self, core: CoreId);

    /// Transactional (or plain) load of `buf.len()` bytes at `addr`.
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]);

    /// `ATOMIC_STORE`: transactional store of `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `core` has no open transaction.
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]);

    /// `ATOMIC_END`: commits the open transaction; durable on return.
    fn commit(&mut self, core: CoreId);

    /// Rolls back the open transaction.
    fn abort(&mut self, core: CoreId);

    /// Simulated power failure (volatile state is lost).
    fn crash(&mut self);

    /// Post-crash recovery; afterwards committed data is readable again.
    fn recover(&mut self);

    /// Whether `core` has an open transaction.
    fn in_txn(&self, core: CoreId) -> bool;

    /// Aggregate transaction statistics.
    fn txn_stats(&self) -> &TxnStats;

    /// Crash followed by recovery (convenience).
    fn crash_and_recover(&mut self) {
        self.crash();
        self.recover();
    }
}

// Boxed engines are engines, so type-erased factories (`ssp-bench`) can
// feed the generic drivers in `ssp-workloads`.
impl<T: TxnEngine + ?Sized> TxnEngine for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn machine(&self) -> &Machine {
        (**self).machine()
    }
    fn machine_mut(&mut self) -> &mut Machine {
        (**self).machine_mut()
    }
    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        (**self).map_new_page(core)
    }
    fn begin(&mut self, core: CoreId) {
        (**self).begin(core)
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        (**self).load(core, addr, buf)
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        (**self).store(core, addr, data)
    }
    fn commit(&mut self, core: CoreId) {
        (**self).commit(core)
    }
    fn abort(&mut self, core: CoreId) {
        (**self).abort(core)
    }
    fn crash(&mut self) {
        (**self).crash()
    }
    fn recover(&mut self) {
        (**self).recover()
    }
    fn in_txn(&self, core: CoreId) -> bool {
        (**self).in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        (**self).txn_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_spans_single_line() {
        let spans: Vec<_> = line_spans(VirtAddr::new(0), 8).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].addr, VirtAddr::new(0));
        assert_eq!(spans[0].len, 8);
        assert_eq!(spans[0].buf_offset, 0);
    }

    #[test]
    fn line_spans_exact_line() {
        let spans: Vec<_> = line_spans(VirtAddr::new(64), 64).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len, 64);
    }

    #[test]
    fn line_spans_crossing_three_lines() {
        let spans: Vec<_> = line_spans(VirtAddr::new(32), 160).collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].len, 32);
        assert_eq!(spans[1].len, 64);
        assert_eq!(spans[2].len, 64);
        assert_eq!(spans[2].buf_offset, 96);
    }

    #[test]
    fn line_spans_empty_range() {
        assert_eq!(line_spans(VirtAddr::new(10), 0).count(), 0);
    }

    #[test]
    fn tracker_counts_distinct_lines_and_pages() {
        let mut t = WriteSetTracker::new();
        t.record(VirtAddr::new(0), 8);
        t.record(VirtAddr::new(4), 8); // same line
        t.record(VirtAddr::new(64), 8); // second line, same page
        t.record(VirtAddr::new(4096), 8); // second page
        assert_eq!(t.lines(), 3);
        assert_eq!(t.pages(), 2);
    }

    /// The two-hash-set tracker the bitmaps replaced, verbatim (with the
    /// standard hasher: nothing here is iterated).
    #[derive(Default)]
    struct RefTracker {
        lines: std::collections::HashSet<u64>,
        pages: std::collections::HashSet<u64>,
    }

    impl RefTracker {
        fn record(&mut self, addr: VirtAddr, len: usize) {
            for span in line_spans(addr, len) {
                self.lines.insert(span.addr.line_base().raw());
                self.pages.insert(span.addr.vpn().raw());
            }
        }
    }

    #[test]
    fn bitmap_tracker_matches_the_hash_set_model_on_random_spans() {
        // splitmix64: ssp-txn has no rand dependency.
        let mut x = 0x5eed_u64;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut stats = TxnStats::default();
        let (mut lines_sum, mut pages_sum, mut pages_max) = (0u64, 0u64, 0u64);
        for txn in 0..200u32 {
            let mut new = WriteSetTracker::new();
            let mut old = RefTracker::default();
            // A few transactions write > 1 000 lines over > 100 pages.
            let stores = if txn % 97 == 0 { 1_500 } else { next() % 40 };
            let span_pages = if txn % 2 == 0 { 4 } else { 300 };
            for _ in 0..stores {
                let addr = VirtAddr::new(0x1_0000_0000 + next() % (span_pages * 4096));
                // 1- and 8-byte stores, line-crossing ones, and spans of
                // several lines that also cross pages.
                let len = match next() % 6 {
                    0 => 1,
                    1 | 2 => 8,
                    3 => 64,
                    4 => 1 + (next() % 200) as usize,
                    _ => 4096 + (next() % 5000) as usize,
                };
                new.record(addr, len);
                old.record(addr, len);
                assert_eq!(new.lines(), old.lines.len() as u64);
                assert_eq!(new.pages(), old.pages.len() as u64);
                assert_eq!(new.is_empty(), old.lines.is_empty());
            }
            lines_sum += old.lines.len() as u64;
            pages_sum += old.pages.len() as u64;
            pages_max = pages_max.max(old.pages.len() as u64);
            new.fold_commit(&mut stats);
            assert!(new.is_empty() && new.lines() == 0 && new.pages() == 0);
        }
        assert_eq!(stats.committed, 200);
        assert_eq!(stats.lines_written_sum, lines_sum);
        assert_eq!(stats.pages_written_sum, pages_sum);
        assert_eq!(stats.pages_written_max, pages_max);
        assert!(pages_max > 100, "the wide transactions ran");
    }

    #[test]
    fn page_bitmaps_iterate_in_address_order_whatever_the_insert_order() {
        let mut set = PageBitmaps::new();
        let mut model = std::collections::BTreeSet::new();
        let mut x = 1u64;
        for _ in 0..3_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (page, line) = ((x >> 40) % 50, ((x >> 20) % 64) as u8);
            assert_eq!(set.insert(page, line), model.insert((page, line)));
            assert_eq!(set.bits(page) >> line & 1, 1);
        }
        assert_eq!(set.lines(), model.len() as u64);
        let addrs: Vec<u64> = set.line_addrs().collect();
        let expect: Vec<u64> = model
            .iter()
            .map(|&(p, l)| p * 4096 + l as u64 * 64)
            .collect();
        assert_eq!(addrs, expect);
        assert_eq!(set.bits(1_000), 0);
        set.clear();
        assert!(set.is_empty() && set.lines() == 0 && set.iter().next().is_none());
    }

    #[test]
    fn tracker_fold_commit_accumulates_stats() {
        let mut t = WriteSetTracker::new();
        let mut s = TxnStats::default();
        t.record(VirtAddr::new(0), 8);
        t.record(VirtAddr::new(4096), 8);
        t.fold_commit(&mut s);
        assert_eq!(s.committed, 1);
        assert_eq!(s.lines_written_sum, 2);
        assert_eq!(s.pages_written_sum, 2);
        assert_eq!(s.pages_written_max, 2);
        assert!(t.is_empty());

        t.record(VirtAddr::new(0), 8);
        t.fold_commit(&mut s);
        assert_eq!(s.committed, 2);
        assert_eq!(s.pages_written_max, 2);
        assert!((s.avg_lines_per_txn() - 1.5).abs() < 1e-9);
        assert!((s.avg_pages_per_txn() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn tracker_fold_abort_counts_and_clears() {
        let mut t = WriteSetTracker::new();
        let mut s = TxnStats::default();
        t.record(VirtAddr::new(0), 8);
        t.fold_abort(&mut s);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.committed, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn stats_averages_zero_when_no_commits() {
        let s = TxnStats::default();
        assert_eq!(s.avg_lines_per_txn(), 0.0);
        assert_eq!(s.avg_pages_per_txn(), 0.0);
    }

    #[test]
    fn stats_merge_sums_and_keeps_high_water_mark() {
        let mut a = TxnStats {
            committed: 2,
            pages_written_max: 7,
            stores: 10,
            ..TxnStats::default()
        };
        let b = TxnStats {
            committed: 3,
            aborted: 1,
            pages_written_max: 4,
            loads: 5,
            ..TxnStats::default()
        };
        a.merge(&b);
        assert_eq!(a.committed, 5);
        assert_eq!(a.aborted, 1);
        assert_eq!(a.pages_written_max, 7);
        assert_eq!(a.stores, 10);
        assert_eq!(a.loads, 5);
    }

    #[test]
    fn stats_diff_subtracts_counters() {
        let base = TxnStats {
            committed: 2,
            stores: 4,
            pages_written_max: 3,
            ..TxnStats::default()
        };
        let mut total = base.clone();
        total.committed += 5;
        total.stores += 9;
        total.pages_written_max = 6;
        let d = total.diff(&base);
        assert_eq!(d.committed, 5);
        assert_eq!(d.stores, 9);
        // High-water mark is global, not a difference.
        assert_eq!(d.pages_written_max, 6);
    }
}
