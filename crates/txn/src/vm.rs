//! NVRAM physical layout and the virtual-memory manager.
//!
//! The persistent physical address space is carved into fixed regions
//! (header, page table, per-engine log areas, the SSP shadow-page pool, and
//! the data heap). The page table itself lives in NVRAM and is updated with
//! 8-byte atomic persists, so virtual-to-physical mappings survive a crash
//! — the paper relies on the OS for this; we make it explicit.
//!
//! # Dense tables
//!
//! Heap pages are issued sequentially from [`HEAP_BASE_VPN`] by
//! [`VmManager::map_new_page`] and never unmapped, so everything keyed by
//! a heap VPN is a `Vec` indexed by `vpn − HEAP_BASE_VPN`, sized by the
//! pages actually mapped (never by the address-space span): the volatile
//! page-table mirror here, and — through [`VpnMap`] — the engines' own
//! per-page side tables. A lookup is a subtraction, a bounds check and a
//! load; nothing on the translate path is hashed.

use ssp_simulator::addr::{PhysAddr, Ppn, VirtAddr, Vpn, PAGE_SIZE};
use ssp_simulator::cache::CoreId;
use ssp_simulator::machine::Machine;
use ssp_simulator::phys::NVRAM_PPN_BASE;
use ssp_simulator::stats::WriteClass;

/// First virtual page number of the persistent heap.
pub const HEAP_BASE_VPN: u64 = 0x10_0000;

/// Physical layout of the NVRAM region (page counts per region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvLayout {
    /// Global header (engine registers: log head/tail, counters).
    pub header_base: Ppn,
    /// Page-table region: entry `i` is 8 bytes at `pt_base + i * 8`.
    pub pt_base: Ppn,
    /// Log / journal region (engines subdivide it per core).
    pub log_base: Ppn,
    /// Persistent SSP-cache slots.
    pub meta_base: Ppn,
    /// Shadow (second physical page) pool.
    pub shadow_base: Ppn,
    /// Heap data pages.
    pub heap_base: Ppn,
}

/// Pages reserved for the global header region.
pub const HEADER_PAGES: u64 = 16;
/// Pages reserved for the page table (supports 2 M mapped pages).
pub const PT_PAGES: u64 = 4096;
/// Pages reserved for logs and journals.
pub const LOG_PAGES: u64 = 16384;
/// Pages reserved for persistent metadata (SSP cache slots).
pub const META_PAGES: u64 = 4096;
/// Pages reserved for the shadow-page pool.
pub const SHADOW_PAGES: u64 = 65536;

impl Default for NvLayout {
    fn default() -> Self {
        let header = NVRAM_PPN_BASE;
        let pt = header + HEADER_PAGES;
        let log = pt + PT_PAGES;
        let meta = log + LOG_PAGES;
        let shadow = meta + META_PAGES;
        let heap = shadow + SHADOW_PAGES;
        Self {
            header_base: Ppn::new(header),
            pt_base: Ppn::new(pt),
            log_base: Ppn::new(log),
            meta_base: Ppn::new(meta),
            shadow_base: Ppn::new(shadow),
            heap_base: Ppn::new(heap),
        }
    }
}

impl NvLayout {
    /// Physical address of byte `offset` inside the header region.
    pub fn header_addr(&self, offset: u64) -> PhysAddr {
        debug_assert!(offset < HEADER_PAGES * PAGE_SIZE as u64);
        PhysAddr::new(self.header_base.base().raw() + offset)
    }

    /// Physical address of the page-table entry for heap page index `i`.
    pub fn pt_entry_addr(&self, index: u64) -> PhysAddr {
        debug_assert!(index * 8 < PT_PAGES * PAGE_SIZE as u64);
        PhysAddr::new(self.pt_base.base().raw() + index * 8)
    }

    /// Physical address of byte `offset` inside the log region.
    pub fn log_addr(&self, offset: u64) -> PhysAddr {
        debug_assert!(offset < LOG_PAGES * PAGE_SIZE as u64);
        PhysAddr::new(self.log_base.base().raw() + offset)
    }

    /// Byte capacity of the log region.
    pub fn log_capacity(&self) -> u64 {
        LOG_PAGES * PAGE_SIZE as u64
    }

    /// Physical address of byte `offset` inside the metadata region.
    pub fn meta_addr(&self, offset: u64) -> PhysAddr {
        debug_assert!(offset < META_PAGES * PAGE_SIZE as u64);
        PhysAddr::new(self.meta_base.base().raw() + offset)
    }

    /// The `i`-th page of the shadow pool.
    pub fn shadow_page(&self, index: u64) -> Ppn {
        debug_assert!(index < SHADOW_PAGES);
        Ppn::new(self.shadow_base.raw() + index)
    }
}

/// Heap pages the page-table region can map (one 8-byte entry each).
pub const MAX_HEAP_PAGES: u64 = PT_PAGES * PAGE_SIZE as u64 / 8;

/// A map from virtual page to a small `Copy` value — the engines'
/// per-page side tables (SSP-cache slot of a page, TLB-holder mask).
///
/// Pages of the persistent heap (`HEAP_BASE_VPN ..
/// HEAP_BASE_VPN + MAX_HEAP_PAGES`, the only ones an engine can be asked
/// to map) live in a `Vec` indexed by `vpn − HEAP_BASE_VPN` that grows to
/// the highest page inserted so far — proportional to the pages in use,
/// amortised-doubling, and never touched again once the working set is
/// mapped. Any other VPN (unit tests build entries for arbitrary page
/// numbers) goes to a short unsorted spill list searched linearly, so
/// the map stays total over `u64` without a hasher.
///
/// # Examples
///
/// ```
/// use ssp_simulator::addr::Vpn;
/// use ssp_txn::vm::{VpnMap, HEAP_BASE_VPN};
///
/// let mut map = VpnMap::new();
/// let heap = Vpn::new(HEAP_BASE_VPN + 3);
/// assert_eq!(map.insert(heap, 7u32), None);
/// assert_eq!(map.insert(Vpn::new(1), 9), None); // outside the heap: spilled
/// assert_eq!(map.get(heap), Some(7));
/// assert_eq!(map.remove(Vpn::new(1)), Some(9));
/// assert_eq!(map.get(Vpn::new(1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct VpnMap<T> {
    dense: Vec<Option<T>>,
    spill: Vec<(u64, T)>,
}

impl<T> Default for VpnMap<T> {
    fn default() -> Self {
        Self {
            dense: Vec::new(),
            spill: Vec::new(),
        }
    }
}

impl<T: Copy> VpnMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dense index of a heap page, `None` for every other VPN.
    #[inline]
    fn heap_index(vpn: Vpn) -> Option<usize> {
        let index = vpn.raw().wrapping_sub(HEAP_BASE_VPN);
        (index < MAX_HEAP_PAGES).then_some(index as usize)
    }

    /// The value stored for `vpn`.
    #[inline]
    pub fn get(&self, vpn: Vpn) -> Option<T> {
        match Self::heap_index(vpn) {
            Some(index) => self.dense.get(index).copied().flatten(),
            None => self
                .spill
                .iter()
                .find(|&&(v, _)| v == vpn.raw())
                .map(|&(_, value)| value),
        }
    }

    /// Stores `value` for `vpn`, returning what it replaces.
    pub fn insert(&mut self, vpn: Vpn, value: T) -> Option<T> {
        match Self::heap_index(vpn) {
            Some(index) => {
                if index >= self.dense.len() {
                    self.dense.resize(index + 1, None);
                }
                self.dense[index].replace(value)
            }
            None => match self.spill.iter_mut().find(|(v, _)| *v == vpn.raw()) {
                Some((_, old)) => Some(std::mem::replace(old, value)),
                None => {
                    self.spill.push((vpn.raw(), value));
                    None
                }
            },
        }
    }

    /// Forgets `vpn`, returning its value.
    pub fn remove(&mut self, vpn: Vpn) -> Option<T> {
        match Self::heap_index(vpn) {
            Some(index) => self.dense.get_mut(index)?.take(),
            None => {
                let at = self.spill.iter().position(|&(v, _)| v == vpn.raw())?;
                Some(self.spill.swap_remove(at).1)
            }
        }
    }

    /// Forgets every page (capacity is kept).
    pub fn clear(&mut self) {
        self.dense.fill(None);
        self.spill.clear();
    }
}

/// Byte offset of the persisted `next_vpn` counter in the header.
const HDR_NEXT_VPN: u64 = 0;

/// The virtual-memory manager: allocates heap pages and maintains the
/// persistent page table.
///
/// # Examples
///
/// ```
/// use ssp_simulator::cache::CoreId;
/// use ssp_simulator::config::MachineConfig;
/// use ssp_simulator::machine::Machine;
/// use ssp_txn::vm::{NvLayout, VmManager};
///
/// let mut machine = Machine::new(MachineConfig::default());
/// let mut vm = VmManager::new(NvLayout::default());
/// let vpn = vm.map_new_page(&mut machine, CoreId::new(0));
/// let ppn = vm.translate(vpn).unwrap();
/// assert_eq!(vm.translate(vpn), Some(ppn));
/// ```
#[derive(Debug, Clone)]
pub struct VmManager {
    layout: NvLayout,
    /// The volatile mirror of the persistent page table: entry `i` maps
    /// VPN `HEAP_BASE_VPN + i`, and `table.len()` is the number of pages
    /// mapped so far (the persisted `next_vpn` counter).
    table: Vec<Ppn>,
}

impl VmManager {
    /// Creates a manager over a fresh (or recovered) layout. Call
    /// [`VmManager::recover`] to rebuild state after a crash.
    pub fn new(layout: NvLayout) -> Self {
        Self {
            layout,
            table: Vec::new(),
        }
    }

    /// The physical layout.
    pub fn layout(&self) -> &NvLayout {
        &self.layout
    }

    /// Number of heap pages mapped so far.
    pub fn mapped_pages(&self) -> u64 {
        self.table.len() as u64
    }

    /// Maps a fresh heap page: assigns the next VPN, backs it with the next
    /// heap frame, and persists both the page-table entry and the page
    /// counter (8-byte atomic persists).
    pub fn map_new_page(&mut self, machine: &mut Machine, core: CoreId) -> Vpn {
        let index = self.mapped_pages();
        let vpn = Vpn::new(HEAP_BASE_VPN + index);
        let ppn = Ppn::new(self.layout.heap_base.raw() + index);
        self.table.push(ppn);
        machine.persist_bytes(
            Some(core),
            self.layout.pt_entry_addr(index),
            &ppn.raw().to_le_bytes(),
            WriteClass::Other,
        );
        machine.persist_bytes(
            Some(core),
            self.layout.header_addr(HDR_NEXT_VPN),
            &self.mapped_pages().to_le_bytes(),
            WriteClass::Other,
        );
        vpn
    }

    /// Translates a heap VPN to its current physical page (`None` for
    /// anything outside the mapped heap range).
    #[inline]
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        let index = vpn.raw().checked_sub(HEAP_BASE_VPN)?;
        self.table.get(usize::try_from(index).ok()?).copied()
    }

    /// Translates a full virtual address to a physical address.
    pub fn translate_addr(&self, addr: VirtAddr) -> Option<PhysAddr> {
        let ppn = self.translate(addr.vpn())?;
        Some(PhysAddr::new(ppn.base().raw() + addr.page_offset() as u64))
    }

    /// Atomically repoints `vpn` at `ppn` (consolidation, shadow-paging
    /// commit) and persists the page-table entry.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` was never mapped.
    pub fn update_mapping(&mut self, machine: &mut Machine, vpn: Vpn, ppn: Ppn) {
        assert!(
            vpn.raw() >= HEAP_BASE_VPN && vpn.raw() < HEAP_BASE_VPN + self.mapped_pages(),
            "update_mapping of unmapped page {vpn}"
        );
        let index = vpn.raw() - HEAP_BASE_VPN;
        self.table[index as usize] = ppn;
        machine.persist_bytes(
            None,
            self.layout.pt_entry_addr(index),
            &ppn.raw().to_le_bytes(),
            WriteClass::Other,
        );
    }

    /// Rebuilds the volatile mirror from the persistent page table after a
    /// crash.
    pub fn recover(&mut self, machine: &Machine) {
        let mut buf = [0u8; 8];
        machine.read_bytes_uncached(self.layout.header_addr(HDR_NEXT_VPN), &mut buf);
        let mapped = u64::from_le_bytes(buf);
        self.table.clear();
        for index in 0..mapped {
            machine.read_bytes_uncached(self.layout.pt_entry_addr(index), &mut buf);
            self.table.push(Ppn::new(u64::from_le_bytes(buf)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_simulator::config::MachineConfig;

    fn setup() -> (Machine, VmManager) {
        (
            Machine::new(MachineConfig::default()),
            VmManager::new(NvLayout::default()),
        )
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = NvLayout::default();
        let mut bases = [
            l.header_base.raw(),
            l.pt_base.raw(),
            l.log_base.raw(),
            l.meta_base.raw(),
            l.shadow_base.raw(),
            l.heap_base.raw(),
        ];
        bases.sort_unstable();
        assert_eq!(bases[0], NVRAM_PPN_BASE);
        for w in bases.windows(2) {
            assert!(w[0] < w[1], "regions overlap");
        }
    }

    #[test]
    fn map_and_translate() {
        let (mut m, mut vm) = setup();
        let v1 = vm.map_new_page(&mut m, CoreId::new(0));
        let v2 = vm.map_new_page(&mut m, CoreId::new(0));
        assert_ne!(v1, v2);
        assert_ne!(vm.translate(v1), vm.translate(v2));
        let addr = VirtAddr::new(v1.base().raw() + 100);
        let pa = vm.translate_addr(addr).unwrap();
        assert_eq!(pa.page_offset(), 100);
    }

    #[test]
    fn translate_unmapped_is_none() {
        let (_, vm) = setup();
        assert_eq!(vm.translate(Vpn::new(HEAP_BASE_VPN)), None);
    }

    #[test]
    fn mappings_survive_crash() {
        let (mut m, mut vm) = setup();
        let v1 = vm.map_new_page(&mut m, CoreId::new(0));
        let p1 = vm.translate(v1).unwrap();
        m.crash();
        let mut vm2 = VmManager::new(NvLayout::default());
        vm2.recover(&m);
        assert_eq!(vm2.translate(v1), Some(p1));
        assert_eq!(vm2.mapped_pages(), 1);
    }

    #[test]
    fn update_mapping_survives_crash() {
        let (mut m, mut vm) = setup();
        let v1 = vm.map_new_page(&mut m, CoreId::new(0));
        let shadow = vm.layout().shadow_page(0);
        vm.update_mapping(&mut m, v1, shadow);
        m.crash();
        let mut vm2 = VmManager::new(NvLayout::default());
        vm2.recover(&m);
        assert_eq!(vm2.translate(v1), Some(shadow));
    }

    #[test]
    #[should_panic(expected = "unmapped page")]
    fn update_unmapped_panics() {
        let (mut m, mut vm) = setup();
        vm.update_mapping(&mut m, Vpn::new(HEAP_BASE_VPN + 5), Ppn::new(1));
    }

    #[test]
    fn vpn_map_agrees_with_a_hash_map_inside_and_outside_the_heap() {
        use std::collections::HashMap;
        let mut map: VpnMap<u32> = VpnMap::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        // A deterministic walk over heap pages, pages just outside both
        // ends of the heap range, and tiny VPNs.
        let pages = [
            0u64,
            1,
            HEAP_BASE_VPN - 1,
            HEAP_BASE_VPN,
            HEAP_BASE_VPN + 1,
            HEAP_BASE_VPN + 700,
            HEAP_BASE_VPN + MAX_HEAP_PAGES - 1,
            HEAP_BASE_VPN + MAX_HEAP_PAGES,
            u64::MAX,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // The last in-heap page would size the dense table at 16 MiB;
            // it is probed (get/remove) but never inserted.
            let vpn = pages[(x >> 33) as usize % pages.len()];
            match (x >> 20) % 4 {
                0 | 1 if vpn != HEAP_BASE_VPN + MAX_HEAP_PAGES - 1 => {
                    assert_eq!(map.insert(Vpn::new(vpn), step), model.insert(vpn, step));
                }
                2 => assert_eq!(map.remove(Vpn::new(vpn)), model.remove(&vpn)),
                _ => {
                    if step % 500 == 499 {
                        map.clear();
                        model.clear();
                    }
                }
            }
            for &p in &pages {
                assert_eq!(map.get(Vpn::new(p)), model.get(&p).copied(), "page {p:#x}");
            }
        }
    }

    #[test]
    fn shadow_pages_are_distinct_from_heap() {
        let l = NvLayout::default();
        let s = l.shadow_page(10);
        assert!(s.raw() < l.heap_base.raw());
        assert!(s.raw() >= l.shadow_base.raw());
    }
}
