//! Four-level radix page tables.
//!
//! One structure serves three roles in the reproduction, exactly as one
//! x86-64 structure serves them on the real platform:
//!
//! * the **guest page table** (GVA → GPA), maintained by the guest kernel;
//! * the **EPT** (GPA → HPA), maintained by KVM;
//! * the **IO page table** (IOVA → HPA), maintained by the OPTIMUS
//!   hypervisor's shadow-paging code and walked by the IOMMU on IOTLB
//!   misses.
//!
//! The table is a genuine 4-level radix tree over 48-bit addresses with
//! 9 bits per level. Leaves can sit at level 1 (4 KB pages) or level 2
//! (2 MB huge pages), mirroring x86's PTE/PDE split; the IOMMU's walk
//! latency model charges one memory access per level traversed, so the
//! depth [`PageTable::walk`] reports is part of the performance model, not
//! just bookkeeping.
//!
//! # Examples
//!
//! ```
//! use optimus_mem::page_table::{PageTable, PageFlags};
//! use optimus_mem::addr::PageSize;
//!
//! let mut pt = PageTable::new();
//! pt.map(0x4000_0000, 0x1234_5000, PageSize::Small, PageFlags::rw()).unwrap();
//! let (pa, _) = pt.translate(0x4000_0042).unwrap();
//! assert_eq!(pa, 0x1234_5042);
//! ```

use crate::addr::PageSize;
use optimus_sim::hashing::FastMap;

/// Permission and status bits attached to a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFlags {
    /// Mapping is readable (always true for present mappings here).
    pub read: bool,
    /// Mapping is writable.
    pub write: bool,
}

impl PageFlags {
    /// Read-only mapping.
    pub const fn ro() -> Self {
        Self {
            read: true,
            write: false,
        }
    }

    /// Read-write mapping.
    pub const fn rw() -> Self {
        Self {
            read: true,
            write: true,
        }
    }
}

/// Errors from [`PageTable::map`] / [`PageTable::unmap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The virtual address is already mapped (possibly at a different size).
    AlreadyMapped,
    /// The address to unmap is not mapped.
    NotMapped,
    /// Address or physical frame not aligned to the page size.
    Misaligned,
    /// A huge mapping would overlap existing 4 KB mappings (or vice versa).
    Overlap,
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            MapError::AlreadyMapped => "virtual page already mapped",
            MapError::NotMapped => "virtual page not mapped",
            MapError::Misaligned => "address not aligned to page size",
            MapError::Overlap => "mapping overlaps an existing mapping of different size",
        };
        write!(f, "{msg}")
    }
}

impl std::error::Error for MapError {}

/// One node of the radix tree: 512 slots.
#[derive(Debug, Clone, Default)]
struct Node {
    entries: FastMap<u16, Entry>,
}

/// What one hardware walk of the table finds for an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Node accesses the walker made, whether or not it hit a mapping.
    /// Feeds the IOTLB-miss latency model.
    pub depth: u32,
    /// The mapping covering the address, if any: the translated physical
    /// address, the mapping's flags and its page size.
    pub leaf: Option<(u64, PageFlags, PageSize)>,
}

#[derive(Debug, Clone)]
enum Entry {
    /// Pointer to the next-level node (index into the node arena).
    Table(usize),
    /// Leaf mapping: physical frame base + flags. Valid at level 1 (4 KB)
    /// or level 2 (2 MB).
    Leaf { pa: u64, flags: PageFlags },
}

/// A 4-level, 48-bit radix page table supporting 4 KB and 2 MB leaves.
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<Node>,
    mapped_count: usize,
}

const LEVEL_BITS: u32 = 9;
const LEVELS: u32 = 4;

fn index_at_level(va: u64, level: u32) -> u16 {
    // level 4 = root (bits 39..48), level 1 = last (bits 12..21).
    ((va >> (12 + (level - 1) * LEVEL_BITS)) & 0x1FF) as u16
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty table (just a root node).
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::default()],
            mapped_count: 0,
        }
    }

    /// Number of leaf mappings installed.
    pub fn mapped_pages(&self) -> usize {
        self.mapped_count
    }

    /// Installs a mapping `va → pa` of the given size.
    ///
    /// # Errors
    ///
    /// * [`MapError::Misaligned`] — `va` or `pa` not aligned to `size`;
    /// * [`MapError::AlreadyMapped`] — the exact page is already mapped;
    /// * [`MapError::Overlap`] — a differently-sized mapping occupies the
    ///   range.
    pub fn map(&mut self, va: u64, pa: u64, size: PageSize, flags: PageFlags) -> Result<(), MapError> {
        let bytes = size.bytes();
        if va % bytes != 0 || pa % bytes != 0 {
            return Err(MapError::Misaligned);
        }
        let leaf_level = match size {
            PageSize::Small => 1,
            PageSize::Huge => 2,
        };
        let mut node = 0usize;
        for level in (leaf_level..=LEVELS).rev() {
            let idx = index_at_level(va, level);
            if level == leaf_level {
                match self.nodes[node].entries.get(&idx) {
                    None => {
                        self.nodes[node]
                            .entries
                            .insert(idx, Entry::Leaf { pa, flags });
                        self.mapped_count += 1;
                        return Ok(());
                    }
                    Some(Entry::Leaf { .. }) => return Err(MapError::AlreadyMapped),
                    Some(Entry::Table(_)) => return Err(MapError::Overlap),
                }
            }
            let next = match self.nodes[node].entries.get(&idx) {
                Some(Entry::Table(t)) => *t,
                Some(Entry::Leaf { .. }) => return Err(MapError::Overlap),
                None => {
                    let t = self.nodes.len();
                    self.nodes.push(Node::default());
                    self.nodes[node].entries.insert(idx, Entry::Table(t));
                    t
                }
            };
            node = next;
        }
        unreachable!("loop always returns at leaf level");
    }

    /// Removes the mapping containing `va`.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::NotMapped`] if no mapping covers `va`.
    pub fn unmap(&mut self, va: u64) -> Result<(), MapError> {
        let mut node = 0usize;
        for level in (1..=LEVELS).rev() {
            let idx = index_at_level(va, level);
            match self.nodes[node].entries.get(&idx) {
                Some(Entry::Table(t)) => node = *t,
                Some(Entry::Leaf { .. }) => {
                    self.nodes[node].entries.remove(&idx);
                    self.mapped_count -= 1;
                    return Ok(());
                }
                None => return Err(MapError::NotMapped),
            }
        }
        Err(MapError::NotMapped)
    }

    /// Walks the table for `va` once, as the hardware walker does: the
    /// levels touched and the leaf found, if any.
    pub fn walk(&self, va: u64) -> Walk {
        let mut node = 0usize;
        let mut depth = 0;
        for level in (1..=LEVELS).rev() {
            depth += 1;
            match self.nodes[node].entries.get(&index_at_level(va, level)) {
                Some(Entry::Table(t)) => node = *t,
                Some(Entry::Leaf { pa, flags }) => {
                    let size = if level == 2 { PageSize::Huge } else { PageSize::Small };
                    let offset = va & (size.bytes() - 1);
                    return Walk { depth, leaf: Some((pa + offset, *flags, size)) };
                }
                None => return Walk { depth, leaf: None },
            }
        }
        Walk { depth, leaf: None }
    }

    /// Translates `va`, returning the physical address and the mapping's
    /// flags, or `None` if unmapped.
    pub fn translate(&self, va: u64) -> Option<(u64, PageFlags)> {
        self.walk(va).leaf.map(|(pa, flags, _)| (pa, flags))
    }

    /// Enumerates every leaf mapping as `(va, pa, size, flags)`, sorted by
    /// virtual address. The per-node entry maps are unordered, so the result
    /// is sorted before returning — callers (snapshots, migration replay,
    /// IOPT equality checks) rely on the order being deterministic.
    pub fn mappings(&self) -> Vec<(u64, u64, PageSize, PageFlags)> {
        let mut out = Vec::with_capacity(self.mapped_count);
        self.collect_mappings(0, LEVELS, 0, &mut out);
        out.sort_unstable_by_key(|&(va, _, _, _)| va);
        out
    }

    fn collect_mappings(
        &self,
        node: usize,
        level: u32,
        va_prefix: u64,
        out: &mut Vec<(u64, u64, PageSize, PageFlags)>,
    ) {
        for (&idx, entry) in &self.nodes[node].entries {
            let va = va_prefix | ((idx as u64) << (12 + (level - 1) * LEVEL_BITS));
            match entry {
                Entry::Table(t) => self.collect_mappings(*t, level - 1, va, out),
                Entry::Leaf { pa, flags } => {
                    let size = if level == 2 {
                        PageSize::Huge
                    } else {
                        PageSize::Small
                    };
                    out.push((va, *pa, size, *flags));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_2M, PAGE_4K};

    #[test]
    fn map_translate_4k() {
        let mut pt = PageTable::new();
        pt.map(0x7000_1000, 0xABC000, PageSize::Small, PageFlags::rw())
            .unwrap();
        assert_eq!(pt.translate(0x7000_1ABC), Some((0xABCABC, PageFlags::rw())));
        assert_eq!(pt.translate(0x7000_2000), None);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn map_translate_2m() {
        let mut pt = PageTable::new();
        pt.map(2 * PAGE_2M, 7 * PAGE_2M, PageSize::Huge, PageFlags::ro())
            .unwrap();
        let (pa, flags) = pt.translate(2 * PAGE_2M + 0x12345).unwrap();
        assert_eq!(pa, 7 * PAGE_2M + 0x12345);
        assert!(!flags.write);
        let leaf = pt.walk(2 * PAGE_2M + 5).leaf;
        assert_eq!(leaf, Some((7 * PAGE_2M + 5, PageFlags::ro(), PageSize::Huge)));
    }

    #[test]
    fn rejects_double_map() {
        let mut pt = PageTable::new();
        pt.map(0x1000, 0x2000, PageSize::Small, PageFlags::rw()).unwrap();
        assert_eq!(
            pt.map(0x1000, 0x3000, PageSize::Small, PageFlags::rw()),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn rejects_misaligned() {
        let mut pt = PageTable::new();
        assert_eq!(
            pt.map(0x1001, 0x2000, PageSize::Small, PageFlags::rw()),
            Err(MapError::Misaligned)
        );
        assert_eq!(
            pt.map(PAGE_2M, PAGE_4K, PageSize::Huge, PageFlags::rw()),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn huge_overlapping_small_rejected() {
        let mut pt = PageTable::new();
        // A 4K page inside the 2M range.
        pt.map(3 * PAGE_2M + PAGE_4K, 0x5000, PageSize::Small, PageFlags::rw())
            .unwrap();
        assert_eq!(
            pt.map(3 * PAGE_2M, 0x0, PageSize::Huge, PageFlags::rw()),
            Err(MapError::Overlap)
        );
    }

    #[test]
    fn small_overlapping_huge_rejected() {
        let mut pt = PageTable::new();
        pt.map(4 * PAGE_2M, 0x0, PageSize::Huge, PageFlags::rw()).unwrap();
        assert_eq!(
            pt.map(4 * PAGE_2M + PAGE_4K, 0x9000, PageSize::Small, PageFlags::rw()),
            Err(MapError::Overlap)
        );
    }

    #[test]
    fn unmap_then_remap() {
        let mut pt = PageTable::new();
        pt.map(0x8000, 0x1000, PageSize::Small, PageFlags::rw()).unwrap();
        pt.unmap(0x8000).unwrap();
        assert_eq!(pt.translate(0x8000), None);
        assert_eq!(pt.mapped_pages(), 0);
        pt.map(0x8000, 0x2000, PageSize::Small, PageFlags::rw()).unwrap();
        assert_eq!(pt.translate(0x8000).unwrap().0, 0x2000);
    }

    #[test]
    fn unmap_unmapped_errors() {
        let mut pt = PageTable::new();
        assert_eq!(pt.unmap(0x1234000), Err(MapError::NotMapped));
    }

    #[test]
    fn unmap_by_interior_address() {
        let mut pt = PageTable::new();
        pt.map(PAGE_2M, 0, PageSize::Huge, PageFlags::rw()).unwrap();
        pt.unmap(PAGE_2M + 0x1234).unwrap();
        assert_eq!(pt.translate(PAGE_2M), None);
    }

    #[test]
    fn walk_counts_levels() {
        let mut pt = PageTable::new();
        assert_eq!(pt.walk(0x1000), Walk { depth: 1, leaf: None }); // root miss
        pt.map(0x1000, 0x2000, PageSize::Small, PageFlags::rw()).unwrap();
        // Full 4-level walk.
        assert_eq!(pt.walk(0x1008).depth, 4);
        assert_eq!(pt.walk(0x1008).leaf, Some((0x2008, PageFlags::rw(), PageSize::Small)));
        // A miss in the populated level-1 node still touches all four.
        assert_eq!(pt.walk(0x3000), Walk { depth: 4, leaf: None });
        pt.map(PAGE_2M * 512, 0, PageSize::Huge, PageFlags::rw()).unwrap();
        assert_eq!(pt.walk(PAGE_2M * 512).depth, 3); // huge leaf at level 2
    }

    #[test]
    fn many_mappings_stay_consistent() {
        let mut pt = PageTable::new();
        for i in 0..1000u64 {
            pt.map(i * PAGE_4K, (1000 - i) * PAGE_4K, PageSize::Small, PageFlags::rw())
                .unwrap();
        }
        assert_eq!(pt.mapped_pages(), 1000);
        for i in (0..1000u64).step_by(7) {
            let (pa, _) = pt.translate(i * PAGE_4K + 3).unwrap();
            assert_eq!(pa, (1000 - i) * PAGE_4K + 3);
        }
    }

    #[test]
    fn mappings_enumerates_sorted_mixed_sizes() {
        let mut pt = PageTable::new();
        // Insert out of order, mixed sizes, spread across high-level nodes.
        pt.map(0x0000_0080_0000_1000, 0x111000, PageSize::Small, PageFlags::rw())
            .unwrap();
        pt.map(4 * PAGE_2M, 8 * PAGE_2M, PageSize::Huge, PageFlags::ro()).unwrap();
        pt.map(0x1000, 0x2000, PageSize::Small, PageFlags::rw()).unwrap();
        let got = pt.mappings();
        assert_eq!(
            got,
            vec![
                (0x1000, 0x2000, PageSize::Small, PageFlags::rw()),
                (4 * PAGE_2M, 8 * PAGE_2M, PageSize::Huge, PageFlags::ro()),
                (0x0000_0080_0000_1000, 0x111000, PageSize::Small, PageFlags::rw()),
            ]
        );
        pt.unmap(0x1000).unwrap();
        assert_eq!(pt.mappings().len(), 2);
    }

    #[test]
    fn distinct_high_level_indices() {
        // Two addresses differing only in bits 39+ must not collide.
        let mut pt = PageTable::new();
        let a = 0x0000_0080_0000_1000u64; // bit 39 set
        let b = 0x0000_0000_0000_1000u64;
        pt.map(a, 0x111000, PageSize::Small, PageFlags::rw()).unwrap();
        pt.map(b, 0x222000, PageSize::Small, PageFlags::rw()).unwrap();
        assert_eq!(pt.translate(a).unwrap().0, 0x111000);
        assert_eq!(pt.translate(b).unwrap().0, 0x222000);
    }
}
