//! Host physical frame allocation.
//!
//! The evaluation machine has 188 GB of DRAM; the hypervisor parcels it out
//! to VMs in 2 MB huge-page frames (the paper's default page size for DMA
//! memory, chosen to stretch the IOTLB's reach to 1 GB). A bump allocator
//! is all a reproduction needs — frames are never freed individually, only
//! when a VM is torn down, and the sparse
//! [`HostMemory`](optimus_mem::host::HostMemory) model means unallocated
//! space costs nothing.

use optimus_mem::addr::{Hpa, PAGE_2M};

/// Total host DRAM modeled (188 GB, §6.1).
pub const HOST_DRAM_BYTES: u64 = 188 * (1 << 30);

/// First allocatable HPA (below this is reserved for firmware/host kernel,
/// keeping guest frames visually distinct in traces).
pub const ARENA_BASE: u64 = 1 << 32;

/// A bump allocator over 2 MB host frames.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    next: u64,
    limit: u64,
}

impl Default for FrameAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameAllocator {
    /// Creates the allocator over the standard arena.
    pub fn new() -> Self {
        Self {
            next: ARENA_BASE,
            limit: ARENA_BASE + HOST_DRAM_BYTES,
        }
    }

    /// Allocates `count` *contiguous* 2 MB frames, returning the base HPA.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted (the reproduction's experiments are
    /// sized well below 188 GB; exhaustion indicates a bug).
    pub fn alloc_huge(&mut self, count: u64) -> Hpa {
        let base = self.next;
        let bytes = count * PAGE_2M;
        assert!(
            base + bytes <= self.limit,
            "host DRAM exhausted: wanted {count} huge frames at {base:#x}"
        );
        self.next += bytes;
        Hpa::new(base)
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.next - ARENA_BASE
    }

    /// The bump cursor (next HPA to be handed out) — snapshotted by
    /// hypervisor live-update so a thawed instance continues allocating from
    /// the same point.
    pub fn cursor(&self) -> u64 {
        self.next
    }

    /// Whether `cursor` is a position [`restore`](Self::restore) accepts:
    /// 2 MB-aligned and inside the standard arena (snapshot validation).
    pub(crate) fn holds_cursor(cursor: u64) -> bool {
        (ARENA_BASE..=ARENA_BASE + HOST_DRAM_BYTES).contains(&cursor) && cursor % PAGE_2M == 0
    }

    /// Rebuilds an allocator whose next allocation starts at `cursor`.
    ///
    /// # Panics
    ///
    /// Panics if `cursor` is misaligned or outside the standard arena.
    pub fn restore(cursor: u64) -> Self {
        assert!(Self::holds_cursor(cursor), "allocator cursor {cursor:#x} outside the arena");
        Self {
            next: cursor,
            limit: ARENA_BASE + HOST_DRAM_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_contiguous_and_aligned() {
        let mut a = FrameAllocator::new();
        let x = a.alloc_huge(3);
        let y = a.alloc_huge(1);
        assert!(x.is_aligned(PAGE_2M));
        assert_eq!(y.raw(), x.raw() + 3 * PAGE_2M);
        assert_eq!(a.allocated_bytes(), 4 * PAGE_2M);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = FrameAllocator::new();
        a.alloc_huge(HOST_DRAM_BYTES / PAGE_2M + 1);
    }
}
