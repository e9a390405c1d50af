//! Lazily synthesized linked-list regions.
//!
//! The LinkedList benchmark walks a list "distributed randomly in DRAM"
//! over working sets up to 8 GB. The layout is a Feistel pseudo-random
//! permutation over node slots: slot `i` stores a pointer to slot `π(i)`,
//! so any 64-byte line of the region can be synthesized on demand — no
//! gigabytes of host RAM required.

use optimus_mem::addr::{Gva, Hpa};
use optimus_mem::host::LineFiller;
use optimus_sim::perm::FeistelPermutation;

/// Builds the lazy line generator for a list of `nodes` 64-byte nodes
/// whose region starts at guest virtual address `region_gva` and is backed
/// contiguously starting at host physical address `region_hpa`, for
/// registration via
/// [`HostMemory::add_lazy_region_lines`](optimus_mem::host::HostMemory::add_lazy_region_lines).
///
/// Node `i` (at `region_gva + 64·i`) stores the GVA of its successor in
/// its first eight bytes — the pointers are *guest virtual*, exactly what
/// the shared-memory accelerator dereferences. The walk dereferences one
/// random node (= one 64-byte line) per step, and synthesizing a line
/// costs exactly two permutation evaluations.
///
/// The successor function is a single Hamiltonian cycle in random order:
/// the node at slot `π(k)` points at slot `π(k+1 mod n)`, so a walk from
/// any node visits every node exactly once per lap. (Using `π` directly
/// as the successor would decompose the region into random-length cycles,
/// making walk throughput depend on which cycle the start node landed in.)
pub fn linked_list_line_filler(
    region_gva: Gva,
    region_hpa: Hpa,
    nodes: u64,
    seed: u64,
) -> LineFiller {
    assert!(nodes > 0, "a list needs at least one node");
    let perm = FeistelPermutation::new(nodes, seed);
    let base_gva = region_gva.raw();
    let base_hpa = region_hpa.raw();
    std::sync::Arc::new(move |line_hpa: Hpa, line: &mut [u8; 64]| {
        let node = (line_hpa.raw() - base_hpa) / 64;
        if node < nodes {
            let pos = perm.invert(node);
            let next = perm.apply((pos + 1) % nodes);
            line[0..8].copy_from_slice(&(base_gva + next * 64).to_le_bytes());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_mem::host::HostMemory;

    #[test]
    fn filler_produces_a_valid_permutation_walk() {
        let nodes = 1024u64;
        let gva = Gva::new(0x10_0000);
        let hpa = Hpa::new(0x40_0000);
        let mut mem = HostMemory::new();
        mem.add_lazy_region_lines(hpa, nodes * 64, linked_list_line_filler(gva, hpa, nodes, 7));
        // Walk in software via the memory image.
        let mut seen = std::collections::HashSet::new();
        let mut cur = gva.raw();
        for _ in 0..nodes {
            let off = cur - gva.raw();
            let line = mem.read_line(Hpa::new(hpa.raw() + off));
            let next = u64::from_le_bytes(line[0..8].try_into().unwrap());
            assert!(next >= gva.raw() && next < gva.raw() + nodes * 64);
            assert_eq!(next % 64, 0);
            seen.insert(next);
            cur = next;
        }
        // The Hamiltonian layout visits every node exactly once per lap.
        assert_eq!(seen.len() as u64, nodes, "not a single cycle");
        // Lazy: no frames materialized by reads.
        assert_eq!(mem.materialized_frames(), 0);
    }

    #[test]
    fn same_seed_same_layout() {
        let gva = Gva::new(0);
        let hpa = Hpa::new(0);
        let f1 = linked_list_line_filler(gva, hpa, 256, 9);
        let f2 = linked_list_line_filler(gva, hpa, 256, 9);
        for line in (0..256 * 64).step_by(64) {
            let (mut a, mut b) = ([0u8; 64], [0u8; 64]);
            f1(Hpa::new(line), &mut a);
            f2(Hpa::new(line), &mut b);
            assert_eq!(a, b, "node {}", line / 64);
        }
    }
}
