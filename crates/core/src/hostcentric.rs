//! The host-centric programming model baseline (Fig. 1).
//!
//! Under the host-centric model the accelerator cannot issue DMAs: the CPU
//! configures the shell's DMA engine for every data segment. For a
//! pointer-chasing workload like SSSP — whose per-round working set is a
//! *non-contiguous* collection of per-vertex edge segments — the programmer
//! has exactly the two options the paper names (§2.1):
//!
//! * **Config** — "initiate multiple data transmissions separately and
//!   sequentially": one DMA-engine configuration (a descriptor in memory
//!   plus one doorbell MMIO) per segment;
//! * **Copy** — "marshal the data every time before transmission": memcpy
//!   all segments into a contiguous staging buffer (≈ 6 GB/s of CPU time)
//!   and launch one large DMA per round.
//!
//! The engine is the [`HcDma`](AccelKind::HcDma) kind on a pass-through
//! [`Optimus`], so a doorbell is a guest MMIO write and pays the
//! hypervisor's own trap path: under virtualization every doorbell becomes
//! a ≈ 2 µs trap-and-emulate, which is precisely the gap Fig. 1 shows
//! widening. Descriptors are written with plain guest stores (no trap).
//!
//! The relaxation compute runs on the CPU against its in-memory distance
//! array — functionally identical to the shared-memory run, so results can
//! be compared bit-for-bit. Every transfer must deliver every line it was
//! configured for: a short one would only shorten the timing.

use crate::hypervisor::{Optimus, TrapCost};
use crate::vaccel::VaccelId;
use optimus_accel::hc_dma::HcDmaKernel;
use optimus_accel::registry::AccelKind;
use optimus_algo::graph::{CsrGraph, INF};
use optimus_cci::channel::SelectorPolicy;
use optimus_cci::params::host_costs;
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;

/// The two host-centric strategies of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HcMode {
    /// One DMA-engine configuration per non-contiguous segment.
    Config,
    /// Marshal per round, one bulk DMA.
    Copy,
}

/// Result of a host-centric SSSP run.
#[derive(Debug)]
pub struct HcResult {
    /// Total fabric cycles consumed.
    pub cycles: Cycle,
    /// The computed distance array.
    pub dist: Vec<u32>,
    /// Relaxation rounds executed.
    pub rounds: usize,
    /// DMA-engine configurations issued (one doorbell each).
    pub configs: u64,
    /// Bytes marshalled by the CPU (Copy mode).
    pub copied_bytes: u64,
}

/// CPU cost of gathering one non-contiguous segment while marshalling
/// (Copy mode): a dependent DRAM access per segment, on top of the copy
/// bandwidth.
const GATHER_NS_PER_SEGMENT: f64 = 80.0;

/// The CPU's relaxation: the frontier of every round, and the final
/// distances.
fn relax(graph: &CsrGraph, source: u32) -> (Vec<Vec<u32>>, Vec<u32>) {
    let n = graph.vertices();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut rounds = Vec::new();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        let mut in_next = vec![false; n];
        for &u in &frontier {
            let du = dist[u as usize];
            for (v, w) in graph.neighbors(u) {
                let cand = du.saturating_add(w);
                if cand < dist[v as usize] {
                    dist[v as usize] = cand;
                    if !in_next[v as usize] {
                        in_next[v as usize] = true;
                        next.push(v);
                    }
                }
            }
        }
        rounds.push(std::mem::replace(&mut frontier, next));
    }
    (rounds, dist)
}

/// Bytes Copy mode marshals for `segments`: whole lines of targets and of
/// weights per segment (the granularity the CPU reads at).
fn marshalled_bytes(segments: &[(u32, u32)]) -> u64 {
    segments.iter().map(|&(lo, hi)| (8 * (hi - lo) as u64).div_ceil(64) * 64 * 2).sum()
}

/// The guest driving the engine: its hypervisor, its vaccel, and the one
/// descriptor line every doorbell launches.
struct Driver {
    hv: Optimus,
    va: VaccelId,
    desc: Gva,
    configs: u64,
}

impl Driver {
    /// One DMA-engine configuration: store the descriptor naming `runs` of
    /// `(first line GVA, lines)`, ring the doorbell, and wait trap-free,
    /// in 64-cycle quanta, until the engine is done.
    ///
    /// # Panics
    ///
    /// Panics if the transfer delivered fewer lines than it named.
    fn transfer(&mut self, runs: &[(u64, u64)]) {
        let mut g = self.hv.guest(self.va);
        g.write_mem(self.desc, &HcDmaKernel::descriptor(runs));
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        while !self.hv.vaccel_completed(self.va) {
            self.hv.run(64);
        }
        self.configs += 1;
        let delivered = self.hv.device().accel(0).peek_reg(HcDmaKernel::REG_DELIVERED);
        let want: u64 = runs.iter().map(|&(_, lines)| lines).sum();
        assert_eq!(delivered, want, "a host-centric transfer of {runs:?} ended short");
    }
}

/// Runs SSSP under the host-centric model, returning distances and timing.
pub fn run_sssp(graph: &CsrGraph, source: u32, mode: HcMode, trap: TrapCost) -> HcResult {
    let n = graph.vertices();
    if n == 0 {
        return HcResult {
            cycles: 0,
            dist: Vec::new(),
            rounds: 0,
            configs: 0,
            copied_bytes: 0,
        };
    }
    let (rounds, dist) = relax(graph, source);
    let row = graph.row_offsets();
    // Each round's segments: the per-vertex (lo, hi) edge ranges.
    let segments: Vec<Vec<(u32, u32)>> = rounds
        .iter()
        .map(|frontier| {
            let ranges = frontier.iter().map(|&u| (row[u as usize], row[u as usize + 1]));
            ranges.filter(|&(lo, hi)| lo != hi).collect()
        })
        .collect();

    let mut hv = Optimus::new_passthrough(AccelKind::HcDma, SelectorPolicy::Auto, trap);
    let vm = hv.create_vm("host-centric");
    let va = hv.create_vaccel(vm, 0);
    let blob = graph.to_dram_layout();
    let dist_lines = (n as u64 * 4).div_ceil(64).max(1);
    let staging_bytes = match mode {
        HcMode::Config => 0,
        HcMode::Copy => segments.iter().map(|s| marshalled_bytes(s)).max().unwrap_or(0),
    };
    let (graph_at, dist_at, staging_at, desc) = {
        let mut g = hv.guest(va);
        let graph_at = g.alloc_dma(blob.len() as u64);
        g.write_mem(graph_at, &blob);
        let dist_at = g.alloc_dma(dist_lines * 64);
        let init: Vec<u8> = (0..n as u32)
            .flat_map(|v| if v == source { 0 } else { INF }.to_le_bytes())
            .collect();
        g.write_mem(dist_at, &init);
        // The marshalled bytes only set the transfer's length: the CPU
        // relaxes against its own copy of the graph.
        let staging_at = g.alloc_dma(staging_bytes.max(64));
        let desc = g.alloc_dma(64);
        g.mmio_write(accel_reg::APP_BASE + HcDmaKernel::REG_DESC, desc.raw());
        (graph_at.raw(), dist_at.raw(), staging_at.raw(), desc)
    };
    let start = hv.now();
    let mut driver = Driver { hv, va, desc, configs: 0 };

    // Byte offsets inside the blob (mirrors the accelerator's layout).
    let target_base = graph_at + 8 + 4 * (n as u64 + 1);
    let weight_base = target_base + 4 * graph.edges() as u64;
    let mut copied_bytes = 0u64;

    // Like the shared-memory accelerator, the host-centric design keeps
    // vertex data on-chip: the CPU streams the distance array in once at
    // the start and back out at the end (one bulk DMA each way).
    driver.transfer(&[(dist_at, dist_lines)]);
    for segments in &segments {
        match mode {
            HcMode::Config => {
                // One descriptor per non-contiguous segment, naming the
                // vertex's target and weight ranges.
                for &(lo, hi) in segments {
                    let run = |base: u64| {
                        let first = (base + 4 * lo as u64) & !63;
                        (first, (base + 4 * hi as u64 - 1 - first) / 64 + 1)
                    };
                    driver.transfer(&[run(target_base), run(weight_base)]);
                }
            }
            HcMode::Copy => {
                // Marshal the edge segments into the staging buffer, then
                // one bulk DMA.
                let bytes = marshalled_bytes(segments);
                copied_bytes += bytes;
                let memcpy_cycles = (bytes as f64 / host_costs::MEMCPY_GBPS / 2.5
                    + segments.len() as f64 * GATHER_NS_PER_SEGMENT / 2.5)
                    .ceil() as Cycle;
                driver.hv.run(memcpy_cycles);
                driver.transfer(&[(staging_at, bytes.div_ceil(64).max(1))]);
            }
        }
    }
    // Write the final distances back (modelled as one more bulk transfer's
    // worth of time; the engine only reads, so a read of equal size).
    driver.transfer(&[(dist_at, dist_lines)]);

    HcResult {
        cycles: driver.hv.now() - start,
        dist,
        rounds: rounds.len(),
        configs: driver.configs,
        copied_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_algo::graph::sssp;
    use optimus_sim::rng::Xoshiro256;

    fn random_graph(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut rng = Xoshiro256::seed_from(seed);
        let edges: Vec<(u32, u32, u32)> = (0..m)
            .map(|_| {
                (
                    rng.gen_range(0..n as u64) as u32,
                    rng.gen_range(0..n as u64) as u32,
                    rng.gen_range(1..100) as u32,
                )
            })
            .collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn config_mode_computes_correct_distances() {
        let g = random_graph(100, 600, 7);
        let r = run_sssp(&g, 0, HcMode::Config, TrapCost::Native);
        assert_eq!(r.dist, sssp(&g, 0));
        assert!(r.configs > 0);
        assert_eq!(r.copied_bytes, 0);
    }

    #[test]
    fn copy_mode_computes_correct_distances() {
        let g = random_graph(100, 600, 8);
        let r = run_sssp(&g, 0, HcMode::Copy, TrapCost::Native);
        assert_eq!(r.dist, sssp(&g, 0));
        assert!(r.copied_bytes > 0);
        // One config per round in Copy mode, plus the distance-array
        // load/writeback pair.
        assert_eq!(r.configs as usize, r.rounds + 2);
    }

    #[test]
    fn virtualization_inflates_config_mode_most() {
        let g = random_graph(200, 1600, 9);
        let cfg_native = run_sssp(&g, 0, HcMode::Config, TrapCost::Native).cycles;
        let cfg_virt = run_sssp(&g, 0, HcMode::Config, TrapCost::Virtualized).cycles;
        let copy_native = run_sssp(&g, 0, HcMode::Copy, TrapCost::Native).cycles;
        let copy_virt = run_sssp(&g, 0, HcMode::Copy, TrapCost::Virtualized).cycles;
        let cfg_ratio = cfg_virt as f64 / cfg_native as f64;
        let copy_ratio = copy_virt as f64 / copy_native as f64;
        assert!(cfg_ratio > 1.2, "config virt ratio {cfg_ratio}");
        assert!(
            cfg_ratio > copy_ratio,
            "per-segment trapping must hurt Config more: {cfg_ratio} vs {copy_ratio}"
        );
    }

    #[test]
    fn empty_graph_is_instant() {
        let g = CsrGraph::from_edges(0, &[]);
        let r = run_sssp(&g, 0, HcMode::Config, TrapCost::Native);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.cycles, 0);
    }
}
