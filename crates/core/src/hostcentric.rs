//! The host-centric programming model baseline (Fig. 1).
//!
//! Under the host-centric model the accelerator cannot issue DMAs: the CPU
//! configures the shell's DMA engine for every data segment. For a
//! pointer-chasing workload like SSSP — whose per-round working set is a
//! *non-contiguous* collection of per-vertex edge segments — the programmer
//! has exactly the two options the paper names (§2.1):
//!
//! * **Config** — "initiate multiple data transmissions separately and
//!   sequentially": one DMA-engine configuration (a descriptor-ring
//!   doorbell MMIO) per segment;
//! * **Copy** — "marshal the data every time before transmission": memcpy
//!   all segments into a contiguous staging buffer (≈ 6 GB/s of CPU time)
//!   and launch one large DMA per round.
//!
//! Under virtualization every doorbell becomes a ≈ 2 µs trap-and-emulate,
//! which is precisely the gap Fig. 1 shows widening.
//!
//! The relaxation compute runs on the CPU against its in-memory distance
//! array after each round's data lands — functionally identical to the
//! shared-memory run, so results can be compared bit-for-bit.

use crate::hypervisor::TrapCost;
use optimus_algo::graph::{CsrGraph, INF};
use optimus_cci::channel::SelectorPolicy;
use optimus_cci::dma_engine::DmaEngine;
use optimus_cci::host_side::HostSide;
use optimus_cci::packet::AccelId;
use optimus_cci::params::host_costs;
use optimus_mem::addr::{Hpa, Iova, PageSize, PAGE_2M};
use optimus_mem::page_table::PageFlags;
use optimus_sim::clock::PlatformClock;
use optimus_sim::time::{ns_to_cycles, Cycle};

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
    /// DMA-engine configurations issued.
    pub configs: u64,
    /// Bytes marshalled by the CPU (Copy mode).
    pub copied_bytes: u64,
}

/// MMIO doorbells per DMA-engine configuration (descriptors live in a
/// memory ring; one doorbell write launches a prepared descriptor).
const MMIO_PER_CONFIG: u64 = 1;

/// CPU cost of gathering one non-contiguous segment while marshalling
/// (Copy mode): a dependent DRAM access per segment, on top of the copy
/// bandwidth.
const GATHER_NS_PER_SEGMENT: f64 = 80.0;

struct HcPlatform {
    host: HostSide,
    engine: DmaEngine,
    now: Cycle,
    fastfwd: bool,
    /// Batched-stepping burst length (see `advance`).
    batch: Cycle,
}

impl HcPlatform {
    fn new(backing_bytes: u64) -> Self {
        let mut host = HostSide::new(SelectorPolicy::Auto);
        // The host-centric driver pins one contiguous buffer up front and
        // programs the engine with addresses inside it (identity IOVA).
        let pages = backing_bytes.div_ceil(PAGE_2M) + 1;
        for i in 0..pages {
            host.iommu_mut()
                .map(
                    Iova::new(i * PAGE_2M),
                    Hpa::new(i * PAGE_2M),
                    PageSize::Huge,
                    PageFlags::rw(),
                )
                .expect("fresh identity range");
        }
        Self {
            host,
            engine: DmaEngine::new(AccelId(0)),
            now: 0,
            fastfwd: optimus_sim::simrate::fast_forward_enabled(),
            batch: optimus_sim::simrate::DEFAULT_BATCH_STEP,
        }
    }

    /// Advances the platform clock, pumping the engine. When the engine is
    /// idle the clock fast-forwards (nothing observable happens cycle by
    /// cycle while the CPU is busy trapping or copying); while a transfer
    /// is in flight the clock jumps between event horizons unless
    /// `OPTIMUS_NO_FASTFWD` pins it to per-cycle stepping — the shared
    /// [`PlatformClock::advance_toward`] kernel.
    fn advance(&mut self, cycles: Cycle) {
        let end = self.now + cycles;
        // Batched stepping may overshoot the cycle `is_done` flips by up to
        // one burst: the tail steps are no-ops for a done engine (nothing
        // left to issue) and only deliver acks at the same ready cycles the
        // post-loop drain below would, so the final state is identical.
        let mut burst: Cycle = 1;
        while self.now < end && !self.engine.is_done() {
            self.advance_toward_adaptive(end, &mut burst, self.batch);
        }
        if self.now < end {
            // Engine done (or quiescent): nothing observable remains cycle
            // by cycle. Jump, then drain residual acks of the final lines.
            self.now = end;
            while let Some(pkt) = self.host.pop_response(self.now) {
                self.engine.deliver(&pkt);
            }
        }
        optimus_sim::simrate::add_cycles(cycles);
    }

    /// Runs a configured transfer to completion, draining the FIFO.
    fn finish_transfer(&mut self) {
        while !self.engine.is_done() {
            self.advance(64);
        }
        while self.engine.pop_line().is_some() {}
    }

    /// Charges MMIO doorbell cost.
    fn doorbell(&mut self, trap: TrapCost) {
        let ns = match trap {
            TrapCost::Native => host_costs::MMIO_NATIVE_NS,
            TrapCost::Virtualized => host_costs::MMIO_TRAPPED_NS,
        };
        self.advance(ns_to_cycles(ns * MMIO_PER_CONFIG as f64));
    }
}

impl PlatformClock for HcPlatform {
    fn now(&self) -> Cycle {
        self.now
    }

    /// Earliest cycle ≥ `now` at which an active engine's step or the
    /// response drain could do anything; `None` if the platform is fully
    /// quiescent (nothing in flight, nothing issuable).
    fn next_event(&self) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = self.host.next_event(self.now);
        if self.engine.wants_issue() {
            let t = self
                .engine
                .next_issue_ready()
                .max(self.host.next_accept(self.now))
                .max(self.now);
            horizon = Some(horizon.map_or(t, |h| h.min(t)));
        }
        horizon.map(|h| h.max(self.now))
    }

    fn step_cycle(&mut self) {
        self.engine.step(self.now, &mut self.host);
        while let Some(pkt) = self.host.pop_response(self.now) {
            self.engine.deliver(&pkt);
        }
        self.now += 1;
    }

    fn skip_to(&mut self, t: Cycle) {
        self.now = t;
    }

    fn fast_forward(&self) -> bool {
        self.fastfwd
    }
}

/// Runs SSSP under the host-centric model, returning distances and timing.
pub fn run_sssp(graph: &CsrGraph, source: u32, mode: HcMode, trap: TrapCost) -> HcResult {
    let blob = graph.to_dram_layout();
    let n = graph.vertices();
    let mut platform = HcPlatform::new(blob.len() as u64 + (1 << 21));
    platform.host.memory_mut().write(Hpa::new(0), &blob);

    // Byte offsets inside the blob (mirrors the accelerator's layout).
    let target_base = 8 + 4 * (n as u64 + 1);
    let weight_base = target_base + 4 * graph.edges() as u64;

    let mut dist = vec![INF; n];
    if n == 0 {
        return HcResult {
            cycles: 0,
            dist,
            rounds: 0,
            configs: 0,
            copied_bytes: 0,
        };
    }
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut rounds = 0;
    let mut configs = 0u64;
    let mut copied_bytes = 0u64;
    let row = graph.row_offsets();

    // Like the shared-memory accelerator, the host-centric design keeps
    // vertex data on-chip: the CPU streams the distance array in once at
    // the start and back out at the end (one bulk DMA each way).
    let dist_lines_total = (n as u64 * 4).div_ceil(64).max(1);
    platform.doorbell(trap);
    platform
        .engine
        .configure(Iova::new(0), dist_lines_total)
        .expect("engine idle");
    configs += 1;
    platform.finish_transfer();

    while !frontier.is_empty() {
        rounds += 1;
        // Gather this round's segments: per-vertex (lo, hi) edge ranges.
        let segments: Vec<(u32, u32)> = frontier
            .iter()
            .map(|&u| (row[u as usize], row[u as usize + 1]))
            .filter(|&(lo, hi)| lo != hi)
            .collect();
        match mode {
            HcMode::Config => {
                // One engine configuration per non-contiguous segment: the
                // per-vertex edge+weight ranges...
                for &(lo, hi) in &segments {
                    // One doorbell launches the vertex's prepared descriptor
                    // pair (targets + weights); the engine chains them.
                    platform.doorbell(trap);
                    for base in [target_base, weight_base] {
                        let from = base + 4 * lo as u64;
                        let to = base + 4 * hi as u64;
                        let first = from & !63;
                        let lines = (to - 1 - first) / 64 + 1;
                        platform
                            .engine
                            .configure(Iova::new(first), lines)
                            .expect("engine idle");
                        configs += 1;
                        platform.finish_transfer();
                    }
                }
            }
            HcMode::Copy => {
                // Marshal the edge segments into a contiguous staging
                // buffer, then one bulk DMA. The CPU gathers whole cache
                // lines per segment (the granularity it reads at).
                let bytes: u64 = segments
                    .iter()
                    .map(|&(lo, hi)| {
                        let raw = 8 * (hi - lo) as u64;
                        raw.div_ceil(64) * 64 * 2
                    })
                    .sum::<u64>();
                copied_bytes += bytes;
                let memcpy_cycles = (bytes as f64 / host_costs::MEMCPY_GBPS / 2.5
                    + segments.len() as f64 * GATHER_NS_PER_SEGMENT / 2.5)
                    .ceil() as Cycle;
                platform.advance(memcpy_cycles);
                let lines = bytes.div_ceil(64).max(1);
                platform.doorbell(trap);
                platform
                    .engine
                    .configure(Iova::new(0), lines)
                    .expect("engine idle");
                configs += 1;
                platform.finish_transfer();
            }
        }
        // The relaxation compute (identical to the shared-memory result).
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
        frontier = next;
    }

    // Write the final distances back (modelled as one more bulk transfer's
    // worth of time; the engine only reads, so reuse a read of equal size).
    platform.doorbell(trap);
    platform
        .engine
        .configure(Iova::new(0), dist_lines_total)
        .expect("engine idle");
    configs += 1;
    platform.finish_transfer();

    HcResult {
        cycles: platform.now,
        dist,
        rounds,
        configs,
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
