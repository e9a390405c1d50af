//! SSSP: the single-source-shortest-path graph accelerator.
//!
//! This is the paper's motivating *pointer-chasing* workload (Fig. 1): the
//! accelerator walks a CSR graph resident in system memory, and the address
//! of every access depends on data returned by a previous access — the
//! frontier names row offsets, row offsets name edge ranges, edges name
//! neighbour vertices. Under the shared-memory model the accelerator chases
//! these pointers itself; under the host-centric model every hop needs CPU
//! involvement, which is exactly the gap Fig. 1 measures.
//!
//! The algorithm is the frontier-based Bellman–Ford relaxation of
//! [`optimus_algo::graph::sssp`] (hardware-friendly: no priority queue),
//! with the vertex data on chip (Zhou–Prasanna style). The distance array
//! is streamed into BRAM at start; a distance array larger than on-chip RAM
//! ends the job. Each round gathers the row-offset lines of its whole
//! frontier, then every edge line the round touches, and relaxes those
//! edges against the on-chip copy. The final distances are streamed back
//! to DRAM at the end.
//!
//! The preemption state is the on-chip distances, the round's frontier, the
//! next frontier and how many of the round's edges are relaxed. A resumed
//! round gathers its lines again and skips those edges, so the job goes on
//! exactly where it stopped. A job saved before its distances were on chip
//! starts over: nothing of it has reached DRAM yet.

use crate::harness::Kernel;
use crate::mover::{Gather, Got, Scatter};
use crate::ser::{Reader, Writer};
use crate::stream::StreamEngine;
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::time::Cycle;
use std::collections::HashSet;

/// "Unreachable" distance (matches [`optimus_algo::graph::INF`]).
pub const INF: u32 = u32::MAX;

/// A sorted set of line GVAs stored as disjoint runs
/// `(first line GVA, lines, slot of the first line)`, so a round's edge
/// ranges cost a few words each rather than a word per line.
#[derive(Debug)]
struct LineRuns(Vec<(u64, u64, usize)>);

impl LineRuns {
    /// Merges `(first line GVA, lines)` runs into ascending disjoint runs.
    fn new(mut runs: Vec<(u64, u64)>) -> Self {
        runs.sort_unstable();
        let mut merged: Vec<(u64, u64, usize)> = Vec::with_capacity(runs.len());
        let mut slots = 0;
        for (first, n) in runs {
            match merged.last_mut() {
                Some(last) if first <= last.0 + 64 * last.1 => {
                    let end = (first + 64 * n).max(last.0 + 64 * last.1);
                    let grown = (end - last.0) / 64 - last.1;
                    last.1 += grown;
                    slots += grown as usize;
                }
                _ => {
                    merged.push((first, n, slots));
                    slots += n as usize;
                }
            }
        }
        LineRuns(merged)
    }

    fn fetch(&self) -> Gather {
        Gather::new(self.0.iter().map(|&(first, n, _)| (first, n)))
    }

    /// Reads a little-endian u32 at `byte_addr` out of a completed fetch
    /// of these runs.
    fn u32_at(&self, fetch: &Gather, byte_addr: u64) -> u32 {
        let line = byte_addr & !63;
        let (first, _, slot) = self.0[self.0.partition_point(|r| r.0 <= line) - 1];
        let off = (byte_addr - line) as usize;
        let bytes = &fetch.line(slot + ((line - first) / 64) as usize)[off..off + 4];
        u32::from_le_bytes(bytes.try_into().unwrap())
    }
}

/// The edge after edge `k` of `ranges[range]`, as `(range, k)`; past the
/// last edge, `range` is `ranges.len()`.
fn next_edge(ranges: &[(u32, u32, u32)], range: usize, k: u32) -> (usize, u32) {
    if k + 1 < ranges[range].2 {
        (range, k + 1)
    } else {
        (range + 1, ranges.get(range + 1).map_or(0, |r| r.1))
    }
}

#[derive(Debug)]
enum Phase {
    Idle,
    FetchHeader(Gather),
    /// Stream the distance array into BRAM.
    LoadDist(StreamEngine),
    /// Stream the final distance array back to DRAM.
    WriteBack(Scatter),
    /// Start a round on the frontier, or the next frontier, or end the job.
    NextRound,
    /// Fetch the row-offset lines of the whole frontier (pipelined — the
    /// frontier's vertices are all known up front).
    RoundOffsets {
        fetch: Gather,
        runs: LineRuns,
    },
    /// Fetch every edge line the round touches (bulk, bandwidth-bound
    /// streaming).
    RoundEdges {
        fetch: Gather,
        runs: LineRuns,
        ranges: Vec<(u32, u32, u32)>,
    },
    /// Relax the gathered edges against BRAM, edge `k` of `ranges[range]`
    /// next.
    RoundRelax {
        fetch: Gather,
        runs: LineRuns,
        ranges: Vec<(u32, u32, u32)>,
        range: usize,
        k: u32,
    },
    Done,
}

/// The SSSP kernel.
#[derive(Debug)]
pub struct SsspKernel {
    meta: AccelMeta,
    graph: u64,
    dist: u64,
    source: u64,
    vertices: u32,
    edges: u32,
    /// The round's vertices, kept until the round ends.
    frontier: Vec<u32>,
    /// The vertices this round improved: the next round's frontier.
    next: Vec<u32>,
    in_next: HashSet<u32>,
    /// Edges of the round relaxed so far, in gather order.
    scanned: u64,
    rounds: u64,
    relaxations: u64,
    /// The on-chip copy of the distance array.
    dist_vec: Vec<u32>,
    phase: Phase,
}

impl Default for SsspKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl SsspKernel {
    /// Register: GVA of the serialized CSR graph
    /// ([`CsrGraph::to_dram_layout`](optimus_algo::graph::CsrGraph::to_dram_layout)).
    pub const REG_GRAPH: u64 = 0;
    /// Register: GVA of the distance array (u32 per vertex, host-initialized
    /// to `INF` except the source, which must be 0).
    pub const REG_DIST: u64 = 8;
    /// Register: source vertex.
    pub const REG_SOURCE: u64 = 16;
    /// Register (read-only): relaxation rounds executed.
    pub const REG_ROUNDS: u64 = 24;
    /// Register (read-only): successful relaxations.
    pub const REG_RELAXATIONS: u64 = 32;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Sssp.meta(),
            graph: 0,
            dist: 0,
            source: 0,
            vertices: 0,
            edges: 0,
            frontier: Vec::new(),
            next: Vec::new(),
            in_next: HashSet::new(),
            scanned: 0,
            rounds: 0,
            relaxations: 0,
            dist_vec: Vec::new(),
            phase: Phase::Idle,
        }
    }

    /// Byte address of `row_offsets[u]`; `row_offsets[u + 1]` follows it.
    fn row_offset_addr(&self, u: u32) -> u64 {
        self.graph + 8 + 4 * u as u64
    }

    fn target_addr(&self, k: u32) -> u64 {
        self.graph + 8 + 4 * (self.vertices as u64 + 1) + 4 * k as u64
    }

    fn weight_addr(&self, k: u32) -> u64 {
        self.target_addr(k) + 4 * self.edges as u64
    }

    /// Whether `[lo, hi)` is a well-formed (possibly empty) edge range. A
    /// malformed graph in guest memory ends the job instead.
    fn edge_range_ok(&self, lo: u32, hi: u32) -> bool {
        lo <= hi && hi <= self.edges
    }

    /// The line runs `(first line GVA, lines)` holding the targets and the
    /// weights of the non-empty edge range `[lo, hi)`.
    fn edge_runs(&self, lo: u32, hi: u32) -> [(u64, u64); 2] {
        [(self.target_addr(lo), self.target_addr(hi)), (self.weight_addr(lo), self.weight_addr(hi))]
            .map(|(from, to)| (from & !63, (to - 1) / 64 - from / 64 + 1))
    }

    /// Ends the round: its frontier is spent.
    fn end_round(&mut self) -> Phase {
        self.frontier.clear();
        self.scanned = 0;
        Phase::NextRound
    }
}

impl Kernel for SsspKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_GRAPH => self.graph = value,
            Self::REG_DIST => self.dist = value,
            Self::REG_SOURCE => self.source = value,
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_GRAPH => self.graph,
            Self::REG_DIST => self.dist,
            Self::REG_SOURCE => self.source,
            Self::REG_ROUNDS => self.rounds,
            Self::REG_RELAXATIONS => self.relaxations,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.frontier.clear();
        self.next.clear();
        self.in_next.clear();
        self.scanned = 0;
        self.rounds = 0;
        self.relaxations = 0;
        self.phase = Phase::FetchHeader(Gather::of_lines(&[self.graph]));
    }

    fn done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        // One phase transition per call keeps the dependent-access timing
        // honest: every hop costs at least one accelerator cycle plus the
        // memory round trip. The phase is moved out so the arms can call
        // address helpers on `self`. A master-aborted read or a malformed
        // graph ends the job (`Phase::Done`).
        let phase = std::mem::replace(&mut self.phase, Phase::Idle);
        self.phase = match phase {
            Phase::Idle => Phase::Idle,
            Phase::Done => Phase::Done,
            Phase::FetchHeader(mut fetch) => match fetch.poll(port, now, 2) {
                Got::Pending => Phase::FetchHeader(fetch),
                Got::Aborted => Phase::Done,
                Got::Lines => {
                    let line = fetch.line(0);
                    self.vertices = u32::from_le_bytes(line[0..4].try_into().unwrap());
                    self.edges = u32::from_le_bytes(line[4..8].try_into().unwrap());
                    self.frontier.push(self.source as u32);
                    self.rounds = 1;
                    let dist_bytes = self.vertices as u64 * 4;
                    if self.source >= self.vertices as u64 || dist_bytes > crate::ONCHIP_RAM_BYTES {
                        Phase::Done
                    } else {
                        self.dist_vec.clear();
                        Phase::LoadDist(StreamEngine::new(self.dist, dist_bytes.div_ceil(64)))
                    }
                }
            },
            Phase::LoadDist(mut engine) => {
                engine.absorb(port);
                engine.issue_reads(port, now);
                while let Some((_, line)) = engine.next_line() {
                    for word in line.chunks_exact(4) {
                        if (self.dist_vec.len() as u32) < self.vertices {
                            self.dist_vec
                                .push(u32::from_le_bytes(word.try_into().unwrap()));
                        }
                    }
                }
                if engine.aborted() {
                    Phase::Done
                } else if engine.input_exhausted() {
                    Phase::NextRound
                } else {
                    Phase::LoadDist(engine)
                }
            }
            Phase::WriteBack(mut scatter) => {
                let dist_line = |i: u64| {
                    let mut out = [0u8; 64];
                    for (k, word) in out.chunks_exact_mut(4).enumerate() {
                        let d = self.dist_vec.get(i as usize * 16 + k);
                        let d = d.copied().unwrap_or(INF);
                        word.copy_from_slice(&d.to_le_bytes());
                    }
                    out
                };
                if scatter.poll(port, now, dist_line) {
                    Phase::Done
                } else {
                    Phase::WriteBack(scatter)
                }
            }
            Phase::NextRound => {
                if !self.frontier.is_empty() {
                    let lines = (self.frontier.iter())
                        .flat_map(|&u| {
                            let lo_addr = self.row_offset_addr(u);
                            [(lo_addr & !63, 1), ((lo_addr + 4) & !63, 1)]
                        })
                        .collect();
                    let runs = LineRuns::new(lines);
                    Phase::RoundOffsets {
                        fetch: runs.fetch(),
                        runs,
                    }
                } else if !self.next.is_empty() {
                    self.frontier = std::mem::take(&mut self.next);
                    self.in_next.clear();
                    self.rounds += 1;
                    Phase::NextRound
                } else {
                    let lines = (self.vertices as u64 * 4).div_ceil(64);
                    Phase::WriteBack(Scatter::new(self.dist, lines))
                }
            }
            Phase::RoundOffsets { mut fetch, runs } => match fetch.poll(port, now, 16) {
                Got::Pending => Phase::RoundOffsets { fetch, runs },
                Got::Aborted => Phase::Done,
                Got::Lines => {
                    // Decode (lo, hi) per frontier vertex, then gather every
                    // edge line the round touches.
                    let ranges: Option<Vec<(u32, u32, u32)>> = (self.frontier.iter())
                        .map(|&u| {
                            let lo_addr = self.row_offset_addr(u);
                            let lo = runs.u32_at(&fetch, lo_addr);
                            let hi = runs.u32_at(&fetch, lo_addr + 4);
                            self.edge_range_ok(lo, hi).then_some((u, lo, hi))
                        })
                        .collect();
                    match ranges {
                        None => Phase::Done,
                        Some(mut ranges) => {
                            ranges.retain(|&(_, lo, hi)| lo < hi);
                            if ranges.is_empty() {
                                self.end_round()
                            } else {
                                let runs = (ranges.iter())
                                    .flat_map(|&(_, lo, hi)| self.edge_runs(lo, hi))
                                    .collect();
                                let runs = LineRuns::new(runs);
                                Phase::RoundEdges {
                                    fetch: runs.fetch(),
                                    runs,
                                    ranges,
                                }
                            }
                        }
                    }
                }
            },
            Phase::RoundEdges {
                mut fetch,
                runs,
                ranges,
            } => match fetch.poll(port, now, 32) {
                Got::Pending => Phase::RoundEdges {
                    fetch,
                    runs,
                    ranges,
                },
                Got::Aborted => Phase::Done,
                Got::Lines => {
                    // A resumed round skips the edges it relaxed before
                    // its save.
                    let (mut range, mut k) = (0, ranges[0].1);
                    for _ in 0..self.scanned {
                        if range == ranges.len() {
                            break;
                        }
                        (range, k) = next_edge(&ranges, range, k);
                    }
                    Phase::RoundRelax {
                        fetch,
                        runs,
                        ranges,
                        range,
                        k,
                    }
                }
            },
            Phase::RoundRelax {
                fetch,
                runs,
                ranges,
                mut range,
                mut k,
            } => {
                let mut budget = 4;
                let mut malformed = false;
                while budget > 0 && range < ranges.len() {
                    let u = ranges[range].0;
                    let v = runs.u32_at(&fetch, self.target_addr(k));
                    let w = runs.u32_at(&fetch, self.weight_addr(k));
                    let (Some(&du), Some(&dv)) =
                        (self.dist_vec.get(u as usize), self.dist_vec.get(v as usize))
                    else {
                        malformed = true;
                        break;
                    };
                    let cand = du.saturating_add(w);
                    if cand < dv {
                        self.dist_vec[v as usize] = cand;
                        self.relaxations += 1;
                        if self.in_next.insert(v) {
                            self.next.push(v);
                        }
                    }
                    (range, k) = next_edge(&ranges, range, k);
                    self.scanned += 1;
                    budget -= 1;
                }
                if malformed {
                    Phase::Done
                } else if range < ranges.len() {
                    Phase::RoundRelax {
                        fetch,
                        runs,
                        ranges,
                        range,
                        k,
                    }
                } else {
                    self.end_round()
                }
            }
        };
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.graph)
            .u64(self.dist)
            .u64(self.source)
            .u64(self.vertices as u64)
            .u64(self.edges as u64)
            .u64(self.rounds)
            .u64(self.relaxations)
            .u64(if matches!(self.phase, Phase::Done) { 1 } else { 0 })
            .u64(self.scanned);
        let dist_bytes: Vec<u8> = self.dist_vec.iter().flat_map(|d| d.to_le_bytes()).collect();
        w.bytes(&dist_bytes);
        for vertices in [&self.frontier, &self.next] {
            w.u64(vertices.len() as u64);
            for &v in vertices {
                w.u64(v as u64);
            }
        }
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.graph = r.u64()?;
        self.dist = r.u64()?;
        self.source = r.u64()?;
        self.vertices = r.u64()? as u32;
        self.edges = r.u64()? as u32;
        self.rounds = r.u64()?;
        self.relaxations = r.u64()?;
        let done = r.u64()? == 1;
        self.scanned = r.u64()?;
        self.dist_vec = r
            .bytes()?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let vertices = |r: &mut Reader| -> Option<Vec<u32>> {
            (0..r.count(8)?).map(|_| Some(r.u64()? as u32)).collect()
        };
        self.frontier = vertices(&mut r)?;
        self.next = vertices(&mut r)?;
        // Relaxation indexes the on-chip distances by these vertices.
        if !self.frontier.iter().chain(&self.next).all(|&v| v < self.vertices) {
            return None;
        }
        self.in_next = self.next.iter().copied().collect();
        if done {
            self.phase = Phase::Done;
        } else if self.rounds > 0 && self.dist_vec.len() == self.vertices as usize {
            self.phase = Phase::NextRound;
        } else {
            // Saved before its distances were all on chip: nothing of the
            // job has reached DRAM, so it starts over.
            self.start();
        }
        Some(())
    }

    fn reset(&mut self) {
        *self = SsspKernel::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_algo::graph::{sssp, CsrGraph};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;
    use optimus_sim::rng::Xoshiro256;

    const DIST: usize = 0x100000;
    const STATE: u64 = 0x400000;

    /// Starts a job from `source` over `graph` (at 0x1000, distances at
    /// `DIST`, saved state at `STATE`); the rig to run it with.
    fn start(acc: &mut Harnessed<SsspKernel>, graph: &CsrGraph, source: u32) -> Rig {
        let mut mem = vec![0u8; 0x1000];
        mem.extend_from_slice(&graph.to_dram_layout());
        mem.resize(DIST, 0);
        for v in 0..graph.vertices() as u32 {
            mem.extend_from_slice(&if v == source { 0 } else { INF }.to_le_bytes());
        }
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, STATE);
        rig::start(
            acc,
            &[
                (SsspKernel::REG_GRAPH, 0x1000),
                (SsspKernel::REG_DIST, DIST as u64),
                (SsspKernel::REG_SOURCE, source as u64),
            ],
        );
        Rig::new(mem)
    }

    fn distances(rig: &Rig, graph: &CsrGraph) -> Vec<u32> {
        let words = rig.mem[DIST..DIST + 4 * graph.vertices()].chunks_exact(4);
        words
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect()
    }

    /// `REG_ROUNDS` and `REG_RELAXATIONS`.
    fn counters(acc: &mut Harnessed<SsspKernel>) -> [u64; 2] {
        [SsspKernel::REG_ROUNDS, SsspKernel::REG_RELAXATIONS]
            .map(|reg| acc.mmio_read(accel_reg::APP_BASE + reg))
    }

    /// Runs a job to the end: its distances and [`counters`].
    fn run_sssp(graph: &CsrGraph, source: u32) -> (Vec<u32>, [u64; 2]) {
        let mut acc = Harnessed::new(SsspKernel::new());
        let mut rig = start(&mut acc, graph, source);
        rig.finish(&mut acc, 10_000_000);
        (distances(&rig, graph), counters(&mut acc))
    }

    fn random_graph(seed: u64, n: usize, edges: usize) -> CsrGraph {
        let mut rng = Xoshiro256::seed_from(seed);
        let edges: Vec<(u32, u32, u32)> = (0..edges)
            .map(|_| {
                (
                    rng.gen_range(0..n as u64) as u32,
                    rng.gen_range(0..n as u64) as u32,
                    rng.gen_range(1..50) as u32,
                )
            })
            .collect();
        CsrGraph::from_edges(n, &edges)
    }

    fn chain(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1, 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn tiny_graph_distances_match() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 3), (0, 2, 10), (1, 2, 1), (2, 3, 2)]);
        assert_eq!(run_sssp(&g, 0).0, sssp(&g, 0));
    }

    #[test]
    fn random_graph_distances_match_reference() {
        for (seed, n, edges) in [(21, 64, 400), (31, 128, 900)] {
            let g = random_graph(seed, n, edges);
            assert_eq!(run_sssp(&g, 0).0, sssp(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn disconnected_vertices_remain_inf() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1)]);
        let d = run_sssp(&g, 0).0;
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert!(d[2..].iter().all(|&x| x == INF));
    }

    #[test]
    fn vertex_spanning_line_boundary() {
        // Vertex 14/15 put row_offsets[u], row_offsets[u+1] on different
        // lines (offset bytes 8+4·14 = 64 boundary region).
        let g = chain(40);
        assert_eq!(run_sssp(&g, 0).0, sssp(&g, 0));
    }

    #[test]
    fn a_saved_vertex_past_the_vertex_count_fails_the_restore() {
        let mut saved = SsspKernel::new();
        (saved.vertices, saved.rounds, saved.dist_vec) = (4, 1, vec![0; 4]);
        saved.next = vec![3];
        assert!(SsspKernel::new().restore(&saved.serialize()).is_some());
        saved.next = vec![4];
        assert!(SsspKernel::new().restore(&saved.serialize()).is_none());
    }

    #[test]
    fn preempt_resume_continues_the_job_exactly() {
        // One job, preempted the first time it is seen in each phase, and
        // each time resumed on a clobbered kernel. The load is cut midway,
        // and the relaxation deep in a large round, where replaying the
        // edges already relaxed would change both counters.
        let g = random_graph(41, 512, 3_000);
        let (_, uninterrupted) = run_sssp(&g, 0);
        let mut acc = Harnessed::new(SsspKernel::new());
        let mut rig = start(&mut acc, &g, 0);
        let mut hit = Vec::new();
        while !acc.is_done() {
            let k = acc.kernel();
            let phase = match k.phase {
                Phase::FetchHeader(_) => "FetchHeader",
                Phase::LoadDist(_) if !k.dist_vec.is_empty() => "LoadDist",
                Phase::RoundOffsets { .. } => "RoundOffsets",
                Phase::RoundEdges { .. } => "RoundEdges",
                Phase::RoundRelax { .. } if k.scanned >= 1_000 => "RoundRelax",
                Phase::WriteBack(_) => "WriteBack",
                _ => "",
            };
            if !phase.is_empty() && !hit.contains(&phase) {
                hit.push(phase);
                rig.preempt_resume(&mut acc, SsspKernel::new());
            }
            rig.run(&mut acc, 1);
        }
        hit.sort_unstable();
        assert_eq!(
            hit,
            ["FetchHeader", "LoadDist", "RoundEdges", "RoundOffsets", "RoundRelax", "WriteBack"]
        );
        assert_eq!(distances(&rig, &g), sssp(&g, 0));
        assert_eq!(counters(&mut acc), uninterrupted);
    }
}
