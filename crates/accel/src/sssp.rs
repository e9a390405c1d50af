//! SSSP: the single-source-shortest-path graph accelerator.
//!
//! This is the paper's motivating *pointer-chasing* workload (Fig. 1): the
//! accelerator walks a CSR graph resident in system memory, and the address
//! of every access depends on data returned by a previous access — row
//! offsets name edge ranges, edges name neighbour vertices, neighbour
//! vertices name distance words. Under the shared-memory model the
//! accelerator chases these pointers itself; under the host-centric model
//! every hop needs CPU involvement, which is exactly the gap Fig. 1
//! measures.
//!
//! The algorithm is the frontier-based Bellman–Ford relaxation of
//! [`optimus_algo::graph::sssp`] (hardware-friendly: no priority queue).
//! The frontier lives in on-chip RAM; the distance array lives in DRAM and
//! is updated with read-modify-write line operations. Relaxations are
//! monotone, so re-processing a vertex after a preemption is harmless —
//! which is why the preemption state is just the frontier.

use crate::harness::Kernel;
use crate::mover::{Gather, Got, Scatter};
use crate::ser::{Reader, Writer};
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;
use std::collections::{HashSet, VecDeque};

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

#[derive(Debug)]
enum Phase {
    Idle,
    FetchHeader(Gather),
    /// On-chip mode: stream the distance array into BRAM.
    LoadDist {
        engine: crate::stream::StreamEngine,
    },
    /// On-chip mode: stream the final distance array back to DRAM.
    WriteBack(Scatter),
    /// On-chip mode: fetch the row-offset lines of the whole frontier
    /// (pipelined — the frontier's vertices are all known up front).
    RoundOffsets {
        fetch: Gather,
        runs: LineRuns,
    },
    /// On-chip mode: fetch every edge line the round touches (bulk,
    /// bandwidth-bound streaming).
    RoundEdges {
        fetch: Gather,
        runs: LineRuns,
        ranges: Vec<(u32, u32, u32)>,
    },
    /// On-chip mode: relax the gathered edges against BRAM, edge `k` of
    /// `ranges[range]` next.
    RoundRelax {
        fetch: Gather,
        runs: LineRuns,
        ranges: Vec<(u32, u32, u32)>,
        range: usize,
        k: u32,
    },
    NextVertex,
    FetchOffsets {
        fetch: Gather,
        /// Byte address of `row_offsets[u]`.
        lo_addr: u64,
        two_lines: bool,
        /// The vertex whose offsets (and fresh distance) are being fetched.
        u: u32,
    },
    FetchEdges {
        fetch: Gather,
        target_base_addr: u64,
        weight_base_addr: u64,
        lo: u32,
        hi: u32,
        /// Line GVAs of the target half (rest are weights).
        target_line_count: usize,
    },
    ProcessEdges,
    FetchDist {
        fetch: Gather,
        v: u32,
        cand: u32,
        line_gva: u64,
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
    frontier: VecDeque<(u32, u32)>,
    next: Vec<(u32, u32)>,
    in_next: HashSet<u32>,
    current: Option<(u32, u32)>,
    edge_list: Vec<(u32, u32)>,
    edge_idx: usize,
    rounds: u64,
    relaxations: u64,
    /// The `REG_ONCHIP` register.
    onchip_reg: bool,
    /// The job's vertex-data mode, latched from `onchip_reg` at start (and
    /// from the blob at restore), so a write mid-job cannot switch paths
    /// under it. On chip (Zhou–Prasanna style), the distance array is
    /// streamed into BRAM at start and back out at the end, and edges are
    /// relaxed against the on-chip copy — feasible when the vertex data
    /// fits BRAM; off chip, distances stay in DRAM and every edge issues a
    /// dependent read-modify-write.
    onchip: bool,
    dist_vec: Vec<u32>,
    /// The vertices of the round being processed (on-chip mode).
    round_vertices: Vec<u32>,
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
    /// Register: 1 = on-chip vertex data (stream dist in/out, relax in
    /// BRAM; a distance array larger than on-chip RAM ends the job),
    /// 0 = per-edge DRAM read-modify-write. A job runs in the mode it
    /// started with.
    pub const REG_ONCHIP: u64 = 40;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Sssp.meta(),
            graph: 0,
            dist: 0,
            source: 0,
            vertices: 0,
            edges: 0,
            frontier: VecDeque::new(),
            next: Vec::new(),
            in_next: HashSet::new(),
            current: None,
            edge_list: Vec::new(),
            edge_idx: 0,
            rounds: 0,
            relaxations: 0,
            onchip_reg: false,
            onchip: false,
            dist_vec: Vec::new(),
            round_vertices: Vec::new(),
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

    fn dist_addr(&self, v: u32) -> u64 {
        self.dist + 4 * v as u64
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
            Self::REG_ONCHIP => self.onchip_reg = value != 0,
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
            Self::REG_ONCHIP => self.onchip_reg as u64,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.frontier.clear();
        self.next.clear();
        self.in_next.clear();
        self.current = None;
        self.edge_list.clear();
        self.edge_idx = 0;
        self.rounds = 0;
        self.relaxations = 0;
        self.onchip = self.onchip_reg;
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
                    self.frontier.push_back((self.source as u32, 0));
                    self.rounds = 1;
                    let dist_bytes = self.vertices as u64 * 4;
                    if self.source >= self.vertices as u64
                        || (self.onchip && dist_bytes > crate::ONCHIP_RAM_BYTES)
                    {
                        Phase::Done
                    } else if self.onchip {
                        let lines = dist_bytes.div_ceil(64);
                        self.dist_vec.clear();
                        Phase::LoadDist {
                            engine: crate::stream::StreamEngine::new(self.dist, lines),
                        }
                    } else {
                        Phase::NextVertex
                    }
                }
            },
            Phase::LoadDist { mut engine } => {
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
                    Phase::NextVertex
                } else {
                    Phase::LoadDist { engine }
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
            Phase::RoundOffsets { mut fetch, runs } => match fetch.poll(port, now, 16) {
                Got::Pending => Phase::RoundOffsets { fetch, runs },
                Got::Aborted => Phase::Done,
                Got::Lines => {
                    // Decode (lo, hi) per frontier vertex, then gather every
                    // edge line the round touches.
                    let ranges: Option<Vec<(u32, u32, u32)>> = (self.round_vertices.iter())
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
                                Phase::NextVertex
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
                Got::Lines => Phase::RoundRelax {
                    k: ranges[0].1,
                    fetch,
                    runs,
                    ranges,
                    range: 0,
                },
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
                    let (u, _, hi) = ranges[range];
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
                            self.next.push((v, cand));
                        }
                    }
                    k += 1;
                    if k == hi {
                        range += 1;
                        k = ranges.get(range).map_or(0, |r| r.1);
                    }
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
                    Phase::NextVertex
                }
            }
            Phase::NextVertex if self.onchip => {
                if !self.frontier.is_empty() {
                    self.round_vertices = self.frontier.drain(..).map(|(u, _)| u).collect();
                    let lines = self
                        .round_vertices
                        .iter()
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
                    self.frontier = std::mem::take(&mut self.next).into();
                    self.in_next.clear();
                    self.rounds += 1;
                    Phase::NextVertex
                } else {
                    self.current = None;
                    let lines = (self.vertices as u64 * 4).div_ceil(64);
                    Phase::WriteBack(Scatter::new(self.dist, lines))
                }
            }
            Phase::NextVertex => {
                if let Some((u, _)) = self.frontier.pop_front() {
                    let lo_addr = self.row_offset_addr(u);
                    let hi_addr = lo_addr + 4;
                    let two_lines = (lo_addr & !63) != (hi_addr & !63);
                    let mut gvas = vec![lo_addr & !63];
                    if two_lines {
                        gvas.push(hi_addr & !63);
                    }
                    // Also fetch the *fresh* distance of u: same-round
                    // relaxations may already have improved it, and using
                    // a stale enqueued value would propagate worse paths.
                    gvas.push(self.dist_addr(u) & !63);
                    Phase::FetchOffsets {
                        fetch: Gather::of_lines(&gvas),
                        lo_addr,
                        two_lines,
                        u,
                    }
                } else if !self.next.is_empty() {
                    self.frontier = std::mem::take(&mut self.next).into();
                    self.in_next.clear();
                    self.rounds += 1;
                    Phase::NextVertex
                } else {
                    self.current = None;
                    Phase::Done
                }
            }
            Phase::FetchOffsets {
                mut fetch,
                lo_addr,
                two_lines,
                u,
            } => match fetch.poll(port, now, 3) {
                Got::Pending => Phase::FetchOffsets {
                    fetch,
                    lo_addr,
                    two_lines,
                    u,
                },
                Got::Aborted => Phase::Done,
                Got::Lines => {
                    let lo_off = (lo_addr & 63) as usize;
                    let lo =
                        u32::from_le_bytes(fetch.line(0)[lo_off..lo_off + 4].try_into().unwrap());
                    let hi = if two_lines {
                        u32::from_le_bytes(fetch.line(1)[0..4].try_into().unwrap())
                    } else {
                        u32::from_le_bytes(
                            fetch.line(0)[lo_off + 4..lo_off + 8].try_into().unwrap(),
                        )
                    };
                    let dist_slot = if two_lines { 2 } else { 1 };
                    let d_off = (self.dist_addr(u) & 63) as usize;
                    let du = u32::from_le_bytes(
                        fetch.line(dist_slot)[d_off..d_off + 4].try_into().unwrap(),
                    );
                    if !self.edge_range_ok(lo, hi) {
                        Phase::Done
                    } else if lo == hi {
                        self.current = None;
                        Phase::NextVertex
                    } else {
                        self.current = Some((u, du));
                        let [t_run, w_run] = self.edge_runs(lo, hi);
                        Phase::FetchEdges {
                            fetch: Gather::new([t_run, w_run]),
                            target_base_addr: t_run.0,
                            weight_base_addr: w_run.0,
                            lo,
                            hi,
                            target_line_count: t_run.1 as usize,
                        }
                    }
                }
            },
            Phase::FetchEdges {
                mut fetch,
                target_base_addr,
                weight_base_addr,
                lo,
                hi,
                target_line_count,
            } => match fetch.poll(port, now, 8) {
                Got::Pending => Phase::FetchEdges {
                    fetch,
                    target_base_addr,
                    weight_base_addr,
                    lo,
                    hi,
                    target_line_count,
                },
                Got::Aborted => Phase::Done,
                Got::Lines => {
                    let mut edge_list = Vec::with_capacity((hi - lo) as usize);
                    for k in lo..hi {
                        let t_addr = self.target_addr(k);
                        let t_slot = ((t_addr & !63) - target_base_addr) as usize / 64;
                        let t_off = (t_addr & 63) as usize;
                        let v = u32::from_le_bytes(
                            fetch.line(t_slot)[t_off..t_off + 4].try_into().unwrap(),
                        );
                        let w_addr = self.weight_addr(k);
                        let w_slot =
                            target_line_count + ((w_addr & !63) - weight_base_addr) as usize / 64;
                        let w_off = (w_addr & 63) as usize;
                        let w = u32::from_le_bytes(
                            fetch.line(w_slot)[w_off..w_off + 4].try_into().unwrap(),
                        );
                        edge_list.push((v, w));
                    }
                    self.edge_idx = 0;
                    if edge_list.iter().any(|&(v, _)| v >= self.vertices) {
                        Phase::Done
                    } else {
                        self.edge_list = edge_list;
                        Phase::ProcessEdges
                    }
                }
            },
            Phase::ProcessEdges => {
                if self.edge_idx >= self.edge_list.len() {
                    self.current = None;
                    Phase::NextVertex
                } else {
                    let (v, w) = self.edge_list[self.edge_idx];
                    let (_, du) = self.current.expect("processing a vertex");
                    let cand = du.saturating_add(w);
                    let line_gva = self.dist_addr(v) & !63;
                    Phase::FetchDist {
                        fetch: Gather::of_lines(&[line_gva]),
                        v,
                        cand,
                        line_gva,
                    }
                }
            }
            Phase::FetchDist {
                mut fetch,
                v,
                cand,
                line_gva,
            } => match fetch.poll(port, now, 1) {
                Got::Pending => Phase::FetchDist {
                    fetch,
                    v,
                    cand,
                    line_gva,
                },
                Got::Aborted => Phase::Done,
                Got::Lines => {
                    let off = (self.dist_addr(v) - line_gva) as usize;
                    let mut line = *fetch.line(0);
                    let old = u32::from_le_bytes(line[off..off + 4].try_into().unwrap());
                    if cand < old {
                        if port.can_issue() {
                            line[off..off + 4].copy_from_slice(&cand.to_le_bytes());
                            // Fire-and-forget write; its tag-less ack is
                            // ignored by later fetches.
                            port.write(Gva::new(line_gva), Box::new(line), now);
                            self.relaxations += 1;
                            if self.in_next.insert(v) {
                                self.next.push((v, cand));
                            }
                            self.edge_idx += 1;
                            Phase::ProcessEdges
                        } else {
                            // Port full: retry the write next cycle.
                            Phase::FetchDist {
                                fetch,
                                v,
                                cand,
                                line_gva,
                            }
                        }
                    } else {
                        self.edge_idx += 1;
                        Phase::ProcessEdges
                    }
                }
            },
        };
    }

    fn serialize(&self) -> Vec<u8> {
        // Preemption state: configuration + frontier (+ the in-flight
        // vertex, pushed back for re-processing — relaxations are monotone,
        // so re-running a vertex is safe).
        let mut w = Writer::new();
        w.u64(self.graph)
            .u64(self.dist)
            .u64(self.source)
            .u64(self.vertices as u64)
            .u64(self.edges as u64)
            .u64(self.rounds)
            .u64(self.relaxations)
            .u64(if matches!(self.phase, Phase::Done) { 1 } else { 0 })
            .u64(self.onchip as u64);
        let mut dist_bytes = Vec::with_capacity(self.dist_vec.len() * 4);
        for d in &self.dist_vec {
            dist_bytes.extend_from_slice(&d.to_le_bytes());
        }
        w.bytes(&dist_bytes);
        let mut entries: Vec<(u32, u32)> = Vec::new();
        if let Some(cur) = self.current {
            entries.push(cur);
        }
        entries.extend(self.frontier.iter().copied());
        w.u64(entries.len() as u64);
        for (v, d) in &entries {
            w.u64(*v as u64).u64(*d as u64);
        }
        w.u64(self.next.len() as u64);
        for (v, d) in &self.next {
            w.u64(*v as u64).u64(*d as u64);
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
        self.onchip = r.u64()? == 1;
        self.dist_vec = r
            .bytes()?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let entries = |r: &mut Reader| -> Option<Vec<(u32, u32)>> {
            (0..r.count(16)?)
                .map(|_| Some((r.u64()? as u32, r.u64()? as u32)))
                .collect()
        };
        self.frontier = entries(&mut r)?.into();
        self.next = entries(&mut r)?;
        // On-chip relaxation indexes the distance array by these vertices.
        let fits = |&(v, _): &(u32, u32)| (v as usize) < self.dist_vec.len();
        if self.onchip && !(self.frontier.iter().all(fits) && self.next.iter().all(fits)) {
            return None;
        }
        self.in_next = self.next.iter().map(|&(v, _)| v).collect();
        self.current = None;
        self.edge_list.clear();
        self.edge_idx = 0;
        self.phase = if done { Phase::Done } else { Phase::NextVertex };
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

    /// Starts a job from `source` over `graph` (at 0x1000, distances at
    /// `DIST`); the rig to run it with.
    fn start(acc: &mut Harnessed<SsspKernel>, graph: &CsrGraph, source: u32, onchip: bool) -> Rig {
        let mut mem = vec![0u8; 0x1000];
        mem.extend_from_slice(&graph.to_dram_layout());
        mem.resize(DIST, 0);
        for v in 0..graph.vertices() as u32 {
            mem.extend_from_slice(&if v == source { 0 } else { INF }.to_le_bytes());
        }
        rig::start(
            acc,
            &[
                (SsspKernel::REG_GRAPH, 0x1000),
                (SsspKernel::REG_DIST, DIST as u64),
                (SsspKernel::REG_SOURCE, source as u64),
                (SsspKernel::REG_ONCHIP, onchip as u64),
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

    fn run_sssp_mode(graph: &CsrGraph, source: u32, onchip: bool) -> Vec<u32> {
        let mut acc = Harnessed::new(SsspKernel::new());
        let mut rig = start(&mut acc, graph, source, onchip);
        rig.finish(&mut acc, 10_000_000);
        distances(&rig, graph)
    }

    fn run_sssp(graph: &CsrGraph, source: u32) -> Vec<u32> {
        run_sssp_mode(graph, source, false)
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
        assert_eq!(run_sssp(&g, 0), sssp(&g, 0));
    }

    #[test]
    fn onchip_mode_matches_reference() {
        let g = random_graph(31, 128, 900);
        assert_eq!(run_sssp_mode(&g, 0, true), sssp(&g, 0));
    }

    #[test]
    fn random_graph_distances_match_reference() {
        let g = random_graph(21, 64, 400);
        assert_eq!(run_sssp(&g, 0), sssp(&g, 0));
    }

    #[test]
    fn disconnected_vertices_remain_inf() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1)]);
        let d = run_sssp(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert!(d[2..].iter().all(|&x| x == INF));
    }

    #[test]
    fn vertex_spanning_line_boundary() {
        // Vertex 14/15 put row_offsets[u], row_offsets[u+1] on different
        // lines (offset bytes 8+4·14 = 64 boundary region).
        let g = chain(40);
        assert_eq!(run_sssp(&g, 0), sssp(&g, 0));
    }

    #[test]
    fn a_mode_write_mid_job_does_not_switch_the_running_job() {
        // The register takes the write; the running off-chip job keeps its
        // mode and still converges to the reference.
        let g = chain(2_000);
        let mut acc = Harnessed::new(SsspKernel::new());
        let mut rig = start(&mut acc, &g, 0, false);
        rig.run(&mut acc, 60);
        acc.mmio_write(accel_reg::APP_BASE + SsspKernel::REG_ONCHIP, 1);
        rig.finish(&mut acc, 10_000_000);
        assert_eq!(distances(&rig, &g), sssp(&g, 0));
        assert_eq!(
            acc.mmio_read(accel_reg::APP_BASE + SsspKernel::REG_ONCHIP),
            1
        );
    }
}
