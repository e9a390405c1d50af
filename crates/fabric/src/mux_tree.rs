//! The multiplexer tree.
//!
//! The tree propagates accelerator request packets up to the shell. Each
//! node arbitrates among its children with round-robin — the mechanism
//! behind the real-time bandwidth fairness of Table 3 — and, because of the
//! routing complexity the paper measures in §6.3, forwards at most one
//! packet every two fabric cycles. Each level adds ≈ 33 ns of latency
//! round-trip (≈ 17.5 ns up, modeled as 7 cycles, and 15 ns down).
//!
//! The arrangement is configurable (arity × leaves), exactly as the paper
//! states: OPTIMUS defaults to a three-level binary tree for eight
//! accelerators because wider nodes fail 400 MHz timing (see
//! [`crate::synthesis`]).

use optimus_cci::packet::UpPacket;
use optimus_cci::params::{MONITOR_INJECT_INTERVAL, TREE_LEVEL_UP_CYCLES, TREE_QUEUE_CAPACITY};
use optimus_sim::metrics;
use optimus_sim::queue::TimedQueue;
use optimus_sim::time::Cycle;
use optimus_sim::trace::{self, Track};

/// Shape of the multiplexer tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Number of accelerator leaves.
    pub leaves: usize,
    /// Children per node (2 = binary, the OPTIMUS default).
    pub arity: usize,
}

impl TreeConfig {
    /// The paper's default: binary tree over 8 accelerators.
    pub fn default_eight() -> Self {
        Self {
            leaves: 8,
            arity: 2,
        }
    }

    /// Number of levels in the tree (= tree depth).
    pub fn levels(&self) -> u32 {
        let mut count = self.leaves.max(1);
        let mut levels = 0;
        while count > 1 {
            count = count.div_ceil(self.arity);
            levels += 1;
        }
        levels.max(1)
    }
}

#[derive(Debug)]
struct MuxNode {
    /// Input buffers, one per child (accelerator or lower node).
    inputs: Vec<TimedQueue<UpPacket>>,
    /// Parent node index and child-slot, or `None` for the root.
    parent: Option<(usize, usize)>,
    rr: usize,
    next_slot: Cycle,
    /// Packets across this node's inputs. A node with zero queued packets
    /// can neither grant nor stall, so [`MuxTree::step`] and
    /// [`MuxTree::next_event`] skip it with one compare — at low tree
    /// occupancy (a latency-bound pointer chase holds one packet in the
    /// whole fabric) that turns the per-cycle all-nodes scan into a
    /// single-node visit.
    occ: usize,
}

/// The multiplexer tree with round-robin arbitration at every node.
#[derive(Debug)]
pub struct MuxTree {
    config: TreeConfig,
    nodes: Vec<MuxNode>,
    /// Per-accelerator attachment: (node index, input slot).
    leaf_slots: Vec<(usize, usize)>,
    root_out: TimedQueue<UpPacket>,
    forwarded: u64,
    /// Per-source-port root clears — deterministic state the isolation
    /// watchdog reads for starvation detection and Jain's fairness index
    /// (never the metrics plane, which may be off or thread-split).
    forwarded_per_src: Vec<u64>,
    /// Packets currently anywhere in the tree (node inputs + root buffer).
    /// Lets [`step`](Self::step) skip the whole node scan when the tree is
    /// empty — the common case on a compute-bound device — which is a pure
    /// no-op (no queue pops, no `rr`/`next_slot` writes, no ready inputs
    /// to stall on).
    occupancy: usize,
}

impl MuxTree {
    /// Builds a tree for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero or `arity < 2`.
    pub fn new(config: TreeConfig) -> Self {
        assert!(config.leaves > 0, "tree needs at least one leaf");
        assert!(config.arity >= 2, "mux arity must be at least 2");
        let mut nodes: Vec<MuxNode> = Vec::new();
        let mut leaf_slots = Vec::with_capacity(config.leaves);

        // Build level by level. `current` holds, for each surviving stream,
        // either a leaf (accel) or a node output to attach upward.
        #[derive(Clone, Copy)]
        enum Stream {
            Accel(usize),
            Node(usize),
        }
        let mut current: Vec<Stream> = (0..config.leaves).map(Stream::Accel).collect();
        while current.len() > 1 {
            let mut next = Vec::new();
            for group in current.chunks(config.arity) {
                let node_idx = nodes.len();
                nodes.push(MuxNode {
                    inputs: (0..group.len()).map(|_| TimedQueue::new()).collect(),
                    parent: None,
                    rr: 0,
                    next_slot: 0,
                    occ: 0,
                });
                for (slot, stream) in group.iter().enumerate() {
                    match stream {
                        Stream::Accel(a) => {
                            leaf_slots.push((node_idx, slot));
                            // Accelerators only appear at the first level
                            // and chunks scan in order, so the slot list is
                            // indexed by accelerator number.
                            debug_assert_eq!(leaf_slots.len() - 1, *a);
                        }
                        Stream::Node(n) => nodes[*n].parent = Some((node_idx, slot)),
                    }
                }
                next.push(Stream::Node(node_idx));
            }
            current = next;
        }
        if let Stream::Accel(_) = current[0] {
            // Single leaf: make a 1-input pass node so the interface is
            // uniform (still rate-limited like hardware).
            nodes.push(MuxNode {
                inputs: vec![TimedQueue::new()],
                parent: None,
                rr: 0,
                next_slot: 0,
                occ: 0,
            });
            leaf_slots.push((0, 0));
        }
        Self {
            config,
            nodes,
            leaf_slots,
            root_out: TimedQueue::new(),
            forwarded: 0,
            forwarded_per_src: vec![0; config.leaves],
            occupancy: 0,
        }
    }

    /// The tree's configuration.
    pub fn config(&self) -> TreeConfig {
        self.config
    }

    /// Number of internal mux nodes (for the resource model).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether accelerator `accel`'s leaf buffer can accept a packet.
    pub fn can_accept(&self, accel: usize) -> bool {
        let (node, slot) = self.leaf_slots[accel];
        self.nodes[node].inputs[slot].len() < TREE_QUEUE_CAPACITY
    }

    /// Injects a packet from accelerator `accel`'s auditor.
    ///
    /// # Panics
    ///
    /// Panics if the leaf buffer is full — callers must check
    /// [`can_accept`](Self::can_accept).
    pub fn inject(&mut self, accel: usize, pkt: UpPacket, now: Cycle) {
        assert!(self.can_accept(accel), "leaf buffer overflow");
        let (node, slot) = self.leaf_slots[accel];
        self.nodes[node].inputs[slot].push(pkt, now);
        self.nodes[node].occ += 1;
        self.occupancy += 1;
    }

    /// One fabric cycle of arbitration at every node.
    pub fn step(&mut self, now: Cycle) {
        // Empty tree: arbitration is a pure no-op, skip the node scan.
        if self.occupancy == 0 {
            return;
        }
        // Arbitrate nodes in construction order (leaves-first), so a packet
        // moves at most one level per cycle.
        for idx in 0..self.nodes.len() {
            // An empty node can neither grant nor stall: skip it before
            // touching its queues (most nodes are empty at low occupancy).
            if self.nodes[idx].occ == 0 || now < self.nodes[idx].next_slot {
                continue;
            }
            // Check output capacity first.
            let parent = self.nodes[idx].parent;
            let output_full = match parent {
                Some((p, s)) => self.nodes[p].inputs[s].len() >= TREE_QUEUE_CAPACITY,
                None => self.root_out.len() >= TREE_QUEUE_CAPACITY,
            };
            if output_full {
                // Backpressure stall: a packet is ready but the level
                // above has no room.
                let ready_input = self.nodes[idx]
                    .inputs
                    .iter()
                    .any(|q| q.peek_ready(now).is_some());
                metrics::inc(metrics::FABRIC_MUX_STALLS, idx as u32, ready_input as u64);
                if trace::enabled() && ready_input {
                    trace::instant(Track::mux_node(idx), "mux_stall", now, &[]);
                }
                continue;
            }
            // Round-robin scan for a ready input (manual wrap: `%` is a
            // hardware divide on a runtime divisor, once per probe).
            let n_inputs = self.nodes[idx].inputs.len();
            let mut i = self.nodes[idx].rr;
            let mut taken = None;
            for _ in 0..n_inputs {
                if let Some(pkt) = self.nodes[idx].inputs[i].pop_ready(now) {
                    taken = Some((i, pkt));
                    break;
                }
                i += 1;
                if i == n_inputs {
                    i = 0;
                }
            }
            if let Some((i, pkt)) = taken {
                metrics::inc(metrics::FABRIC_MUX_GRANTS, idx as u32, 1);
                // Occupancy the winning input had when arbitration ran
                // (the popped packet plus whatever is still queued).
                metrics::observe(
                    metrics::FABRIC_MUX_QUEUE_DEPTH,
                    idx as u32,
                    self.nodes[idx].inputs[i].len() as u64 + 1,
                );
                if trace::enabled() {
                    trace::instant(Track::mux_node(idx), "mux_grant", now, &[("input", i as u64)]);
                }
                self.nodes[idx].rr = if i + 1 == n_inputs { 0 } else { i + 1 };
                self.nodes[idx].next_slot = now + MONITOR_INJECT_INTERVAL;
                self.nodes[idx].occ -= 1;
                let ready = now + TREE_LEVEL_UP_CYCLES;
                match parent {
                    Some((p, s)) => {
                        self.nodes[p].inputs[s].push(pkt, ready);
                        self.nodes[p].occ += 1;
                    }
                    None => {
                        if let Some(src) = pkt.src() {
                            let port = src.0 as usize;
                            if port < self.forwarded_per_src.len() {
                                self.forwarded_per_src[port] += 1;
                            }
                            metrics::inc(metrics::FABRIC_PORT_FORWARDED, src.0 as u32, 1);
                        }
                        self.root_out.push(pkt, ready);
                        self.forwarded += 1;
                    }
                }
            }
        }
    }

    /// Pops a packet that has cleared the root (shell side, ≤ 1/cycle).
    pub fn pop_root(&mut self, now: Cycle) -> Option<UpPacket> {
        let pkt = self.root_out.pop_ready(now);
        if pkt.is_some() {
            self.occupancy -= 1;
        }
        pkt
    }

    /// Earliest future cycle at which stepping the tree can do anything:
    /// some node can arbitrate a ready input, or a packet clears the root.
    /// `None` means the tree is completely empty.
    ///
    /// Exact during an idle gap: with no pops and no injections, every
    /// node's `next_slot` and queue contents are frozen, so the horizon
    /// cannot move earlier. Output-full stalls resolve only via a parent
    /// pop, which the parent's own term (or the root pop) covers.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.occupancy == 0 {
            return None;
        }
        let mut horizon: Option<Cycle> = self.root_out.next_ready();
        for node in &self.nodes {
            if node.occ == 0 {
                continue;
            }
            let earliest_input = node
                .inputs
                .iter()
                .filter_map(TimedQueue::next_ready)
                .min();
            if let Some(input_at) = earliest_input {
                let at = input_at.max(node.next_slot);
                horizon = Some(horizon.map_or(at, |h| h.min(at)));
            }
        }
        horizon.map(|h| h.max(now))
    }

    /// Discards any queued packets belonging to accelerator `accel`
    /// anywhere in the tree (used on accelerator reset). Returns the number
    /// of packets flushed.
    pub fn flush_accel(&mut self, accel: usize) -> usize {
        use optimus_cci::packet::AccelId;
        let target = AccelId(accel as u8);
        let mut flushed = 0;
        for node in &mut self.nodes {
            let node_before: usize = node.inputs.iter().map(TimedQueue::len).sum();
            for input in &mut node.inputs {
                let before = input.len();
                let kept: Vec<UpPacket> = {
                    let mut kept = Vec::new();
                    while let Some(p) = input.pop_ready(Cycle::MAX) {
                        if p.src() != Some(target) {
                            kept.push(p);
                        }
                    }
                    kept
                };
                flushed += before - kept.len();
                input.clear();
                for p in kept {
                    input.push(p, 0);
                }
            }
            let node_after: usize = node.inputs.iter().map(TimedQueue::len).sum();
            node.occ -= node_before - node_after;
        }
        self.occupancy -= flushed;
        flushed
    }

    /// Total packets that have cleared the root.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets from accelerator `accel` that have cleared the root.
    ///
    /// Deterministic device-owned state (not the metrics plane): the
    /// isolation watchdog diffs this across its window to detect tenant
    /// starvation, so it must read identically with metrics on or off.
    pub fn forwarded_by(&self, accel: usize) -> u64 {
        self.forwarded_per_src.get(accel).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cci::packet::{AccelId, Tag};
    use optimus_mem::addr::Iova;

    fn read_pkt(accel: u8, tag: u32) -> UpPacket {
        UpPacket::DmaRead {
            iova: Iova::new(0),
            src: AccelId(accel),
            tag: Tag(tag),
        }
    }

    fn drain(tree: &mut MuxTree, until: Cycle) -> Vec<(Cycle, UpPacket)> {
        let mut out = Vec::new();
        for now in 0..until {
            tree.step(now);
            if let Some(p) = tree.pop_root(now) {
                out.push((now, p));
            }
        }
        out
    }

    #[test]
    fn binary_tree_for_eight_has_seven_nodes_three_levels() {
        let cfg = TreeConfig::default_eight();
        assert_eq!(cfg.levels(), 3);
        let tree = MuxTree::new(cfg);
        assert_eq!(tree.node_count(), 7);
    }

    #[test]
    fn single_packet_latency_is_levels_times_hop() {
        let mut tree = MuxTree::new(TreeConfig::default_eight());
        tree.inject(0, read_pkt(0, 1), 0);
        let got = drain(&mut tree, 200);
        assert_eq!(got.len(), 1);
        // 3 hops: arbitrated at cycle t, visible at t + 7 per level; total
        // ≥ 21 cycles and ≤ ~27 with arbitration slots.
        let at = got[0].0;
        assert!((21..=30).contains(&at), "packet cleared root at {at}");
    }

    #[test]
    fn node_rate_is_one_packet_per_two_cycles() {
        let mut tree = MuxTree::new(TreeConfig::default_eight());
        // Keep accel 0's leaf saturated.
        let mut injected = 0u32;
        let mut received = 0;
        let mut first = None;
        let mut last = 0;
        for now in 0..2000 {
            if tree.can_accept(0) {
                tree.inject(0, read_pkt(0, injected), now);
                injected += 1;
            }
            tree.step(now);
            if tree.pop_root(now).is_some() {
                received += 1;
                first.get_or_insert(now);
                last = now;
            }
        }
        let span = (last - first.unwrap()) as f64;
        let rate = (received - 1) as f64 / span;
        assert!(
            (rate - 0.5).abs() < 0.02,
            "root rate {rate} packets/cycle (expected 0.5)"
        );
    }

    #[test]
    fn round_robin_is_fair_under_saturation() {
        let mut tree = MuxTree::new(TreeConfig::default_eight());
        let mut counts = [0u32; 8];
        let mut tags = [0u32; 8];
        for now in 0..4000 {
            for a in 0..8 {
                if tree.can_accept(a) {
                    tree.inject(a, read_pkt(a as u8, tags[a]), now);
                    tags[a] += 1;
                }
            }
            tree.step(now);
            if let Some(p) = tree.pop_root(now) {
                if let Some(src) = p.src() {
                    counts[src.0 as usize] += 1;
                }
            }
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(min > 0.0);
        assert!(
            (max - min) / max < 0.02,
            "unfair split {counts:?}"
        );
    }

    #[test]
    fn two_saturating_leaves_split_parent_evenly() {
        // Accels 0 and 1 share a level-1 node (Table 4's MemBench+MD5 case).
        let mut tree = MuxTree::new(TreeConfig::default_eight());
        let mut counts = [0u32; 2];
        let mut tags = [0u32; 2];
        for now in 0..4000 {
            for a in 0..2 {
                if tree.can_accept(a) {
                    tree.inject(a, read_pkt(a as u8, tags[a]), now);
                    tags[a] += 1;
                }
            }
            tree.step(now);
            if let Some(p) = tree.pop_root(now) {
                counts[p.src().unwrap().0 as usize] += 1;
            }
        }
        let total = counts[0] + counts[1];
        // Each ~0.25/cycle: half of the shared node's 0.5/cycle.
        let skew = (counts[0] as f64 - counts[1] as f64).abs() / total as f64;
        assert!(skew < 0.02, "split {counts:?}");
        let per_cycle = total as f64 / 4000.0;
        assert!((per_cycle - 0.5).abs() < 0.05, "aggregate {per_cycle}");
    }

    #[test]
    fn fifo_order_preserved_per_accelerator() {
        let mut tree = MuxTree::new(TreeConfig { leaves: 4, arity: 2 });
        for t in 0..6 {
            // Inject over time: capacity is 8.
            tree.inject(2, read_pkt(2, t), 0);
        }
        let got = drain(&mut tree, 500);
        let tags: Vec<u32> = got
            .iter()
            .filter_map(|(_, p)| match p {
                UpPacket::DmaRead { tag, .. } => Some(tag.0),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn flush_accel_removes_only_that_accel() {
        let mut tree = MuxTree::new(TreeConfig::default_eight());
        tree.inject(0, read_pkt(0, 1), 0);
        tree.inject(1, read_pkt(1, 2), 0);
        let flushed = tree.flush_accel(0);
        assert_eq!(flushed, 1);
        let got = drain(&mut tree, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.src(), Some(AccelId(1)));
    }

    #[test]
    fn single_leaf_tree_works() {
        let mut tree = MuxTree::new(TreeConfig { leaves: 1, arity: 2 });
        tree.inject(0, read_pkt(0, 0), 0);
        let got = drain(&mut tree, 100);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn quad_tree_is_shallower() {
        let cfg = TreeConfig { leaves: 8, arity: 4 };
        assert_eq!(cfg.levels(), 2);
        let tree = MuxTree::new(cfg);
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn next_event_is_exact_while_idle() {
        let mut tree = MuxTree::new(TreeConfig::default_eight());
        assert_eq!(tree.next_event(0), None);
        tree.inject(0, read_pkt(0, 1), 5);
        // The horizon must never overshoot: stepping at the reported cycle
        // (and popping the root when ready) must reproduce the per-cycle
        // drain exactly.
        let mut now = 0;
        let mut cleared_at = None;
        while let Some(at) = tree.next_event(now) {
            now = at;
            tree.step(now);
            if tree.pop_root(now).is_some() {
                cleared_at = Some(now);
                break;
            }
            now += 1;
        }
        // Per-cycle reference.
        let mut reference = MuxTree::new(TreeConfig::default_eight());
        reference.inject(0, read_pkt(0, 1), 5);
        let ref_at = drain(&mut reference, 200)[0].0;
        assert_eq!(cleared_at, Some(ref_at));
    }

    #[test]
    fn backpressure_caps_leaf_queue() {
        let mut tree = MuxTree::new(TreeConfig::default_eight());
        let mut accepted = 0;
        for i in 0..100 {
            if tree.can_accept(0) {
                tree.inject(0, read_pkt(0, i), 0);
                accepted += 1;
            }
        }
        assert_eq!(accepted, TREE_QUEUE_CAPACITY);
    }
}
