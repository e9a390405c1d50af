//! The system under test behind one face — a single hypervisor or a node
//! of them — and the measurement window that reads every simulated
//! statistic of a timed section from outside, through public accessors.

use crate::stats::{device_cycles, Fingerprint};
use optimus::hypervisor::{HvStats, Optimus};
use optimus::node::OptimusNode;
use optimus_fabric::platform::DeviceId;
use optimus_sim::metrics::{self, Metric, SeriesValue};
use optimus_sim::stats::LatencyStats;
use optimus_sim::time::{gbps, Cycle};
use std::collections::BTreeMap;

/// The stack a workload drives.
pub enum Stack {
    /// `None` only inside [`Stack::live_update`], which consumes the
    /// hypervisor and puts its successor back.
    Hv(Option<Box<Optimus>>),
    Node(OptimusNode),
}

const HELD: &str = "a single-device stack holds its hypervisor";

impl Stack {
    pub fn single_device(hv: Optimus) -> Self {
        Stack::Hv(Some(Box::new(hv)))
    }

    pub fn devices(&self) -> usize {
        match self {
            Stack::Hv(_) => 1,
            Stack::Node(n) => n.num_devices(),
        }
    }

    pub fn hv(&self, d: usize) -> &Optimus {
        match self {
            Stack::Hv(hv) => hv.as_ref().expect(HELD),
            Stack::Node(n) => n.device(DeviceId(d as u32)),
        }
    }

    pub fn hv_mut(&mut self, d: usize) -> &mut Optimus {
        match self {
            Stack::Hv(hv) => hv.as_mut().expect(HELD),
            Stack::Node(n) => n.device_mut(DeviceId(d as u32)),
        }
    }

    /// The single hypervisor of a one-device stack.
    pub fn single(&mut self) -> &mut Optimus {
        match self {
            Stack::Hv(hv) => hv.as_mut().expect(HELD),
            Stack::Node(_) => panic!("single() on a node stack"),
        }
    }

    /// Live-updates the single hypervisor in place (`Optimus::live_update`:
    /// freeze, serialize, thaw a new instance around the same device).
    pub fn live_update(&mut self) {
        match self {
            Stack::Hv(hv) => {
                let old = hv.take().expect(HELD);
                *hv = Some(Box::new(old.live_update()));
            }
            Stack::Node(_) => panic!("live_update() on a node stack"),
        }
    }

    pub fn node(&mut self) -> &mut OptimusNode {
        match self {
            Stack::Node(n) => n,
            Stack::Hv(_) => panic!("node() on a single-device stack"),
        }
    }

    pub fn run(&mut self, cycles: Cycle) {
        match self {
            Stack::Hv(_) => self.single().run(cycles),
            Stack::Node(n) => n.run(cycles),
        }
    }

    /// Every device's current fabric cycle, in device order.
    pub fn clocks(&self) -> Vec<u64> {
        (0..self.devices()).map(|d| self.hv(d).now()).collect()
    }

    pub fn set_fast_forward(&mut self, on: bool) {
        for d in 0..self.devices() {
            self.hv_mut(d).device_mut().set_fast_forward(on);
        }
    }

    pub fn set_batch_step(&mut self, k: Cycle) {
        for d in 0..self.devices() {
            self.hv_mut(d).device_mut().set_batch_step(k);
        }
    }

    /// Hypervisor statistics summed over devices.
    pub fn hv_stats(&self) -> HvStats {
        let mut total = HvStats::default();
        for d in 0..self.devices() {
            total.accumulate(&self.hv(d).stats());
        }
        total
    }

    /// `(read, write)` DMA bytes of every port, per device.
    fn port_bytes(&self) -> Vec<Vec<(u64, u64)>> {
        (0..self.devices())
            .map(|d| {
                let dev = self.hv(d).device();
                (0..dev.num_accels())
                    .map(|s| dev.port(s).byte_counts())
                    .collect()
            })
            .collect()
    }

    /// IOTLB `(hits, speculative hits, misses, conflict evictions)` summed
    /// over devices.
    fn iotlb(&self) -> [u64; 4] {
        let mut t = [0u64; 4];
        for d in 0..self.devices() {
            let (h, s, m, c) = self.hv(d).device().host().iommu().tlb().stats();
            for (acc, v) in t.iter_mut().zip([h, s, m, c]) {
                *acc += v;
            }
        }
        t
    }

    /// Moves every port's latency samples out (leaving the ports empty)
    /// and merges them. Moving, not copying: the ports keep every sample
    /// of a run, so a copy would double the largest allocation there is.
    fn take_latencies(&mut self) -> LatencyStats {
        let mut merged = LatencyStats::new();
        for d in 0..self.devices() {
            let dev = self.hv_mut(d).device_mut();
            for s in 0..dev.num_accels() {
                let taken = std::mem::take(dev.port_mut(s).latency_stats());
                merged.merge(&taken);
            }
        }
        merged
    }
}

/// Field-wise `after − before` of two [`HvStats`] readings.
pub fn hv_delta(after: &HvStats, before: &HvStats) -> HvStats {
    HvStats {
        traps: after.traps - before.traps,
        hypercalls: after.hypercalls - before.hypercalls,
        pinned_pages: after.pinned_pages - before.pinned_pages,
        context_switches: after.context_switches - before.context_switches,
        preemptions: after.preemptions - before.preemptions,
        forced_resets: after.forced_resets - before.forced_resets,
        dropped_packets: after.dropped_packets - before.dropped_packets,
        discarded_dma: after.discarded_dma - before.discarded_dma,
        discarded_mmio: after.discarded_mmio - before.discarded_mmio,
        alerts_starvation: after.alerts_starvation - before.alerts_starvation,
        alerts_iotlb_thrash: after.alerts_iotlb_thrash - before.alerts_iotlb_thrash,
        alerts_preempt_overrun: after.alerts_preempt_overrun - before.alerts_preempt_overrun,
        alerts_save_refused: after.alerts_save_refused - before.alerts_save_refused,
    }
}

/// Metrics-plane totals keyed by `(metric, label)`, summed over devices:
/// `(count, sum)` — a counter's value sits in `count`; a histogram
/// carries both; gauges are skipped (they are last-written values, not
/// totals, and the ledger derives its own).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlaneTotals(BTreeMap<(u16, u32), (u64, u64)>);

impl PlaneTotals {
    /// Reads the whole plane through its public snapshot.
    pub fn read() -> Self {
        let mut map: BTreeMap<(u16, u32), (u64, u64)> = BTreeMap::new();
        for s in metrics::snapshot() {
            let (count, sum) = match s.value {
                SeriesValue::Counter(v) => (v, 0),
                SeriesValue::Hist(h) => (h.count, h.sum),
                SeriesValue::Gauge(_) => continue,
            };
            let e = map.entry((s.def.id.0, s.label)).or_default();
            e.0 += count;
            e.1 += sum;
        }
        Self(map)
    }

    /// `self − before`, entry by entry.
    pub fn since(&self, before: &PlaneTotals) -> PlaneTotals {
        let mut out = BTreeMap::new();
        for (k, &(c, s)) in &self.0 {
            let (c0, s0) = before.0.get(k).copied().unwrap_or((0, 0));
            if c != c0 || s != s0 {
                out.insert(*k, (c - c0, s - s0));
            }
        }
        PlaneTotals(out)
    }

    /// Count of `m` summed over every label.
    pub fn count(&self, m: Metric) -> u64 {
        self.0
            .iter()
            .filter(|((id, _), _)| *id == m.0)
            .map(|(_, v)| v.0)
            .sum()
    }

    /// Count of `m` at one label.
    pub fn count_at(&self, m: Metric, label: u32) -> u64 {
        self.0.get(&(m.0, label)).map_or(0, |v| v.0)
    }

    /// Mean observed value of histogram `m` over every label (0 if empty).
    pub fn mean(&self, m: Metric) -> f64 {
        let (c, s) = self
            .0
            .iter()
            .filter(|((id, _), _)| *id == m.0)
            .fold((0u64, 0u64), |a, (_, v)| (a.0 + v.0, a.1 + v.1));
        if c == 0 {
            0.0
        } else {
            s as f64 / c as f64
        }
    }

    /// Folds everything the plane recorded over the window into `fp`.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        for (&(id, label), &(c, s)) in &self.0 {
            fp.push(id as u64);
            fp.push(label as u64);
            fp.push(c);
            fp.push(s);
        }
    }
}

/// Every simulated statistic of one timed section.
pub struct SimStats {
    /// Per-device `now()` at open and close.
    pub clocks: (Vec<u64>, Vec<u64>),
    /// `(read, write)` byte deltas per device per port.
    pub port_bytes: Vec<Vec<(u64, u64)>>,
    /// DMA round-trips of every port, merged.
    pub dma_lat: LatencyStats,
    pub hv: HvStats,
    pub plane: PlaneTotals,
    /// IOTLB `(hits, spec hits, misses, conflict evictions)`.
    pub iotlb: [u64; 4],
    pub faulted_dmas: u64,
    /// 4 KB host frames materialized at close, over all devices.
    pub materialized_frames: u64,
}

impl SimStats {
    /// Σ over devices of `now()` deltas.
    pub fn device_cycles(&self) -> u64 {
        device_cycles(&self.clocks.0, &self.clocks.1)
    }

    /// Cycles the node as a whole advanced (its most advanced device).
    pub fn node_cycles(&self) -> u64 {
        let max = |v: &Vec<u64>| v.iter().copied().max().unwrap_or(0);
        max(&self.clocks.1) - max(&self.clocks.0)
    }

    pub fn total_bytes(&self) -> u64 {
        self.port_bytes.iter().flatten().map(|(r, w)| r + w).sum()
    }

    /// Aggregate DMA payload throughput in simulated GB/s.
    pub fn sim_gbps(&self) -> f64 {
        gbps(self.total_bytes(), self.node_cycles().max(1))
    }

    pub fn iotlb_hit_ratio(&self) -> f64 {
        let [h, s, m, _] = self.iotlb;
        let lookups = h + s + m;
        if lookups == 0 {
            0.0
        } else {
            (h + s) as f64 / lookups as f64
        }
    }

    /// Fingerprint of the device-owned state: identical whatever the
    /// recording planes, the stepping mode or the thread count were.
    pub fn core_fingerprint(&self, fp: &mut Fingerprint) {
        for c in self.clocks.0.iter().chain(&self.clocks.1) {
            fp.push(*c);
        }
        for (r, w) in self.port_bytes.iter().flatten() {
            fp.push(*r);
            fp.push(*w);
        }
        fp.push(self.dma_lat.count() as u64);
        fp.push_f64(self.dma_lat.mean_cycles());
        for q in [0.5, 0.99, 1.0] {
            fp.push(self.dma_lat.percentile_cycles(q));
        }
        let h = &self.hv;
        for v in [
            h.traps,
            h.hypercalls,
            h.pinned_pages,
            h.context_switches,
            h.preemptions,
            h.forced_resets,
            h.dropped_packets,
            h.discarded_dma,
            h.discarded_mmio,
            h.alerts_starvation,
            h.alerts_iotlb_thrash,
            h.alerts_preempt_overrun,
            h.alerts_save_refused,
        ] {
            fp.push(v);
        }
        for v in self.iotlb {
            fp.push(v);
        }
        fp.push(self.faulted_dmas);
        fp.push(self.materialized_frames);
    }
}

/// An open measurement window.
pub struct Window {
    clocks: Vec<u64>,
    port_bytes: Vec<Vec<(u64, u64)>>,
    hv: HvStats,
    plane: PlaneTotals,
    iotlb: [u64; 4],
    faulted: u64,
}

impl Window {
    /// Opens the window: warm-up latency samples are dropped and every
    /// cumulative counter is read as the baseline.
    pub fn open(stack: &mut Stack) -> Self {
        drop(stack.take_latencies());
        Self {
            clocks: stack.clocks(),
            port_bytes: stack.port_bytes(),
            hv: stack.hv_stats(),
            plane: PlaneTotals::read(),
            iotlb: stack.iotlb(),
            faulted: faulted(stack),
        }
    }

    /// Closes the window and returns the section's statistics.
    pub fn close(self, stack: &mut Stack) -> SimStats {
        let port_bytes = stack
            .port_bytes()
            .iter()
            .zip(&self.port_bytes)
            .map(|(after, before)| {
                after
                    .iter()
                    .zip(before)
                    .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                    .collect()
            })
            .collect();
        let iotlb_now = stack.iotlb();
        let mut iotlb = [0u64; 4];
        for i in 0..4 {
            iotlb[i] = iotlb_now[i] - self.iotlb[i];
        }
        let materialized_frames = (0..stack.devices())
            .map(|d| stack.hv(d).device().host().memory().materialized_frames() as u64)
            .sum();
        SimStats {
            clocks: (self.clocks, stack.clocks()),
            port_bytes,
            dma_lat: stack.take_latencies(),
            hv: hv_delta(&stack.hv_stats(), &self.hv),
            plane: PlaneTotals::read().since(&self.plane),
            iotlb,
            faulted_dmas: faulted(stack) - self.faulted,
            materialized_frames,
        }
    }
}

fn faulted(stack: &Stack) -> u64 {
    (0..stack.devices())
        .map(|d| stack.hv(d).device().host().faulted_dmas())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus::node::NodeConfig;
    use optimus_accel::registry::AccelKind;

    #[test]
    fn window_counts_device_cycles_of_every_node_device() {
        let mut cfg = NodeConfig::new(vec![AccelKind::Mb], 3);
        cfg.threads = Some(1);
        let mut stack = Stack::Node(OptimusNode::new(cfg).expect("node boots"));
        stack.run(1_000);
        let w = Window::open(&mut stack);
        stack.run(500);
        // A guest trap advances one device only: the devices drift apart.
        let h = stack.node().create_tenant("t");
        stack.node().guest(h).mmio_write(crate::kernels::APP, 1);
        let sim = w.close(&mut stack);
        let trap = sim.clocks.1[h.device.0 as usize] - sim.clocks.0[h.device.0 as usize] - 500;
        assert!(trap > 0, "the trap cost simulated time on its device");
        assert_eq!(sim.device_cycles(), 3 * 500 + trap);
        assert_eq!(sim.node_cycles(), 500 + trap);
        assert_eq!(sim.hv.traps, 1);
    }
}
