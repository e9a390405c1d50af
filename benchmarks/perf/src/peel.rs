//! The stack peel: the same jobs run at four depths of the stack, host
//! nanoseconds per simulated fabric cycle at each.
//!
//! 1. `accel`  — bare kernels on their own clock dividers, each port
//!    served by a zero-latency memory at the link's bandwidth;
//! 2. `fabric` — the same kernels inside an `FpgaDevice` (auditors, mux
//!    tree, channels, IOMMU, host memory), programmed over raw MMIO;
//! 3. `core.hv` — the same device under an `Optimus` hypervisor;
//! 4. `core.node` — the same hypervisor inside a one-device `OptimusNode`.
//!
//! Successive differences price each added layer. The bare depth has no
//! memory latency, so a latency-bound job does far more work per cycle
//! there than in the system; the peel is meant for busy fabrics.

use crate::kernels::{self, JobSpec, APP};
use crate::spans::Spans;
use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus::node::{NodeConfig, OptimusNode};
use optimus_accel::registry::{build_accelerator, AccelKind};
use optimus_cci::channel::SelectorPolicy;
use optimus_fabric::accelerator::{AccelPort, Accelerator};
use optimus_fabric::device::FpgaDevice;
use optimus_fabric::mmio::{self, accel_reg};
use optimus_mem::addr::{Hpa, Iova, PageSize, PAGE_2M};
use optimus_mem::page_table::PageFlags;
use optimus_sim::time::{ClockDivider, Cycle};
use optimus_workloads::linked_list::linked_list_line_filler;
use std::sync::Arc;
use std::time::Instant;

const WARMUP: Cycle = 20_000;
/// Longest span the bare-kernel depth runs.
const BARE_CYCLES: Cycle = 200_000;
/// Address stride between slots' regions at the two lower depths.
const SLOT_STRIDE: u64 = 16 << 30;

/// `(accel, fabric, core.hv, core.node)` host ns per simulated cycle for
/// the job mix `specs` (one per slot) over `cycles` fabric cycles.
pub fn run(specs: &[JobSpec], policy: SelectorPolicy, cycles: Cycle, sp: &mut Spans) -> [f64; 4] {
    let s = sp.begin("peel.accel");
    // The ideal port turns a latency-bound job into one hop per cycle:
    // a shorter span gives the same per-cycle figure.
    let accel = bare(specs, cycles.min(BARE_CYCLES));
    sp.end(s);
    let s = sp.begin("peel.fabric");
    let fabric = device(specs, policy, cycles);
    sp.end(s);
    let s = sp.begin("peel.core.hv");
    let hv = hypervisor(specs, policy, cycles);
    sp.end(s);
    let s = sp.begin("peel.core.node");
    let node = node(specs, cycles);
    sp.end(s);
    [accel, fabric, hv, node]
}

fn ns_per_cycle(cycles: Cycle, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / cycles as f64
}

/// Source and destination base of `slot` at the two lower depths. The
/// IOTLB is direct-mapped on the 2 MB page number modulo 512, so bases a
/// power of two apart would all land in one set and thrash; each slot's
/// regions start 64 pages further round the sets (the hypervisor's page
/// table slicing does the same job at the upper depths).
fn regions(slot: usize) -> (u64, u64) {
    let base = (slot as u64 + 1) * SLOT_STRIDE + slot as u64 * 64 * PAGE_2M;
    (base, base + SLOT_STRIDE / 2 + 32 * PAGE_2M)
}

/// Bare kernels on their clock dividers, ports served by an ideal
/// memory: zero latency, but no more than the link's one line per two
/// fabric cycles in total, granted round-robin. Without the cap a
/// bandwidth-bound mix would do more work per cycle here than inside the
/// system and the depths would not compare.
struct Bare {
    accels: Vec<Box<dyn Accelerator>>,
    ports: Vec<AccelPort>,
    dividers: Vec<ClockDivider>,
    memories: Vec<Box<dyn Fn(u64) -> [u8; 64]>>,
    now: Cycle,
    /// Lines the link may still carry this cycle (half a line accrues
    /// per cycle).
    credit: f64,
    next_port: usize,
}

impl Bare {
    fn new(specs: &[JobSpec]) -> Self {
        let mut rig = Self {
            accels: Vec::new(),
            ports: Vec::new(),
            dividers: Vec::new(),
            memories: Vec::new(),
            now: 0,
            credit: 0.0,
            next_port: 0,
        };
        for (slot, spec) in specs.iter().enumerate() {
            let (src, dst) = regions(slot);
            let mut acc = build_accelerator(spec.kind, spec.seed);
            for (reg, value) in spec.regs(src, dst) {
                acc.mmio_write(APP + reg, value);
            }
            acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
            rig.dividers
                .push(ClockDivider::from_mhz(acc.meta().freq_mhz));
            rig.accels.push(acc);
            rig.ports.push(AccelPort::new());
            rig.memories.push(kernels::ideal_source(spec, src));
        }
        rig
    }

    fn step(&mut self, until: Cycle) {
        let n = self.accels.len();
        while self.now < until {
            for i in 0..n {
                if self.dividers[i].tick(self.now) {
                    self.accels[i].step(self.now, &mut self.ports[i]);
                }
            }
            self.credit = (self.credit + 0.5).min(2.0);
            for k in 0..n {
                let i = (self.next_port + k) % n;
                while self.credit >= 1.0 && self.ports[i].has_pending() {
                    kernels::serve_one(&mut self.ports[i], self.now, self.memories[i].as_ref());
                    self.credit -= 1.0;
                }
            }
            self.next_port = (self.next_port + 1) % n;
            self.now += 1;
        }
    }
}

fn bare(specs: &[JobSpec], cycles: Cycle) -> f64 {
    let mut rig = Bare::new(specs);
    rig.step(WARMUP);
    ns_per_cycle(cycles, || rig.step(WARMUP + cycles))
}

fn device(specs: &[JobSpec], policy: SelectorPolicy, cycles: Cycle) -> f64 {
    let accels = specs
        .iter()
        .map(|s| build_accelerator(s.kind, s.seed))
        .collect();
    let mut dev = FpgaDevice::new_monitored(accels, 2, policy);
    program_device(&mut dev, specs);
    dev.run(WARMUP);
    ns_per_cycle(cycles, || dev.run(cycles))
}

/// Maps, backs and programs every job over raw MMIO, as a hypervisor-less
/// driver would: identity IO mappings, no slicing offset.
fn program_device(dev: &mut FpgaDevice, specs: &[JobSpec]) {
    for (slot, spec) in specs.iter().enumerate() {
        let (src, dst) = regions(slot);
        for (base, bytes) in [(src, spec.src_bytes()), (dst, spec.dst_bytes())] {
            for page in 0..bytes.div_ceil(PAGE_2M) {
                let at = base + page * PAGE_2M;
                dev.host_mut()
                    .iommu_mut()
                    .map(Iova::new(at), Hpa::new(at), PageSize::Huge, PageFlags::rw())
                    .expect("fresh IOVA");
            }
        }
        let mem = dev.host_mut().memory_mut();
        let src_len = spec.src_bytes().div_ceil(PAGE_2M) * PAGE_2M;
        match spec.kind {
            AccelKind::Ll => mem.add_lazy_region_lines(
                Hpa::new(src),
                src_len,
                linked_list_line_filler(
                    optimus_mem::addr::Gva::new(src),
                    Hpa::new(src),
                    spec.ll_nodes(),
                    spec.seed,
                ),
            ),
            AccelKind::Mb => mem.add_scratch_region(Hpa::new(src), src_len),
            AccelKind::Btc => mem.write(
                Hpa::new(src),
                &optimus_algo::bitcoin::BlockHeader::example().to_bytes(),
            ),
            _ => mem.add_lazy_region_lines(
                Hpa::new(src),
                src_len,
                kernels::tile_filler(Arc::new(spec.tile()), src),
            ),
        }
        if spec.dst_bytes() > 0 {
            let dst_len = spec.dst_bytes().div_ceil(PAGE_2M) * PAGE_2M;
            mem.add_scratch_region(Hpa::new(dst), dst_len);
        }
        let base = mmio::accel_mmio_base(slot);
        for (reg, value) in spec.regs(src, dst) {
            dev.mmio_write(base + APP + reg, value);
        }
        dev.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
}

fn hypervisor(specs: &[JobSpec], policy: SelectorPolicy, cycles: Cycle) -> f64 {
    let mut cfg = OptimusConfig::new(specs.iter().map(|s| s.kind).collect());
    cfg.channel_policy = policy;
    let mut hv = Optimus::new(cfg);
    let mut quiet = Spans::new(false);
    for (slot, spec) in specs.iter().enumerate() {
        let vm = hv.create_vm(&format!("peel{slot}"));
        let va = hv.create_vaccel(vm, slot);
        kernels::launch(
            &mut hv.guest(va),
            spec,
            PageSize::Huge,
            false,
            true,
            &mut quiet,
        );
    }
    hv.run(WARMUP);
    ns_per_cycle(cycles, || hv.run(cycles))
}

/// A node always uses the auto selector, so a pinned-channel mix
/// (`ll_chase`) keeps its own policy only down to the hypervisor depth.
fn node(specs: &[JobSpec], cycles: Cycle) -> f64 {
    let mut cfg = NodeConfig::new(specs.iter().map(|s| s.kind).collect(), 1);
    cfg.threads = Some(1);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let mut quiet = Spans::new(false);
    for (slot, spec) in specs.iter().enumerate() {
        let h = node.create_tenant(&format!("peel{slot}"));
        kernels::launch(
            &mut node.guest(h),
            spec,
            PageSize::Huge,
            false,
            true,
            &mut quiet,
        );
    }
    node.run(WARMUP);
    ns_per_cycle(cycles, || node.run(cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::COMPUTE_KINDS;

    #[test]
    fn raw_device_depth_streams_without_thrashing_the_iotlb() {
        let specs: Vec<JobSpec> = COMPUTE_KINDS
            .iter()
            .enumerate()
            .map(|(slot, &k)| crate::workloads::spatial::spec_for(k, 1, slot, 200_000))
            .collect();
        let accels = specs
            .iter()
            .map(|s| build_accelerator(s.kind, s.seed))
            .collect();
        let mut dev = FpgaDevice::new_monitored(accels, 2, SelectorPolicy::Auto);
        program_device(&mut dev, &specs);
        dev.run(50_000);
        for (slot, spec) in specs.iter().enumerate() {
            let (read, _) = dev.port(slot).byte_counts();
            assert!(read > 0, "{:?} never read its source", spec.kind);
        }
        assert_eq!(dev.host().faulted_dmas(), 0);
        let (hits, spec_hits, misses, _) = dev.host().iommu().tlb().stats();
        assert!(
            misses * 100 < hits + spec_hits,
            "{misses} misses for {hits} hits"
        );
    }

    #[test]
    fn bare_depth_is_capped_at_the_link_rate() {
        // Eight saturating kernels on an ideal memory still move at most
        // one line per two fabric cycles between them.
        let specs: Vec<JobSpec> = (0..8)
            .map(|slot| crate::workloads::spatial::spec_for(AccelKind::Mb, 1, slot, 10_000))
            .collect();
        let mut rig = Bare::new(&specs);
        rig.step(10_000);
        let lines: u64 = rig
            .ports
            .iter()
            .map(|p| p.byte_counts())
            .map(|(r, w)| (r + w) / 64)
            .sum();
        assert!(
            (4_900..=5_000).contains(&lines),
            "{lines} lines in 10 000 cycles"
        );
    }
}
