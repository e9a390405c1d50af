//! Per-benchmark job launchers for throughput/latency experiments.
//!
//! Every launcher programs an *unbounded-or-longer-than-the-window* job:
//! streaming kernels get input regions sized to outlast the measurement
//! window (zero-filled — content does not change their data rate, and the
//! compute still genuinely runs), MemBench and LinkedList run in their
//! unbounded modes, SSSP walks a generated graph, and BTC grinds an
//! impossible target.

use optimus::hypervisor::{Backing, GuestCtx};
use optimus_accel::registry::AccelKind;
use optimus_accel::{aes::AesKernel, btc::BtcKernel, fir::FirKernel, grn::GrnKernel,
    hash::reg as hash_reg, image::ConvKernel, image::GrsKernel, linked_list::LlKernel,
    membench::MbKernel, rsd::RsdKernel, sssp::SsspKernel, sw::SwKernel};
use optimus_algo::bitcoin::BlockHeader;
use optimus_algo::graph::INF;
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::PageSize;
use optimus_sim::time::Cycle;
use optimus_workloads::graphs::random_graph;
use optimus_workloads::linked_list::linked_list_line_filler;

const APP: u64 = accel_reg::APP_BASE;

/// The MD5 worst-case state padding register (Fig. 8c).
pub const STATE_PAD_REG: u64 = optimus_accel::hash::Md5Kernel::REG_STATE_PAD;

/// Options for a launched job.
#[derive(Debug, Clone, Copy)]
pub struct JobParams {
    /// Measurement window the job must outlast.
    pub window: Cycle,
    /// MemBench/LinkedList working-set bytes (per job).
    pub working_set: u64,
    /// MemBench mode (0 read / 1 write / 2 mixed).
    pub mb_mode: u64,
    /// IO page granularity for the DMA regions.
    pub page: PageSize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for JobParams {
    fn default() -> Self {
        Self {
            window: 1_000_000,
            working_set: 64 << 20,
            mb_mode: 0,
            page: PageSize::Huge,
            seed: 7,
        }
    }
}

fn alloc(g: &mut GuestCtx, bytes: u64, backing: Backing, page: PageSize) -> u64 {
    match page {
        PageSize::Huge => g.alloc_dma_with(bytes, backing).raw(),
        PageSize::Small => g.alloc_dma_4k(bytes, backing).raw(),
    }
}

/// Bytes per second each streaming kernel nominally consumes+produces, used
/// to size input regions to outlast the window.
fn region_for(kind: AccelKind, window: Cycle) -> u64 {
    let gbps = kind.meta().demand * 12.8 + 0.5;
    let secs = window as f64 * 2.5e-9;
    let bytes = (gbps * 1e9 * secs * 2.0) as u64;
    bytes.next_power_of_two().max(8 << 20)
}

/// Programs and starts a job of `kind` on the guest handle.
pub fn launch(g: &mut GuestCtx, kind: AccelKind, p: &JobParams) {
    match kind {
        AccelKind::Aes => {
            let bytes = region_for(kind, p.window);
            let src = alloc(g, bytes, Backing::Normal, p.page);
            let dst = alloc(g, bytes, Backing::Scratch, p.page);
            g.mmio_write(APP + AesKernel::REG_SRC, src);
            g.mmio_write(APP + AesKernel::REG_DST, dst);
            g.mmio_write(APP + AesKernel::REG_LINES, bytes / 64);
            g.mmio_write(APP + AesKernel::REG_KEY0, 0x1122334455667788);
        }
        AccelKind::Md5 | AccelKind::Sha => {
            let bytes = region_for(kind, p.window);
            let src = alloc(g, bytes, Backing::Normal, p.page);
            let dst = alloc(g, 4096, Backing::Normal, p.page);
            g.mmio_write(APP + hash_reg::SRC, src);
            g.mmio_write(APP + hash_reg::DST, dst);
            g.mmio_write(APP + hash_reg::LINES, bytes / 64);
        }
        AccelKind::Fir => {
            let bytes = region_for(kind, p.window);
            let src = alloc(g, bytes, Backing::Normal, p.page);
            let dst = alloc(g, bytes, Backing::Scratch, p.page);
            g.mmio_write(APP + FirKernel::REG_SRC, src);
            g.mmio_write(APP + FirKernel::REG_DST, dst);
            g.mmio_write(APP + FirKernel::REG_LINES, bytes / 64);
        }
        AccelKind::Grn => {
            let bytes = region_for(kind, p.window);
            let dst = alloc(g, bytes, Backing::Scratch, p.page);
            g.mmio_write(APP + GrnKernel::REG_DST, dst);
            g.mmio_write(APP + GrnKernel::REG_LINES, bytes / 64);
            g.mmio_write(APP + GrnKernel::REG_SEED, p.seed);
        }
        AccelKind::Rsd => {
            let bytes = region_for(kind, p.window);
            let src = alloc(g, bytes, Backing::Normal, p.page);
            let dst = alloc(g, bytes, Backing::Scratch, p.page);
            g.mmio_write(APP + RsdKernel::REG_SRC, src);
            g.mmio_write(APP + RsdKernel::REG_DST, dst);
            g.mmio_write(APP + RsdKernel::REG_LINES, bytes / 64 / 4 * 4);
        }
        AccelKind::Sw => {
            let bytes = region_for(kind, p.window);
            let src = alloc(g, bytes, Backing::Normal, p.page);
            g.mmio_write(APP + SwKernel::REG_SRC, src);
            g.mmio_write(APP + SwKernel::REG_LINES, bytes / 64);
            g.mmio_write(APP + SwKernel::REG_REF_LINES, 2);
        }
        AccelKind::Gau | AccelKind::Sbl => {
            let bytes = region_for(kind, p.window);
            let src = alloc(g, bytes, Backing::Normal, p.page);
            let dst = alloc(g, bytes, Backing::Scratch, p.page);
            g.mmio_write(APP + ConvKernel::REG_SRC, src);
            g.mmio_write(APP + ConvKernel::REG_DST, dst);
            g.mmio_write(APP + ConvKernel::REG_LINES, bytes / 64);
        }
        AccelKind::Grs => {
            let bytes = region_for(kind, p.window);
            let src = alloc(g, bytes, Backing::Normal, p.page);
            let dst = alloc(g, bytes / 4 + 4096, Backing::Scratch, p.page);
            g.mmio_write(APP + GrsKernel::REG_SRC, src);
            g.mmio_write(APP + GrsKernel::REG_DST, dst);
            g.mmio_write(APP + GrsKernel::REG_LINES, bytes / 64);
        }
        AccelKind::Sssp => {
            // A graph big enough to outlast the window (≈ 0.5 µs per edge).
            let edges = ((p.window as f64 * 2.5 / 500.0) as usize * 4).max(50_000);
            let vertices = edges / 8;
            let graph = random_graph(vertices, edges, p.seed);
            let blob = graph.to_dram_layout();
            let gsrc = alloc(g, blob.len() as u64, Backing::Normal, p.page);
            g.write_mem(optimus_mem::addr::Gva::new(gsrc), &blob);
            let dist_bytes = (vertices as u64 * 4).div_ceil(64) * 64 + 64;
            let dist = alloc(g, dist_bytes, Backing::Normal, p.page);
            let mut init = Vec::with_capacity(vertices * 4);
            for v in 0..vertices {
                init.extend_from_slice(&if v == 0 { 0u32 } else { INF }.to_le_bytes());
            }
            g.write_mem(optimus_mem::addr::Gva::new(dist), &init);
            g.mmio_write(APP + SsspKernel::REG_GRAPH, gsrc);
            g.mmio_write(APP + SsspKernel::REG_DIST, dist);
            g.mmio_write(APP + SsspKernel::REG_SOURCE, 0);
            g.mmio_write(APP + SsspKernel::REG_ONCHIP, 1);
        }
        AccelKind::Btc => {
            let src = alloc(g, 4096, Backing::Normal, p.page);
            g.write_mem(
                optimus_mem::addr::Gva::new(src),
                &BlockHeader::example().to_bytes(),
            );
            g.mmio_write(APP + BtcKernel::REG_SRC, src);
            g.mmio_write(APP + BtcKernel::REG_TARGET, 0); // impossible
            g.mmio_write(APP + BtcKernel::REG_COUNT, u32::MAX as u64);
        }
        AccelKind::Mb => {
            let region = alloc(g, p.working_set.max(1 << 20), Backing::Scratch, p.page);
            g.mmio_write(APP + MbKernel::REG_REGION, region);
            g.mmio_write(APP + MbKernel::REG_BYTES, p.working_set.max(1 << 20));
            g.mmio_write(APP + MbKernel::REG_MODE, p.mb_mode);
            g.mmio_write(APP + MbKernel::REG_OPS, 0); // unbounded
            g.mmio_write(APP + MbKernel::REG_SEED, p.seed);
        }
        AccelKind::HcDma => {
            // The shell DMA engine runs only as the host-centric model's
            // single pass-through slot (`optimus::hostcentric`).
            panic!("HCDMA is not a windowed tenant")
        }
        AccelKind::Wild => {
            use optimus_accel::wild::WildKernel;
            let bytes = p.working_set.max(1 << 20);
            let region = alloc(g, bytes, Backing::Scratch, p.page);
            g.mmio_write(APP + WildKernel::REG_REGION, region);
            g.mmio_write(APP + WildKernel::REG_BYTES, bytes);
            // Effectively unbounded — outlasts any measurement window.
            g.mmio_write(APP + WildKernel::REG_OPS, u64::MAX);
            // Aim the wild probes one slice-stride past the legit region:
            // with slicing enabled they translate outside this tenant's
            // auditor window and must master-abort.
            g.mmio_write(APP + WildKernel::REG_WILD_BASE, region + (64 << 30));
            g.mmio_write(APP + WildKernel::REG_WILD_BYTES, 1 << 20);
            g.mmio_write(APP + WildKernel::REG_WILD_EVERY, 4);
            g.mmio_write(APP + WildKernel::REG_SEED, p.seed);
        }
        AccelKind::Ll => {
            let nodes = (p.working_set / 64).max(64);
            let seed = p.seed;
            let region = g
                .alloc_dma_lazy_lines_sized(nodes * 64, p.page, |gva, hpa| {
                    linked_list_line_filler(gva, hpa, nodes, seed)
                })
                .raw();
            g.mmio_write(APP + LlKernel::REG_START, region);
            g.mmio_write(APP + LlKernel::REG_STEPS, 0); // unbounded
        }
    }
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
}

/// An application-progress reading: DMA bytes for memory-driven kernels,
/// hash attempts for the compute-bound miner.
pub fn progress(device: &mut optimus_fabric::device::FpgaDevice, kind: AccelKind, slot: usize) -> u64 {
    match kind {
        AccelKind::Btc => device
            .accel_mut(slot)
            .mmio_read(APP + BtcKernel::REG_ATTEMPTS),
        _ => {
            let (r, w) = device.port(slot).byte_counts();
            r + w
        }
    }
}
