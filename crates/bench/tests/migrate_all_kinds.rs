//! Cross-device migration property: for every accelerator kind in the
//! registry, a job preempted mid-flight (Fig. 8 drain + state save into
//! its own guest memory), detached from its source device, and resumed
//! on a *different* device instance must finish with bit-for-bit the
//! same results — output regions and result registers — as the same job
//! run uninterrupted. The saved state travels with the tenant's guest
//! pages, so migration is exactly the paper's save→restore round trip
//! with a device boundary in the middle.

use optimus::hypervisor::GuestCtx;
use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus_accel::registry::AccelKind;
use optimus_accel::{aes::AesKernel, btc::BtcKernel, fir::FirKernel, grn::GrnKernel,
    hash::reg as hash_reg, image::ConvKernel, image::GrsKernel, linked_list::LlKernel,
    membench::MbKernel, rsd::RsdKernel, sssp::SsspKernel, sw::SwKernel};
use optimus_algo::bitcoin::BlockHeader;
use optimus_algo::graph::INF;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_mem::addr::Gva;
use optimus_sim::time::ms_to_cycles;
use optimus_workloads::graphs::random_graph;

const APP: u64 = accel_reg::APP_BASE;

/// Deterministic nonzero input so "all output bytes equal" is a real
/// check, not a comparison of zero pages.
fn pattern(bytes: u64, seed: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(bytes as usize);
    let mut x = seed | 1;
    while (v.len() as u64) < bytes {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(bytes as usize);
    v
}

/// Programs a *bounded* job of `kind` (sized to outlast the
/// pre-migration run but finish afterwards) and returns what to compare
/// once it completes: guest regions to read back and result-register
/// offsets.
fn launch_bounded(g: &mut GuestCtx, kind: AccelKind) -> (Vec<(Gva, u64)>, Vec<u64>) {
    // Every kind gets a state buffer: detaching preempts via the Fig. 8
    // drain+save path, and the saved state must land in guest memory to
    // migrate with the tenant.
    let state = g.alloc_dma(1 << 21);
    g.set_state_buffer(state);
    match kind {
        AccelKind::Aes => {
            let bytes = 4 << 20;
            let src = g.alloc_dma(bytes);
            let dst = g.alloc_dma(bytes);
            g.write_mem(src, &pattern(bytes, 0xa35));
            g.mmio_write(APP + AesKernel::REG_SRC, src.raw());
            g.mmio_write(APP + AesKernel::REG_DST, dst.raw());
            g.mmio_write(APP + AesKernel::REG_LINES, bytes / 64);
            g.mmio_write(APP + AesKernel::REG_KEY0, 0x1122334455667788);
            g.mmio_write(APP + AesKernel::REG_KEY1, 0x99aabbccddeeff00);
            (vec![(dst, bytes)], vec![])
        }
        AccelKind::Md5 | AccelKind::Sha => {
            let bytes = 4 << 20;
            let src = g.alloc_dma(bytes);
            let dst = g.alloc_dma(4096);
            g.write_mem(src, &pattern(bytes, 0x4d5));
            g.mmio_write(APP + hash_reg::SRC, src.raw());
            g.mmio_write(APP + hash_reg::DST, dst.raw());
            g.mmio_write(APP + hash_reg::LINES, bytes / 64);
            (vec![(dst, 4096)], vec![hash_reg::DIGEST0])
        }
        AccelKind::Fir => {
            let bytes = 4 << 20;
            let src = g.alloc_dma(bytes);
            let dst = g.alloc_dma(bytes);
            g.write_mem(src, &pattern(bytes, 0xf14));
            g.mmio_write(APP + FirKernel::REG_SRC, src.raw());
            g.mmio_write(APP + FirKernel::REG_DST, dst.raw());
            g.mmio_write(APP + FirKernel::REG_LINES, bytes / 64);
            (vec![(dst, bytes)], vec![])
        }
        AccelKind::Grn => {
            let bytes = 4 << 20;
            let dst = g.alloc_dma(bytes);
            g.mmio_write(APP + GrnKernel::REG_DST, dst.raw());
            g.mmio_write(APP + GrnKernel::REG_LINES, bytes / 64);
            g.mmio_write(APP + GrnKernel::REG_SEED, 0x9e3779b97f4a7c15);
            (vec![(dst, bytes)], vec![])
        }
        AccelKind::Rsd => {
            let bytes = 4 << 20;
            let src = g.alloc_dma(bytes);
            let dst = g.alloc_dma(bytes);
            g.write_mem(src, &pattern(bytes, 0x45d));
            g.mmio_write(APP + RsdKernel::REG_SRC, src.raw());
            g.mmio_write(APP + RsdKernel::REG_DST, dst.raw());
            g.mmio_write(APP + RsdKernel::REG_LINES, bytes / 64 / 4 * 4);
            (vec![(dst, bytes)], vec![RsdKernel::REG_DECODED, RsdKernel::REG_FAILURES])
        }
        AccelKind::Sw => {
            let bytes = 1 << 20;
            let src = g.alloc_dma(bytes);
            g.write_mem(src, &pattern(bytes, 0x53d));
            g.mmio_write(APP + SwKernel::REG_SRC, src.raw());
            g.mmio_write(APP + SwKernel::REG_LINES, bytes / 64);
            g.mmio_write(APP + SwKernel::REG_REF_LINES, 2);
            (vec![], vec![SwKernel::REG_BEST, SwKernel::REG_BEST_BLOCK])
        }
        AccelKind::Gau | AccelKind::Sbl => {
            let bytes = 4 << 20;
            let src = g.alloc_dma(bytes);
            let dst = g.alloc_dma(bytes);
            g.write_mem(src, &pattern(bytes, 0x6a0));
            g.mmio_write(APP + ConvKernel::REG_SRC, src.raw());
            g.mmio_write(APP + ConvKernel::REG_DST, dst.raw());
            g.mmio_write(APP + ConvKernel::REG_LINES, bytes / 64);
            (vec![(dst, bytes)], vec![])
        }
        AccelKind::Grs => {
            let bytes = 4 << 20;
            let src = g.alloc_dma(bytes);
            let dst = g.alloc_dma(bytes / 4 + 4096);
            g.write_mem(src, &pattern(bytes, 0x625));
            g.mmio_write(APP + GrsKernel::REG_SRC, src.raw());
            g.mmio_write(APP + GrsKernel::REG_DST, dst.raw());
            g.mmio_write(APP + GrsKernel::REG_LINES, bytes / 64);
            (vec![(dst, bytes / 4 + 4096)], vec![])
        }
        AccelKind::Sssp => {
            let vertices = 512usize;
            let graph = random_graph(vertices, 4096, 0x555);
            let blob = graph.to_dram_layout();
            let gsrc = g.alloc_dma(blob.len() as u64);
            g.write_mem(gsrc, &blob);
            let dist_bytes = (vertices as u64 * 4).div_ceil(64) * 64 + 64;
            let dist = g.alloc_dma(dist_bytes);
            let mut init = Vec::with_capacity(vertices * 4);
            for v in 0..vertices {
                init.extend_from_slice(&if v == 0 { 0u32 } else { INF }.to_le_bytes());
            }
            g.write_mem(dist, &init);
            g.mmio_write(APP + SsspKernel::REG_GRAPH, gsrc.raw());
            g.mmio_write(APP + SsspKernel::REG_DIST, dist.raw());
            g.mmio_write(APP + SsspKernel::REG_SOURCE, 0);
            g.mmio_write(APP + SsspKernel::REG_ONCHIP, 1);
            (
                vec![(dist, dist_bytes)],
                vec![SsspKernel::REG_ROUNDS, SsspKernel::REG_RELAXATIONS],
            )
        }
        AccelKind::Btc => {
            let src = g.alloc_dma(4096);
            g.write_mem(src, &BlockHeader::example().to_bytes());
            g.mmio_write(APP + BtcKernel::REG_SRC, src.raw());
            g.mmio_write(APP + BtcKernel::REG_TARGET, 0); // impossible
            g.mmio_write(APP + BtcKernel::REG_COUNT, 100_000);
            (vec![], vec![BtcKernel::REG_ATTEMPTS, BtcKernel::REG_FOUND])
        }
        AccelKind::Mb => {
            let bytes = 1 << 20;
            let region = g.alloc_dma(bytes);
            g.mmio_write(APP + MbKernel::REG_REGION, region.raw());
            g.mmio_write(APP + MbKernel::REG_BYTES, bytes);
            g.mmio_write(APP + MbKernel::REG_MODE, 1); // write: region bytes are a result
            g.mmio_write(APP + MbKernel::REG_OPS, 200_000);
            g.mmio_write(APP + MbKernel::REG_SEED, 0x4d2);
            (vec![(region, bytes)], vec![MbKernel::REG_COMPLETED])
        }
        AccelKind::Ll => {
            let nodes = 64u64;
            let region = g.alloc_dma(nodes * 64);
            let mut blob = vec![0u8; (nodes * 64) as usize];
            for n in 0..nodes {
                let next = region.raw() + ((n * 7 + 1) % nodes) * 64;
                blob[(n * 64) as usize..(n * 64 + 8) as usize]
                    .copy_from_slice(&next.to_le_bytes());
            }
            g.write_mem(region, &blob);
            g.mmio_write(APP + LlKernel::REG_START, region.raw());
            g.mmio_write(APP + LlKernel::REG_STEPS, 3000);
            (vec![], vec![LlKernel::REG_DONE_STEPS, LlKernel::REG_CURRENT])
        }
        AccelKind::Wild | AccelKind::HcDma => {
            // The off-table kinds (the adversarial prober, the host-centric
            // engine) are exercised by their own suites, not the Table 1
            // sweep.
            unreachable!("{kind:?} is not part of the migration sweep")
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    regions: Vec<Vec<u8>>,
    regs: Vec<u64>,
}

/// Runs one bounded job of `kind` to completion on a two-device node,
/// optionally migrating it mid-flight from device 0 to device 1.
fn run_scenario(kind: AccelKind, migrate: bool) -> Outcome {
    let mut cfg = NodeConfig::new(vec![kind], 2);
    cfg.threads = Some(1);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let a = node.create_tenant_on(DeviceId(0), "prop");
    let (regions, regs) = {
        let mut g = node.guest(a);
        let plan = launch_bounded(&mut g, kind);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        plan
    };
    node.run(ms_to_cycles(0.1));
    let h: NodeVaccel = if migrate {
        assert!(
            !node.vaccel_completed(a),
            "{kind:?}: job finished before the migration point"
        );
        let b = node.migrate(a, DeviceId(1)).expect("migration succeeds");
        assert_eq!(node.device(DeviceId(0)).num_vaccels(), 0);
        b
    } else {
        a
    };
    assert!(node.run_until_done(h, 500_000_000), "{kind:?}: job never completed");
    assert_eq!(node.device(h.device).device().host().faulted_dmas(), 0);
    let mut g = node.guest(h);
    Outcome {
        regions: regions
            .iter()
            .map(|&(gva, len)| {
                let mut buf = vec![0u8; len as usize];
                g.read_mem(gva, &mut buf);
                buf
            })
            .collect(),
        regs: regs.iter().map(|&r| g.mmio_read(APP + r)).collect(),
    }
}

fn check(kind: AccelKind) {
    let migrated = run_scenario(kind, true);
    let straight = run_scenario(kind, false);
    assert!(
        migrated == straight,
        "{kind:?}: migrated results diverge from the uninterrupted run \
         (regs {:?} vs {:?})",
        migrated.regs,
        straight.regs
    );
}

macro_rules! migrate_kind {
    ($($name:ident => $kind:ident),* $(,)?) => {
        $(#[test]
        fn $name() {
            check(AccelKind::$kind);
        })*
    };
}

migrate_kind! {
    migrate_preserves_aes => Aes,
    migrate_preserves_md5 => Md5,
    migrate_preserves_sha => Sha,
    migrate_preserves_fir => Fir,
    migrate_preserves_grn => Grn,
    migrate_preserves_rsd => Rsd,
    migrate_preserves_sw => Sw,
    migrate_preserves_gau => Gau,
    migrate_preserves_grs => Grs,
    migrate_preserves_sbl => Sbl,
    migrate_preserves_sssp => Sssp,
    migrate_preserves_btc => Btc,
    migrate_preserves_mb => Mb,
    migrate_preserves_ll => Ll,
}

/// The macro list above must cover the registry exactly.
#[test]
fn every_registry_kind_is_covered() {
    assert_eq!(AccelKind::ALL.len(), 14);
}
