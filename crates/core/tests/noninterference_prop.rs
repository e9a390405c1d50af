//! Noninterference: a tenant's *data observables* are bit-identical with
//! and without a WildDma adversary sharing its device — across serial and
//! parallel node stepping, per-cycle and fast-forwarded devices, batched
//! device bursts, and through a mid-run migration + hypervisor
//! live-update with the adversary's wild DMA still in flight.
//!
//! The fingerprint is deliberately restricted to what the paper's
//! isolation story actually promises: the victim's *results* — its read
//! checksum (a commutative fold over the bytes its guest wrote), its
//! completion state, its abort/leak counters, and the raw content of its
//! read-only region half. Timing observables (cycle counts, IOTLB stats)
//! are excluded on purpose: an adversary legitimately shifts those through
//! the shared multiplexer tree and IOTLB, and the paper makes no secrecy
//! claim about them.

use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus::slicing::SlicingConfig;
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::registry::AccelKind;
use optimus_accel::wild::WildKernel;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_mem::addr::{Gva, PAGE_2M};

const REGION_BYTES: u64 = 1 << 16;
const VICTIM_OPS: u64 = 600;
const ATTACK_OPS: u64 = 900;

fn fill_pattern(seed: u64) -> Vec<u8> {
    let mut fill = vec![0u8; (REGION_BYTES / 2) as usize];
    for (i, b) in fill.iter_mut().enumerate() {
        *b = (seed as u8)
            .wrapping_add((i as u8).wrapping_mul(31))
            .wrapping_add((i >> 8) as u8);
    }
    fill
}

fn start_job(node: &mut OptimusNode, h: NodeVaccel, ops: u64, seed: u64, wild_every: u64) -> Gva {
    let mut g = node.guest(h);
    let state = g.alloc_dma(1 << 16);
    g.set_state_buffer(state);
    let region = g.alloc_dma(REGION_BYTES);
    g.write_mem(region, &fill_pattern(seed));
    g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_REGION, region.raw());
    g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_BYTES, REGION_BYTES);
    g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_OPS, ops);
    g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_SEED, seed);
    if wild_every > 0 {
        // One slice stride *backwards*: the probes translate into the
        // victim's auditor window at the same relative offsets the
        // attacker uses for its own region.
        let stride = SlicingConfig::default().stride();
        g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_WILD_BASE, region.raw() - stride);
        g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_WILD_BYTES, 1 << 20);
        g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_WILD_EVERY, wild_every);
    }
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    region
}

/// Boots a node from `cfg` on `threads` workers with burst length `batch`.
/// `per_cycle` turns fast-forward off on every device, so each steps one
/// cycle at a time: the reference stepping (serial, batch 1).
fn boot(mut cfg: NodeConfig, threads: usize, batch: u64, per_cycle: bool) -> OptimusNode {
    cfg.threads = Some(threads);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    node.set_batch_step(batch);
    if per_cycle {
        for d in 0..node.num_devices() {
            node.device_mut(DeviceId(d as u32)).device_mut().set_fast_forward(false);
        }
    }
    node
}

/// Runs the victim under one (threads, batch, per-cycle) node configuration,
/// optionally sharing its device with a cross-slice WildDma adversary and
/// optionally migrating mid-run (plus a live-update of the attacked
/// device, with wild probes still in flight). Returns the victim's data
/// fingerprint: registers + completion + its read-only memory half.
fn victim_fingerprint(
    threads: usize,
    batch: u64,
    per_cycle: bool,
    adversary: bool,
    interrupted: bool,
) -> (Vec<u64>, Vec<u8>) {
    let mut cfg = NodeConfig::new(vec![AccelKind::Wild; 2], 2);
    cfg.seed = 7;
    cfg.time_slice = 6_000;
    let mut node = boot(cfg, threads, batch, per_cycle);
    let mut victim = node.create_tenant_on(DeviceId(0), "victim");
    let region = start_job(&mut node, victim, VICTIM_OPS, 21, 0);
    if adversary {
        let attacker = node.create_tenant_on(DeviceId(0), "attacker");
        start_job(&mut node, attacker, ATTACK_OPS, 33, 2);
    }
    node.run(60_000);
    if interrupted {
        victim = node.migrate(victim, DeviceId(1)).expect("migration succeeds");
        node.live_update(DeviceId(0));
    }
    assert!(node.run_until_done(victim, 400_000_000), "victim completes");
    let mut regs = vec![node.vaccel_completed(victim) as u64];
    {
        let mut g = node.guest(victim);
        for r in [
            WildKernel::REG_COMPLETED,
            WildKernel::REG_CHECKSUM,
            WildKernel::REG_WILD_LEAKED,
            WildKernel::REG_LEGIT_ABORTED,
        ] {
            regs.push(g.mmio_read(accel_reg::APP_BASE + r));
        }
    }
    let mut mem = vec![0u8; (REGION_BYTES / 2) as usize];
    node.guest(victim).read_mem(region, &mut mem);
    (regs, mem)
}

/// The victim's data observables are identical across the full grid —
/// ± adversary, ± mid-run migrate/live-update, threads {1,4}, per-cycle
/// or fast-forwarded devices, device batching — and equal to the serial
/// per-cycle undisturbed baseline bit for bit.
#[test]
fn adversary_and_interruption_leave_victim_data_untouched() {
    let baseline = victim_fingerprint(1, 1, true, false, false);
    // Vacuity guards: the job ran, fingerprinted real bytes, and nothing
    // in the baseline was aborted.
    assert_eq!(baseline.0[0], 1, "baseline victim incomplete");
    assert_eq!(baseline.0[1], VICTIM_OPS);
    assert_ne!(baseline.0[2], 0, "empty checksum");
    assert_eq!(baseline.0[3], 0);
    assert_eq!(baseline.0[4], 0);
    assert_eq!(baseline.1, fill_pattern(21), "baseline read half diverges from guest fill");
    for &(threads, batch, per_cycle) in
        &[(1usize, 1u64, true), (1, 1, false), (4, 1, false), (1, 64, false), (4, 64, false)]
    {
        for &adversary in &[false, true] {
            for &interrupted in &[false, true] {
                if (threads, batch, per_cycle, adversary, interrupted) == (1, 1, true, false, false)
                {
                    continue; // the baseline itself
                }
                let fp = victim_fingerprint(threads, batch, per_cycle, adversary, interrupted);
                assert_eq!(
                    fp, baseline,
                    "victim data diverges at threads={threads} batch={batch} \
                     per_cycle={per_cycle} adversary={adversary} interrupted={interrupted}"
                );
            }
        }
    }
}

// ---- Shared-memory pipeline noninterference --------------------------------

/// Lines of the shared span the pipeline's consumer hashes (64 B each).
const PIPE_LINES: u64 = 64;

fn pipe_pattern() -> Vec<u8> {
    (0..PAGE_2M as usize).map(|i| (i as u32).wrapping_mul(2654435761) as u8).collect()
}

/// Runs the cross-device shared-memory pipeline — producer on device 0
/// shares a read-only span, SHA-512 consumer on device 1 hashes it
/// through its retrieved mirror — optionally with a WildDma adversary
/// co-resident with the consumer probing one window back (where the
/// mirror lives), and optionally with the producer migrating mid-run.
/// Returns the pipeline's data observables: digest registers, the
/// DMA-written digest line, the consumer's mirror view, and the owner
/// span.
fn pipeline_fingerprint(
    threads: usize,
    batch: u64,
    per_cycle: bool,
    adversary: bool,
    interrupted: bool,
) -> Vec<u8> {
    let mut cfg = NodeConfig::new(vec![AccelKind::Sha, AccelKind::Wild], 3);
    cfg.seed = 11;
    cfg.time_slice = 6_000;
    let mut node = boot(cfg, threads, batch, per_cycle);
    let mut owner = node.create_tenant_on(DeviceId(0), "owner");
    let consumer = node.create_tenant_on(DeviceId(1), "peer");

    let span = node.guest(owner).alloc_dma(PAGE_2M);
    node.guest(owner).write_mem(span, &pipe_pattern());
    let handle = node.guest(owner).mem_share(span, PAGE_2M, "peer", false).expect("share");
    let got = node.retrieve_shared(handle, consumer).expect("cross retrieve");
    let dst;
    {
        let mut g = node.guest(consumer);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        dst = g.alloc_dma(4096);
        g.mmio_write(accel_reg::APP_BASE + hash_reg::SRC, got.raw());
        g.mmio_write(accel_reg::APP_BASE + hash_reg::DST, dst.raw());
        g.mmio_write(accel_reg::APP_BASE + hash_reg::LINES, PIPE_LINES);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    if adversary {
        // Co-resident with the consumer, on the device's Wild slot; its
        // probes one stride back land in the consumer's auditor window —
        // on the retrieved mirror pages.
        let attacker = node.create_tenant_on(DeviceId(1), "attacker");
        start_job(&mut node, attacker, ATTACK_OPS, 33, 2);
    }
    node.run(40_000);
    if interrupted {
        owner = node.migrate(owner, DeviceId(2)).expect("owner migrates");
    }
    assert!(node.run_until_done(consumer, 400_000_000), "pipeline completes");

    let mut out = Vec::new();
    for i in 0..8 {
        let r = node.guest(consumer).mmio_read(accel_reg::APP_BASE + hash_reg::DIGEST0 + 8 * i);
        out.extend_from_slice(&r.to_le_bytes());
    }
    let mut line = vec![0u8; 64];
    node.guest(consumer).read_mem(dst, &mut line);
    out.extend_from_slice(&line);
    let mut view = vec![0u8; 4096];
    node.guest(consumer).read_mem(got, &mut view);
    out.extend_from_slice(&view);
    node.guest(owner).read_mem(span, &mut view);
    out.extend_from_slice(&view);
    out
}

/// The shared-memory pipeline's data observables — digest registers, the
/// DMA'd digest line, the consumer's mirror view, and the producer's span
/// — are bit-identical with and without a co-resident WildDma adversary
/// aimed at the mirror's window, across stepping modes, threads, batching, and
/// a mid-run producer migration; and equal to the real SHA-512 of the
/// shared prefix.
#[test]
fn adversary_cannot_perturb_shared_pipeline_observables() {
    let baseline = pipeline_fingerprint(1, 1, true, false, false);
    // Vacuity guards: both digest copies are the true hash, and both
    // sides of the channel hold the pattern.
    let expect = optimus_algo::sha2::sha512(&pipe_pattern()[..(PIPE_LINES * 64) as usize]);
    assert_eq!(&baseline[..64], &expect[..], "register digest wrong");
    assert_eq!(&baseline[64..128], &expect[..], "DMA digest line wrong");
    assert_eq!(&baseline[128..4224], &pipe_pattern()[..4096], "mirror diverges");
    assert_eq!(&baseline[4224..], &pipe_pattern()[..4096], "owner span diverges");
    for &(threads, batch, per_cycle) in
        &[(1usize, 1u64, true), (1, 1, false), (4, 1, false), (1, 64, false)]
    {
        for &adversary in &[false, true] {
            for &interrupted in &[false, true] {
                if (threads, batch, per_cycle, adversary, interrupted) == (1, 1, true, false, false)
                {
                    continue;
                }
                let fp = pipeline_fingerprint(threads, batch, per_cycle, adversary, interrupted);
                assert_eq!(
                    fp, baseline,
                    "pipeline observables diverge at threads={threads} batch={batch} \
                     per_cycle={per_cycle} adversary={adversary} interrupted={interrupted}"
                );
            }
        }
    }
}

/// The attack itself is not vacuous: under the same scenario the adversary
/// issues its full wild schedule and every probe is discarded at the
/// auditor window.
#[test]
fn adversary_probes_are_all_discarded() {
    let mut cfg = NodeConfig::new(vec![AccelKind::Wild; 2], 2);
    cfg.seed = 7;
    cfg.time_slice = 6_000;
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let victim = node.create_tenant_on(DeviceId(0), "victim");
    start_job(&mut node, victim, VICTIM_OPS, 21, 0);
    let attacker = node.create_tenant_on(DeviceId(0), "attacker");
    start_job(&mut node, attacker, ATTACK_OPS, 33, 2);
    assert!(node.run_until_done(victim, 400_000_000));
    assert!(node.run_until_done(attacker, 400_000_000));
    let total_wild = ATTACK_OPS / 2;
    let mut g = node.guest(attacker);
    assert_eq!(g.mmio_read(accel_reg::APP_BASE + WildKernel::REG_WILD_DONE), total_wild);
    assert_eq!(g.mmio_read(accel_reg::APP_BASE + WildKernel::REG_WILD_LEAKED), 0);
    assert!(node.stats().discarded_dma >= total_wild);
}
