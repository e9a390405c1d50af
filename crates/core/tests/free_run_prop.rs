//! Differential fingerprints for the node schedule and batched device
//! stepping.
//!
//! `OptimusNode::run` advances every device across a whole span in one
//! dispatch while no cross-device share is live, and in horizon chunks
//! (shares synced at every chunk end) while one is;
//! `OptimusNode::set_batch_step` controls how many busy cycles a device
//! executes per horizon scan. All of these are claimed bit-identical to
//! stepping every device serially, one cycle at a time (see the `node`
//! module docs for the run-splitting lemma and the `clock` module for the
//! batching argument). This suite checks the claim: every point of the
//! threads × batch grid — with a mid-run `migrate()` and a mid-run
//! `live_update()` thrown in — must reproduce the serial per-cycle
//! baseline's fingerprint exactly, and so must a driver that cuts every
//! span into horizon chunks from outside the node.

use optimus::hypervisor::ShareState;
use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;

const DEVICES: usize = 3;
const SLOTS_PER_DEVICE: usize = 2;
const TENANTS: usize = 5;

fn start_mb_job(node: &mut OptimusNode, h: NodeVaccel, ops: u64, seed: u64) {
    let mut g = node.guest(h);
    let state = g.alloc_dma(1 << 21);
    g.set_state_buffer(state);
    let region = g.alloc_dma(1 << 21);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 16);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, ops);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, seed);
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
}

/// How a fingerprint run steps its node.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Sched {
    /// Fast-forward off on every device, so each steps one cycle at a
    /// time: the reference (run serially with batch 1).
    PerCycle,
    /// `OptimusNode::run` as it is.
    Run,
    /// Every span cut into horizon chunks by [`advance`].
    Chunked,
}

/// Boots a node from `cfg` on `threads` workers with burst length `batch`.
fn boot(mut cfg: NodeConfig, threads: usize, batch: u64, sched: Sched) -> OptimusNode {
    cfg.threads = Some(threads);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    node.set_batch_step(batch);
    if sched == Sched::PerCycle {
        for d in 0..node.num_devices() {
            node.device_mut(DeviceId(d as u32)).device_mut().set_fast_forward(false);
        }
    }
    node
}

/// Advances `node` by `cycles`. Under [`Sched::Chunked`] every chunk ends
/// one cycle past the nearest device sync horizon, so each horizon's
/// scheduling decision executes inside the chunk that reaches it.
fn advance(node: &mut OptimusNode, cycles: u64, sched: Sched) {
    if sched != Sched::Chunked {
        node.run(cycles);
        return;
    }
    let mut remaining = cycles;
    while remaining > 0 {
        let chunk = (0..node.num_devices())
            .filter_map(|d| {
                let hv = node.device(DeviceId(d as u32));
                hv.next_sync_horizon().map(|h| h.saturating_sub(hv.now()) + 1)
            })
            .fold(remaining, u64::min);
        node.run(chunk);
        remaining -= chunk;
    }
}

/// Runs the scenario under one (threads, batch, schedule) configuration
/// and returns an exhaustive state fingerprint: clocks, hypervisor
/// statistics, host/port counters, and guest-visible progress. Node-level
/// chunk metrics are deliberately excluded — chunk *counts* differ across
/// schedules by design; device state must not.
fn fingerprint(threads: usize, batch: u64, sched: Sched) -> Vec<u64> {
    let mut cfg = NodeConfig::new(vec![AccelKind::Mb; SLOTS_PER_DEVICE], DEVICES);
    cfg.seed = 7;
    cfg.time_slice = 6_000;
    let mut node = boot(cfg, threads, batch, sched);
    let mut handles: Vec<NodeVaccel> =
        (0..TENANTS).map(|t| node.create_tenant(&format!("t{t}"))).collect();
    for (t, &h) in handles.iter().enumerate() {
        start_mb_job(&mut node, h, 200 + 97 * t as u64, 11 + t as u64);
    }
    advance(&mut node, 120_000, sched);
    // Mid-run cross-device migration (round-robin placed tenant 0 on
    // device 0) and a hypervisor live-update on a bystander device.
    handles[0] = node
        .migrate(handles[0], DeviceId((DEVICES - 1) as u32))
        .expect("migration succeeds");
    node.live_update(DeviceId(1));
    advance(&mut node, 130_000, sched);
    let mut fp = vec![node.now()];
    for d in 0..DEVICES {
        let hv = node.device(DeviceId(d as u32));
        let stats = hv.stats();
        fp.extend([
            hv.device().now(),
            stats.traps,
            stats.hypercalls,
            stats.pinned_pages,
            stats.context_switches,
            stats.preemptions,
            stats.forced_resets,
            stats.dropped_packets,
            stats.discarded_dma,
            stats.discarded_mmio,
            hv.device().host().faulted_dmas(),
            hv.device().host().total_dma_bytes(),
        ]);
        let (hits, spec, misses, conflicts) = hv.device().host().iommu().tlb().stats();
        fp.extend([hits, spec, misses, conflicts]);
        for s in 0..SLOTS_PER_DEVICE {
            let (read, written) = hv.device().port(s).byte_counts();
            fp.extend([hv.device().port(s).stale_discarded(), read, written]);
        }
    }
    for &h in &handles {
        fp.push(h.device.0 as u64);
        fp.push(node.vaccel_completed(h) as u64);
        fp.push(node.guest(h).mmio_read(accel_reg::APP_BASE + MbKernel::REG_COMPLETED));
    }
    fp.push(node.now());
    fp
}

/// Every (threads, batch) combination reproduces the serial per-cycle
/// baseline bit for bit, through a mid-run migration and live-update —
/// both as `run` schedules it and cut into horizon chunks.
#[test]
fn node_schedule_and_batching_match_per_cycle_baseline() {
    let baseline = fingerprint(1, 1, Sched::PerCycle);
    // Guard against vacuity: the scenario must trap MMIO, move DMA
    // bytes, and hit the IOTLB before the comparison means anything.
    assert!(baseline[2] > 0, "no traps recorded: {baseline:?}");
    assert!(baseline[12] > 0, "no DMA bytes moved: {baseline:?}");
    for &threads in &[1usize, 2, 4] {
        for &sched in &[Sched::Run, Sched::Chunked] {
            for &batch in &[1u64, 64] {
                let fp = fingerprint(threads, batch, sched);
                assert_eq!(
                    fp, baseline,
                    "fingerprint diverges at threads={threads} {sched:?} batch={batch}"
                );
            }
        }
    }
}

/// Folds a byte span into one fingerprint word (order-sensitive).
fn fold_bytes(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The cross-device shared-memory channel under the same grid: a
/// producer's Mb job keeps rewriting a span it shared read-only with a
/// SHA-512 consumer on another device, so every chunk boundary's
/// owner→mirror sync moves fresh bytes. Mid-run the owner migrates with
/// the handle live and the consumer's device live-updates with the mirror
/// mapped. A cross-device share bounds the dependency horizon (chunks end
/// at sync horizons while any is live), and that schedule is claimed
/// bit-identical across threads and batching — this fingerprint is the
/// check.
fn share_fingerprint(threads: usize, batch: u64, sched: Sched) -> Vec<u64> {
    let mut cfg = NodeConfig::new(vec![AccelKind::Sha, AccelKind::Mb], DEVICES);
    cfg.seed = 9;
    cfg.time_slice = 6_000;
    let mut node = boot(cfg, threads, batch, sched);
    // Slot layout per device is [Sha, Mb]; least-populated-slot assignment
    // gives the first tenant slot 0. `aux` soaks up device 0's Sha slot so
    // the owner lands on the Mb slot (and keeps it across the migration:
    // the slot index travels with the tenant).
    let _aux = node.create_tenant_on(DeviceId(0), "aux");
    let owner = node.create_tenant_on(DeviceId(0), "owner");
    let consumer = node.create_tenant_on(DeviceId(1), "peer");
    let _bg = node.create_tenant_on(DeviceId(2), "bg");

    let span = node.guest(owner).alloc_dma(1 << 21);
    node.guest(owner).write_mem(span, &[0xC3; 4096]);
    let handle = node.guest(owner).mem_share(span, 1 << 21, "peer", false).expect("share");
    let got = node.retrieve_shared(handle, consumer).expect("cross retrieve");
    {
        // The owner's membench job churns the shared span itself.
        let mut g = node.guest(owner);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, span.raw());
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 16);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_MODE, 2); // mixed: writes churn the span
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, 500);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, 3);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    let dst;
    {
        let mut g = node.guest(consumer);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        dst = g.alloc_dma(4096);
        g.mmio_write(accel_reg::APP_BASE + hash_reg::SRC, got.raw());
        g.mmio_write(accel_reg::APP_BASE + hash_reg::DST, dst.raw());
        g.mmio_write(accel_reg::APP_BASE + hash_reg::LINES, 64);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    node.run(120_000);
    let owner = node.migrate(owner, DeviceId(2)).expect("owner migrates");
    node.live_update(DeviceId(1));
    node.run(130_000);

    let mut fp = vec![node.now()];
    for d in 0..DEVICES {
        let hv = node.device(DeviceId(d as u32));
        let stats = hv.stats();
        fp.extend([
            hv.device().now(),
            stats.traps,
            stats.hypercalls,
            stats.pinned_pages,
            stats.context_switches,
            stats.preemptions,
            stats.discarded_dma,
            hv.device().host().faulted_dmas(),
            hv.device().host().total_dma_bytes(),
        ]);
    }
    // Data observables: the consumer's digest registers, the digest line
    // it DMA-wrote, the mirror's head, the owner span's head, and where
    // the handle record lives.
    for i in 0..8 {
        fp.push(node.guest(consumer).mmio_read(accel_reg::APP_BASE + hash_reg::DIGEST0 + 8 * i));
    }
    let mut line = vec![0u8; 4096];
    node.guest(consumer).read_mem(dst, &mut line);
    fp.push(fold_bytes(&line));
    // The Mb job's 64 KB working set, on both sides of the channel.
    let mut buf = vec![0u8; 1 << 16];
    node.guest(consumer).read_mem(got, &mut buf);
    fp.push(fold_bytes(&buf));
    node.guest(owner).read_mem(span, &mut buf);
    fp.push(fold_bytes(&buf));
    let home = (0..DEVICES)
        .find(|&d| node.device(DeviceId(d as u32)).share_state(handle).is_some())
        .expect("handle record survived");
    assert_eq!(node.device(DeviceId(home as u32)).share_state(handle), Some(ShareState::Retrieved));
    fp.push(home as u64);
    fp.push(node.now());
    fp
}

/// Every grid point reproduces the per-cycle baseline while a
/// cross-device share is live: owner→mirror syncs land at the same chunk
/// boundaries no matter the thread count or batching — through an owner
/// migration and a live-update of the device holding the mirror.
#[test]
fn cross_device_share_grid_matches_per_cycle_baseline() {
    let baseline = share_fingerprint(1, 1, Sched::PerCycle);
    assert!(baseline[2] > 0, "no traps recorded: {baseline:?}");
    assert!(baseline[9] > 0, "no DMA bytes moved: {baseline:?}");
    // The span actually churned: the owner-side fold differs from the
    // pristine fill's fold.
    let pristine = fold_bytes(&{
        let mut b = vec![0u8; 1 << 16];
        b[..4096].fill(0xC3);
        b
    });
    let owner_fold = baseline[baseline.len() - 3];
    assert_ne!(owner_fold, pristine, "owner job never touched the shared span");
    // And the mirror tracked it through the chunk-boundary syncs.
    let mirror_fold = baseline[baseline.len() - 4];
    assert_eq!(mirror_fold, owner_fold, "mirror diverged from the owner span");
    for &threads in &[1usize, 2, 4] {
        for &batch in &[1u64, 64] {
            let fp = share_fingerprint(threads, batch, Sched::Run);
            assert_eq!(
                fp, baseline,
                "share fingerprint diverges at threads={threads} batch={batch}"
            );
        }
    }
}

/// The scenario is not vacuous: jobs make progress and the migrated
/// tenant finishes on its destination device.
#[test]
fn scenario_reaches_completion() {
    let mut cfg = NodeConfig::new(vec![AccelKind::Mb; SLOTS_PER_DEVICE], DEVICES);
    cfg.seed = 7;
    cfg.time_slice = 6_000;
    cfg.threads = Some(2);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let h = node.create_tenant("t0");
    start_mb_job(&mut node, h, 200, 11);
    node.run(60_000);
    let h = node.migrate(h, DeviceId(2)).expect("migration succeeds");
    node.live_update(DeviceId(2));
    assert!(node.run_until_done(h, 400_000_000), "migrated job completes");
    assert_eq!(node.device(DeviceId(2)).device().host().faulted_dmas(), 0);
}
