//! The executable isolation spec, exercised end-to-end: a WildDma
//! adversary probing outside its slice, refinement checks on every host
//! memory access (`optimus_sim::spec`), and the regression tests for the
//! isolation bugs the harness shook out.
//!
//! Three claims are checked here:
//!
//! 1. **Invisibility** — enabling the spec plane changes no simulation
//!    state: the full device fingerprint (clocks, stats, ports, guest
//!    registers) is byte-identical with the plane on vs off, serial and
//!    parallel.
//! 2. **Refinement on clean runs** — multi-tenant scenarios with 4 KB and
//!    2 MB pages, preemption, migration, and live-update record zero
//!    violations: everything the simulator does, the model permits, and
//!    everything the simulator refuses, the model refuses.
//! 3. **Containment of wild traffic** — every probe WildDma aims outside
//!    its slice (at a neighbour's slice or the IOTLB-mitigation gap) is
//!    master-aborted: reads leak no data, writes land nowhere, the legit
//!    stream is untouched, and the model agrees no illegal access was
//!    ever *performed* (zero violations with nonzero discards).

use optimus::hypervisor::Backing;
use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus::slicing::SlicingConfig;
use optimus::watchdog::AlertKind;
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_accel::wild::WildKernel;
use optimus_fabric::mmio::{accel_mmio_base, accel_reg, ACCEL_PAGE, VCU_BASE};
use optimus_fabric::platform::DeviceId;
use optimus_mem::addr::{Gva, PAGE_2M};
use optimus_sim::spec;
use optimus_testkit::{gens, prop_assert, prop_assert_eq, runner};

const REGION_BYTES: u64 = 1 << 16;

/// Where a tenant's wild probes are aimed.
#[derive(Clone, Copy)]
enum WildAim {
    /// No wild traffic: a well-behaved tenant.
    None,
    /// At the previous tenant's slice: `region - stride` translates to the
    /// same relative offset inside the *neighbouring* auditor window.
    PrevSlice { every: u64 },
    /// One slice length past its own region: into the IOTLB-mitigation
    /// gap between windows.
    Gap { every: u64 },
    /// At an explicit GVA in the prober's own address space (used by the
    /// generated probe plans to aim at a neighbour's mapped page or at a
    /// share span one window back).
    At { base: u64, every: u64 },
}

/// Creates a tenant's job on a Wild slot: deterministic content in the
/// read half of the region, optional wild probes, CMD_START.
fn start_wild_job(
    node: &mut OptimusNode,
    h: NodeVaccel,
    ops: u64,
    seed: u64,
    aim: WildAim,
    pages_4k: bool,
) -> Gva {
    let slicing = SlicingConfig::default();
    let mut g = node.guest(h);
    let state = if pages_4k {
        g.alloc_dma_4k(1 << 16, Backing::Normal)
    } else {
        g.alloc_dma(1 << 16)
    };
    g.set_state_buffer(state);
    let region = if pages_4k {
        g.alloc_dma_4k(REGION_BYTES, Backing::Normal)
    } else {
        g.alloc_dma(REGION_BYTES)
    };
    // The kernel's checksum fingerprints exactly these bytes (reads sample
    // the lower half; its own writes land in the upper half).
    let mut fill = vec![0u8; (REGION_BYTES / 2) as usize];
    for (i, b) in fill.iter_mut().enumerate() {
        *b = (seed as u8)
            .wrapping_add((i as u8).wrapping_mul(31))
            .wrapping_add((i >> 8) as u8);
    }
    g.write_mem(region, &fill);
    g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_REGION, region.raw());
    g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_BYTES, REGION_BYTES);
    g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_OPS, ops);
    g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_SEED, seed);
    let wild_base = match aim {
        WildAim::None => None,
        WildAim::PrevSlice { every } => Some((region.raw() - slicing.stride(), every)),
        WildAim::Gap { every } => Some((region.raw() + slicing.slice_bytes, every)),
        WildAim::At { base, every } => Some((base, every)),
    };
    if let Some((base, every)) = wild_base {
        g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_WILD_BASE, base);
        g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_WILD_BYTES, 1 << 20);
        g.mmio_write(accel_reg::APP_BASE + WildKernel::REG_WILD_EVERY, every);
    }
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    region
}

fn reg(node: &mut OptimusNode, h: NodeVaccel, r: u64) -> u64 {
    node.guest(h).mmio_read(accel_reg::APP_BASE + r)
}

/// Runs a two-device WildDma scenario (one adversary among well-behaved
/// tenants, mid-run migrate + live-update) and returns the full state
/// fingerprint, free_run_prop-style. `spec_on` flips the refinement
/// checker for the whole run; `per_cycle` turns fast-forward off on every
/// device, so each steps one cycle at a time.
fn scenario_fingerprint(threads: usize, batch: u64, per_cycle: bool, spec_on: bool) -> Vec<u64> {
    spec::set_enabled(spec_on);
    spec::reset();
    const DEVICES: usize = 2;
    const SLOTS: usize = 2;
    let mut cfg = NodeConfig::new(vec![AccelKind::Wild; SLOTS], DEVICES);
    cfg.seed = 7;
    cfg.time_slice = 6_000;
    cfg.threads = Some(threads);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    node.set_batch_step(batch);
    if per_cycle {
        for d in 0..DEVICES {
            node.device_mut(DeviceId(d as u32)).device_mut().set_fast_forward(false);
        }
    }
    let mut handles: Vec<NodeVaccel> = (0..4)
        .map(|t| node.create_tenant_on(DeviceId((t % DEVICES) as u32), &format!("t{t}")))
        .collect();
    for (t, &h) in handles.iter().enumerate() {
        // Tenant 3 is the adversary: every second legit op is chased by a
        // wild probe at its predecessor's slice.
        let aim = if t == 3 { WildAim::PrevSlice { every: 2 } } else { WildAim::None };
        start_wild_job(&mut node, h, 300 + 83 * t as u64, 11 + t as u64, aim, false);
    }
    node.run(120_000);
    handles[0] = node.migrate(handles[0], DeviceId(1)).expect("migration succeeds");
    node.live_update(DeviceId(0));
    node.run(200_000);
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
        let (hits, spec_hits, misses, conflicts) = hv.device().host().iommu().tlb().stats();
        fp.extend([hits, spec_hits, misses, conflicts]);
        for s in 0..SLOTS {
            let (read, written) = hv.device().port(s).byte_counts();
            fp.extend([hv.device().port(s).stale_discarded(), read, written]);
        }
    }
    for &h in &handles {
        fp.push(h.device.0 as u64);
        fp.push(node.vaccel_completed(h) as u64);
        for r in [
            WildKernel::REG_COMPLETED,
            WildKernel::REG_CHECKSUM,
            WildKernel::REG_WILD_ISSUED,
            WildKernel::REG_WILD_DONE,
            WildKernel::REG_WILD_LEAKED,
            WildKernel::REG_LEGIT_ABORTED,
        ] {
            fp.push(reg(&mut node, h, r));
        }
    }
    fp.push(node.now());
    if spec_on {
        assert_eq!(
            spec::violation_count(),
            0,
            "clean+contained scenario must satisfy the model: {:?}",
            spec::violations()
        );
        spec::set_enabled(false);
    }
    fp
}

/// Claim 1: the spec plane is invisible. Byte-identical fingerprints with
/// the refinement checker on vs off, serial and with worker threads (the
/// chunk import/export path), batched or not — all equal to the serial
/// per-cycle baseline.
#[test]
fn spec_plane_is_invisible() {
    let baseline = scenario_fingerprint(1, 1, true, false);
    assert!(baseline[2] > 0, "no traps recorded: {baseline:?}");
    for &(threads, batch, per_cycle) in
        &[(1usize, 1u64, true), (1, 1, false), (2, 1, false), (2, 64, false)]
    {
        for spec_on in [false, true] {
            if (threads, batch, per_cycle, spec_on) == (1, 1, true, false) {
                continue; // the baseline itself
            }
            let fp = scenario_fingerprint(threads, batch, per_cycle, spec_on);
            assert_eq!(
                fp, baseline,
                "fingerprint diverges at threads={threads} batch={batch} per_cycle={per_cycle} \
                 spec={spec_on}"
            );
        }
    }
}

/// Claim 2: clean multi-tenant runs — mixed 4 KB / 2 MB pages, preemption,
/// a migration, and a live-update — record zero refinement violations and
/// all jobs complete.
#[test]
fn clean_runs_record_zero_violations() {
    spec::set_enabled(true);
    spec::reset();
    let mut cfg = NodeConfig::new(vec![AccelKind::Wild; 2], 2);
    cfg.seed = 5;
    cfg.time_slice = 5_000;
    cfg.threads = Some(2);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let a = node.create_tenant_on(DeviceId(0), "small-pages");
    let b = node.create_tenant_on(DeviceId(0), "huge-pages");
    let c = node.create_tenant_on(DeviceId(1), "bystander");
    start_wild_job(&mut node, a, 400, 3, WildAim::None, true);
    start_wild_job(&mut node, b, 500, 4, WildAim::None, false);
    start_wild_job(&mut node, c, 600, 5, WildAim::None, false);
    node.run(40_000);
    let a = node.migrate(a, DeviceId(1)).expect("migration succeeds");
    node.live_update(DeviceId(0));
    for &h in &[a, b, c] {
        assert!(node.run_until_done(h, 400_000_000), "job completes");
        assert_ne!(reg(&mut node, h, WildKernel::REG_CHECKSUM), 0);
        assert_eq!(reg(&mut node, h, WildKernel::REG_LEGIT_ABORTED), 0);
    }
    assert_eq!(
        spec::violation_count(),
        0,
        "clean run diverged from the model: {:?}",
        spec::violations()
    );
    spec::set_enabled(false);
}

/// Shared body for claim 3: a victim and a WildDma adversary on one
/// device; every wild probe must be master-aborted (discarded at the
/// auditor), nothing may leak, the victim's read-half memory stays intact,
/// and the model must agree nothing illegal was performed.
fn wild_attack_is_contained(aim: WildAim) {
    spec::set_enabled(true);
    spec::reset();
    let mut cfg = NodeConfig::new(vec![AccelKind::Wild; 2], 1);
    cfg.seed = 9;
    cfg.time_slice = 6_000;
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let victim = node.create_tenant_on(DeviceId(0), "victim");
    let attacker = node.create_tenant_on(DeviceId(0), "attacker");
    let ops = 800u64;
    let every = 2u64;
    let victim_region = start_wild_job(&mut node, victim, 600, 21, WildAim::None, false);
    start_wild_job(&mut node, attacker, ops, 33, aim, false);
    // Wild MMIO rides along: pokes outside the accelerator's 4 KB page
    // must be discarded (reads as zero), not routed to a neighbour slot.
    {
        let mut g = node.guest(attacker);
        g.mmio_write(ACCEL_PAGE + accel_reg::APP_BASE, 0xdead_beef);
        assert_eq!(g.mmio_read(ACCEL_PAGE + accel_reg::APP_BASE), 0);
    }
    assert!(node.run_until_done(victim, 400_000_000), "victim completes");
    assert!(node.run_until_done(attacker, 400_000_000), "attacker's legit stream completes");
    let total_wild = ops / every;
    assert_eq!(reg(&mut node, attacker, WildKernel::REG_WILD_ISSUED), total_wild);
    assert_eq!(reg(&mut node, attacker, WildKernel::REG_WILD_DONE), total_wild);
    assert_eq!(
        reg(&mut node, attacker, WildKernel::REG_WILD_LEAKED),
        0,
        "a wild read outside the slice returned host data"
    );
    assert_eq!(
        reg(&mut node, attacker, WildKernel::REG_LEGIT_ABORTED),
        0,
        "the auditor window clamped the attacker's own legal stream"
    );
    assert_eq!(reg(&mut node, attacker, WildKernel::REG_COMPLETED), ops);
    assert_eq!(reg(&mut node, victim, WildKernel::REG_LEGIT_ABORTED), 0);
    let stats = node.stats();
    assert!(
        stats.discarded_dma >= total_wild,
        "every wild probe must be discarded at the auditor: {} < {total_wild}",
        stats.discarded_dma
    );
    assert!(stats.discarded_mmio >= 2, "wild MMIO must be discarded");
    // The victim's read half is bit-identical to what its guest wrote:
    // the adversary's writes landed nowhere.
    let mut expect = vec![0u8; (REGION_BYTES / 2) as usize];
    for (i, b) in expect.iter_mut().enumerate() {
        *b = 21u8.wrapping_add((i as u8).wrapping_mul(31)).wrapping_add((i >> 8) as u8);
    }
    let mut got = vec![0u8; (REGION_BYTES / 2) as usize];
    node.guest(victim).read_mem(victim_region, &mut got);
    assert_eq!(got, expect, "victim memory corrupted by wild traffic");
    assert_eq!(
        spec::violation_count(),
        0,
        "the simulator performed an access the model forbids: {:?}",
        spec::violations()
    );
    spec::set_enabled(false);
}

/// Regression (cross-slice window bug): wild probes aimed at the
/// *neighbouring tenant's slice* master-abort at the auditor window. Before
/// the per-slot window was programmed from the slice table, these
/// translated silently into the neighbour's IOVA range.
#[test]
fn cross_slice_wild_probes_master_abort() {
    wild_attack_is_contained(WildAim::PrevSlice { every: 2 });
}

/// Wild probes into the IOTLB-mitigation gap between slices master-abort
/// the same way (nothing is mapped there, and the window ends before it).
#[test]
fn mitigation_gap_wild_probes_master_abort() {
    wild_attack_is_contained(WildAim::Gap { every: 2 });
}

// ---- Generated probe plans over shared-memory channels ---------------------

/// What a generated WildDma plan aims the adversary at.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ProbeTarget {
    /// A page the neighbouring tenant has legitimately mapped (its job
    /// region, one auditor window back).
    NeighbourPage,
    /// The IOTLB-mitigation gap past the adversary's own window.
    MitigationGap,
    /// The VCU's management page, via a wild MMIO offset that would rebase
    /// onto it if the trap ever forwarded out-of-page offsets.
    VcuPage,
    /// The peer's *live* retrieved share span, one window back.
    LiveHandle,
    /// The same span after the peer relinquished the handle: the mapping
    /// must be gone (fault like an unmap), not merely stale.
    RelinquishedHandle,
}

/// One generated adversary plan: what to aim at, how often to probe, and
/// how long the legit stream runs.
type ProbePlan = (ProbeTarget, u64, u64);

/// Property body: an owner/peer pair with a shared-memory channel and a
/// WildDma adversary co-resident on one device. Wherever the generated
/// plan aims the adversary — a neighbour's mapped page, the mitigation
/// gap, the VCU page, the live share span, or the relinquished one — every
/// probe must master-abort, nothing may leak, the shared span must stay
/// intact, and the refinement model must agree nothing illegal was ever
/// performed. For the handle targets, the model (built purely from the
/// run's real history) must flag a hypothetical touch of the span with the
/// handle's full ownership history.
fn shared_channel_probe_is_contained(&(target, every, ops): &ProbePlan) -> runner::PropResult {
    spec::set_enabled(true);
    spec::reset();
    let stride = SlicingConfig::default().stride();
    let mut cfg = NodeConfig::new(vec![AccelKind::Wild; 3], 1);
    cfg.seed = 17;
    cfg.time_slice = 6_000;
    let mut node = OptimusNode::new(cfg).expect("node boots");
    // Creation order fixes slots: owner 0, peer 1, attacker 2 — so the
    // attacker's `gva - stride` lands in the peer's auditor window.
    let owner = node.create_tenant_on(DeviceId(0), "owner");
    let peer = node.create_tenant_on(DeviceId(0), "peer");
    let attacker = node.create_tenant_on(DeviceId(0), "attacker");

    // The channel: owner fills a 2 MB span and shares it read-only; the
    // peer retrieves it in place (same device: zero copy).
    let span = node.guest(owner).alloc_dma(PAGE_2M);
    let fill: Vec<u8> = (0..4096u32).map(|i| i.wrapping_mul(0x9E37_79B9) as u8).collect();
    node.guest(owner).write_mem(span, &fill);
    let handle = node.guest(owner).mem_share(span, PAGE_2M, "peer", false).expect("share");
    let retr = node.retrieve_shared(handle, peer).expect("retrieve");
    let hpa = node.guest(owner).gva_to_hpa(span).expect("span mapped").raw();

    let owner_region = start_wild_job(&mut node, owner, 90, 5, WildAim::None, false);
    let peer_region = start_wild_job(&mut node, peer, 110, 6, WildAim::None, false);
    if target == ProbeTarget::RelinquishedHandle {
        node.relinquish_shared(handle, peer).expect("relinquish");
    }
    let aim = match target {
        ProbeTarget::NeighbourPage => WildAim::At { base: peer_region.raw() - stride, every },
        ProbeTarget::MitigationGap => WildAim::Gap { every },
        ProbeTarget::VcuPage => WildAim::None,
        ProbeTarget::LiveHandle | ProbeTarget::RelinquishedHandle => {
            WildAim::At { base: retr.raw() - stride, every }
        }
    };
    start_wild_job(&mut node, attacker, ops, 33, aim, false);
    if target == ProbeTarget::VcuPage {
        // DMA cannot address MMIO space; the VCU probe is a wild MMIO
        // offset that would rebase exactly onto the VCU page if the trap
        // forwarded it instead of master-aborting.
        let vcu_off = VCU_BASE.wrapping_sub(accel_mmio_base(2));
        let mut g = node.guest(attacker);
        g.mmio_write(vcu_off, 0xdead_beef);
        prop_assert_eq!(g.mmio_read(vcu_off), 0, "VCU probe read host data");
    }
    for &h in &[owner, peer, attacker] {
        prop_assert!(node.run_until_done(h, 400_000_000), "job did not complete");
    }

    // Containment observables.
    let wild = if matches!(aim, WildAim::None) { 0 } else { ops / every };
    prop_assert_eq!(reg(&mut node, attacker, WildKernel::REG_WILD_ISSUED), wild);
    prop_assert_eq!(reg(&mut node, attacker, WildKernel::REG_WILD_DONE), wild);
    prop_assert_eq!(reg(&mut node, attacker, WildKernel::REG_WILD_LEAKED), 0, "probe leaked");
    for &h in &[owner, peer, attacker] {
        prop_assert_eq!(reg(&mut node, h, WildKernel::REG_LEGIT_ABORTED), 0);
    }
    let stats = node.stats();
    prop_assert!(stats.discarded_dma >= wild, "probes not discarded: {}", stats.discarded_dma);
    if target == ProbeTarget::VcuPage {
        prop_assert!(stats.discarded_mmio >= 2, "VCU pokes not discarded");
    }
    // The shared span is untouched, and a live channel still reads through.
    let mut got = vec![0u8; fill.len()];
    node.guest(owner).read_mem(span, &mut got);
    prop_assert_eq!(&got, &fill, "shared span corrupted by wild traffic");
    if target == ProbeTarget::LiveHandle {
        node.guest(peer).read_mem(retr, &mut got);
        prop_assert_eq!(&got, &fill, "peer's retrieved view corrupted");
    }
    let _ = owner_region;
    prop_assert_eq!(
        spec::violation_count(),
        0,
        "simulator performed an access the model forbids: {:?}",
        spec::violations()
    );

    // The model carries the channel's provenance: a hypothetical touch of
    // the span by a foreign VM names the handle and how it stands.
    if matches!(target, ProbeTarget::LiveHandle | ProbeTarget::RelinquishedHandle) {
        spec::check_cpu(0, hpa, 64, 0xBEEF, false);
        prop_assert_eq!(spec::violation_count(), 1, "foreign touch not flagged");
        let v = &spec::violations()[0];
        prop_assert_eq!(v.kind, "cpu_cross_tenant");
        let want = if target == ProbeTarget::LiveHandle {
            "live handle"
        } else {
            "relinquished handle"
        };
        prop_assert!(
            v.detail.contains(want),
            "violation lacks ownership history ({want}): {}",
            v.detail
        );
    }
    spec::set_enabled(false);
    Ok(())
}

/// Satellite: WildDma probe targets drawn from `optimus-testkit`
/// generators — mapped neighbour pages, the VCU page, live and
/// relinquished share handles — every generated plan contained, with the
/// runner's seed-replay and shrinking machinery behind it.
#[test]
fn generated_probe_plans_are_contained() {
    let mut cfg = runner::Config::from_env();
    // Each case boots a node and runs three jobs; clamp the default case
    // count (OPTIMUS_PROP_CASES still raises it explicitly).
    cfg.cases = cfg.cases.min(10);
    let targets = gens::choose(vec![
        ProbeTarget::NeighbourPage,
        ProbeTarget::MitigationGap,
        ProbeTarget::VcuPage,
        ProbeTarget::LiveHandle,
        ProbeTarget::RelinquishedHandle,
    ]);
    let gen = gens::zip3(targets, gens::u64_in(1..5), gens::u64_in(60..240));
    runner::check_with(&cfg, "shared_channel_probes_contained", &gen, |plan| {
        shared_channel_probe_is_contained(plan)
    });
    // The five targets are not left to chance: pin one plan per target so
    // a sparse draw cannot skip the handle cases.
    for target in [
        ProbeTarget::NeighbourPage,
        ProbeTarget::MitigationGap,
        ProbeTarget::VcuPage,
        ProbeTarget::LiveHandle,
        ProbeTarget::RelinquishedHandle,
    ] {
        shared_channel_probe_is_contained(&(target, 2, 120)).expect("pinned plan contained");
    }
}

// ---- Shrinking to a minimal violating history ------------------------------

/// One step of a model-level channel history (see
/// [`probe_histories_shrink_to_the_minimal_violating_pair`]).
#[derive(Clone, Copy, Debug, PartialEq)]
enum ChanOp {
    /// The owner reads its own span: always clean.
    Legit,
    /// The peer's slot touches the retrieved span: clean while the
    /// entitlement is live, a violation once it has ended.
    Probe,
    /// The peer relinquishes the handle.
    Relinquish,
    /// The owner reclaims the handle.
    Reclaim,
}

/// Replays a generated history against a fresh spec model: owner vm 1 owns
/// a frame, peer vm 2 holds handle 0x51 over it, then the ops run in
/// order. Fails iff the model records a violation.
fn replay_channel_history(hist: &[ChanOp]) -> runner::PropResult {
    spec::set_enabled(true);
    spec::reset();
    const HANDLE: u64 = 0x51;
    spec::map_page(0, 0x10_0000, 0x20_0000, 0x20_0000, true, 1);
    spec::retrieve_page(0, 0x80_0000, 0x20_0000, 0x20_0000, false, 2, Some(1), HANDLE);
    spec::bind_slot(0, 0, 1);
    spec::bind_slot(0, 1, 2);
    let mut live = true;
    for op in hist {
        match op {
            ChanOp::Legit => spec::check_dma(0, 0, 0x10_0040, 0x20_0040, false),
            ChanOp::Probe => spec::check_dma(0, 1, 0x80_0040, 0x20_0040, false),
            ChanOp::Relinquish if live => {
                spec::relinquish_page(0, 0x80_0000, 0x20_0000, 2, HANDLE, "relinquished");
                live = false;
            }
            ChanOp::Reclaim if live => {
                spec::relinquish_page(0, 0x80_0000, 0x20_0000, 2, HANDLE, "reclaimed");
                live = false;
            }
            _ => {}
        }
    }
    let count = spec::violation_count();
    let violations = spec::violations();
    spec::set_enabled(false);
    if count > 0 {
        Err(format!("{count} violation(s): {violations:?}"))
    } else {
        Ok(())
    }
}

/// Satellite: the testkit shrinks a falsified channel history to the
/// minimal violating one. Histories that keep the entitlement live pass;
/// any history ending the entitlement before a probe is falsified, and
/// greedy shrinking must land on exactly `[Relinquish, Probe]` — with the
/// violation naming the relinquished handle.
#[test]
fn probe_histories_shrink_to_the_minimal_violating_pair() {
    // Live histories (no Relinquish/Reclaim before a Probe) are clean.
    for hist in [
        &[][..],
        &[ChanOp::Legit, ChanOp::Probe, ChanOp::Probe][..],
        &[ChanOp::Probe, ChanOp::Relinquish, ChanOp::Legit][..],
    ] {
        replay_channel_history(hist).expect("live history must be clean");
    }
    let gen = gens::vec_of(
        gens::choose(vec![ChanOp::Legit, ChanOp::Probe, ChanOp::Relinquish, ChanOp::Reclaim]),
        0..10,
    );
    let cfg = runner::Config::default();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runner::check_with(&cfg, "channel_history_stays_clean", &gen, |hist| {
            replay_channel_history(hist)
        });
    }));
    let msg = *result
        .expect_err("the generated histories must include a violating one")
        .downcast::<String>()
        .expect("runner panics with a String");
    assert!(
        msg.contains("[Relinquish, Probe]"),
        "shrinking did not reach the minimal violating history:\n{msg}"
    );
    assert!(
        msg.contains("dma_unmapped") && msg.contains("relinquished handle 0x51 -> vm 2"),
        "minimal counterexample lacks the ownership history:\n{msg}"
    );
    // catch_unwind crossed a panic while the plane was on; restore.
    spec::set_enabled(false);
    spec::reset();
}

// ---- Share lifecycle refinement cleanliness --------------------------------

/// The full shared-memory channel lifecycle — same-device zero-copy
/// retrieve, cross-device mirror retrieve with both sync directions, an
/// owner migration with the handle live, relinquish and reclaim — records
/// zero refinement violations: every copy, every mapping install and
/// teardown matches the entitlement model.
#[test]
fn share_lifecycle_and_migration_record_zero_violations() {
    spec::set_enabled(true);
    spec::reset();
    let mut cfg = NodeConfig::new(vec![AccelKind::Wild; 2], 3);
    cfg.seed = 23;
    cfg.time_slice = 6_000;
    cfg.threads = Some(1);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let owner = node.create_tenant_on(DeviceId(0), "owner");
    let local = node.create_tenant_on(DeviceId(0), "local");
    let remote = node.create_tenant_on(DeviceId(1), "remote");

    // Same-device, read-only: retrieve in place, read through, relinquish.
    let span1 = node.guest(owner).alloc_dma(PAGE_2M);
    node.guest(owner).write_mem(span1, &[0x5A; 4096]);
    let h1 = node.guest(owner).mem_share(span1, PAGE_2M, "local", false).expect("share");
    let r1 = node.retrieve_shared(h1, local).expect("local retrieve");
    let mut buf = vec![0u8; 4096];
    node.guest(local).read_mem(r1, &mut buf);
    assert_eq!(buf, vec![0x5A; 4096]);
    node.relinquish_shared(h1, local).expect("relinquish");

    // Cross-device, writable: the mirror syncs both ways, the owner
    // migrates with the handle live, and the owner finally reclaims.
    let span2 = node.guest(owner).alloc_dma(PAGE_2M);
    node.guest(owner).write_mem(span2, &[0x11; 4096]);
    let h2 = node.guest(owner).mem_share(span2, PAGE_2M, "remote", true).expect("share rw");
    let r2 = node.retrieve_shared(h2, remote).expect("cross retrieve");
    node.guest(remote).read_mem(r2, &mut buf);
    assert_eq!(buf, vec![0x11; 4096], "retrieve did not seed the mirror");
    node.guest(remote).write_mem(r2, &[0x22; 4096]);
    node.run(20_000);
    let owner = node.migrate(owner, DeviceId(2)).expect("owner migrates");
    node.guest(owner).read_mem(span2, &mut buf);
    assert_eq!(buf, vec![0x22; 4096], "mirror write lost across migration");
    node.guest(remote).write_mem(r2, &[0x33; 64]);
    node.run(20_000);
    node.reclaim_shared(h2, owner).expect("reclaim");
    node.guest(owner).read_mem(span2, &mut buf);
    assert_eq!(&buf[..64], &[0x33; 64], "reclaim skipped the final push-back");

    assert_eq!(
        spec::violation_count(),
        0,
        "share lifecycle diverged from the model: {:?}",
        spec::violations()
    );
    spec::set_enabled(false);
}

/// Regression (save-refusal bug): a tenant that never supplies a valid
/// state buffer cannot be drained+saved — master-abort retirement would
/// "complete" the save into the void and the next restore would read
/// garbage. The hypervisor must refuse the save, force-reset the slot,
/// raise `SaveRefused`, and keep the well-behaved neighbour unharmed.
#[test]
fn unmapped_state_buffer_refuses_save_and_spares_neighbour() {
    spec::set_enabled(true);
    spec::reset();
    let mut cfg = NodeConfig::new(vec![AccelKind::Mb], 1);
    cfg.seed = 13;
    cfg.time_slice = 4_000;
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let hostile = node.create_tenant_on(DeviceId(0), "no-state-buffer");
    let friendly = node.create_tenant_on(DeviceId(0), "well-behaved");
    {
        // The hostile tenant starts an endless job and never calls
        // set_state_buffer: its save target stays GVA 0, unmapped.
        let mut g = node.guest(hostile);
        let region = g.alloc_dma(1 << 20);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 16);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, u64::MAX);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, 1);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    {
        let mut g = node.guest(friendly);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        let region = g.alloc_dma(1 << 20);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 16);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, 400);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, 2);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    assert!(node.run_until_done(friendly, 400_000_000), "neighbour completes");
    let stats = node.stats();
    assert!(stats.alerts_save_refused >= 1, "no SaveRefused alert raised: {stats:?}");
    assert!(stats.forced_resets >= 1);
    assert!(
        node.alerts().iter().any(|a| a.kind == AlertKind::SaveRefused),
        "alert stream missing SaveRefused: {:?}",
        node.alerts()
    );
    assert_eq!(
        spec::violation_count(),
        0,
        "refused save leaked an access the model forbids: {:?}",
        spec::violations()
    );
    spec::set_enabled(false);
}
