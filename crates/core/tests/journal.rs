//! Job-lifecycle journal integration tests. (Invisibility — bit-identical
//! fingerprints with the journal on and off — is one row of
//! `prop.rs::recording_planes_are_invisible_to_the_simulation`.)
//!
//! 1. **Merge determinism** — worker-thread journal chunks drain and
//!    absorb in device-index order, so parallel and serial node stepping
//!    export identical records, phases in identical causal order.
//! 2. **Durability** — migration and hypervisor live-update carry
//!    in-flight journal state: the job id survives both, the record
//!    gains `migrated`/`frozen`/`thawed` phases, and the per-device
//!    job-id counter keeps minting monotonically after a live-update.

use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_sim::journal;
use optimus_sim::time::ms_to_cycles;

fn node(devices: usize, threads: usize) -> OptimusNode {
    let mut cfg = NodeConfig::new(vec![AccelKind::Mb, AccelKind::Mb], devices);
    cfg.threads = Some(threads);
    cfg.time_slice = 8_000;
    OptimusNode::new(cfg).expect("node boots")
}

fn start_job(node: &mut OptimusNode, h: NodeVaccel, ops: u64, seed: u64) {
    let mut g = node.guest(h);
    let state = g.alloc_dma(1 << 21);
    g.set_state_buffer(state);
    let region = g.alloc_dma(1 << 20);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 20);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, ops);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, seed);
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
}

/// Runs the same eight-tenant, four-device workload and exports the
/// merged journal.
fn journal_export_with_threads(threads: usize) -> Vec<journal::JobRecord> {
    journal::set_enabled(true);
    journal::reset();
    let mut node = node(4, threads);
    let tenants: Vec<NodeVaccel> =
        (0..8).map(|i| node.create_tenant(&format!("t{i}"))).collect();
    for (i, &h) in tenants.iter().enumerate() {
        start_job(&mut node, h, 3_000 + 700 * i as u64, i as u64 + 1);
    }
    // One whole span first (workers journal into their own chunks),
    // then drive every job home.
    node.run(ms_to_cycles(0.5));
    for &h in &tenants {
        assert!(node.run_until_done(h, 500_000_000), "job completes");
    }
    journal::export()
}

#[test]
fn parallel_and_serial_journal_merge_identically() {
    let serial = journal_export_with_threads(1);
    let parallel = journal_export_with_threads(4);
    assert_eq!(serial.len(), 8, "one record per tenant");
    assert_eq!(
        serial, parallel,
        "thread schedule leaked into the journal merge"
    );
    journal::reset();
}

#[test]
fn migrate_and_live_update_preserve_jobs_and_counters() {
    journal::set_enabled(true);
    journal::reset();
    let mut node = node(2, 1);
    let quick = node.create_tenant_on(DeviceId(0), "quick");
    let mover = node.create_tenant_on(DeviceId(0), "mover");

    // A quick job that completes before any disruption.
    start_job(&mut node, quick, 2_000, 3);
    assert!(node.run_until_done(quick, 500_000_000));
    let first_id = journal::export()
        .iter()
        .find(|r| r.tenant == "quick")
        .expect("quick job journaled")
        .job;

    // A long job carried in flight through a cross-device migration and
    // a live-update of both hypervisors.
    start_job(&mut node, mover, 400_000, 5);
    node.run(ms_to_cycles(0.2));
    assert!(!node.vaccel_completed(mover), "job finished before migration");
    let moved = node.migrate(mover, DeviceId(1)).expect("migration succeeds");
    node.live_update(DeviceId(0));
    node.live_update(DeviceId(1));
    assert!(node.run_until_done(moved, 500_000_000), "migrated job completes");

    // Re-submitting on the quick tenant after the device-0 live-update
    // must mint a *larger* id: the counter survived the snapshot (a
    // reset would re-mint `first_id`).
    start_job(&mut node, quick, 2_000, 9);
    assert!(node.run_until_done(quick, 500_000_000));
    let quick_ids: Vec<u64> = journal::export()
        .iter()
        .filter(|r| r.tenant == "quick")
        .map(|r| r.job)
        .collect();
    assert_eq!(quick_ids.len(), 2, "resubmit minted a fresh job id");
    assert!(quick_ids.contains(&first_id));
    assert!(
        quick_ids.iter().all(|&id| id >= first_id),
        "job-id counter went backwards across the live-update: {quick_ids:?}"
    );

    // The mover's single record carries the whole odyssey, ending in
    // exactly one completion.
    let recs = journal::export();
    let rec = recs.iter().find(|r| r.tenant == "mover").expect("mover journaled");
    let names: Vec<&str> = rec.phases.iter().map(|&(p, _)| p.name()).collect();
    for needed in ["submit", "queued", "migrated", "frozen", "thawed", "complete"] {
        assert!(names.contains(&needed), "missing phase {needed}: {names:?}");
    }
    assert_eq!(names.last(), Some(&"complete"));
    assert_eq!(names.iter().filter(|&&n| n == "complete").count(), 1);

    // The SLO derivation sees one completed episode whose preemption
    // overhead (drain/save + restore around the migration) is nonzero.
    let slo = journal::tenant_summaries();
    let t = slo.iter().find(|t| t.tenant == "mover").expect("mover summarized");
    assert_eq!((t.submitted, t.completed, t.in_flight), (1, 1, 0));
    assert!(t.preempt.max > 0, "migration left no preemption overhead");
    journal::reset();
}
