//! The four recording planes agree on every hypervisor control event.
//!
//! One seeded scenario reaches every kind of control event: two tenants
//! time-sharing a slot (preempt, save, restore, slice boundaries), a
//! tenant without a state buffer (refused saves), a mid-flight migration,
//! a same-device and a cross-device share link, a resident restart, a
//! master-aborted MMIO, a live-update, and — on a second hypervisor with
//! an impossible drain budget — preemption overruns. For each event
//! class the `HvStats` counter, the metrics plane, the journal and the
//! trace must count it the same number of times, and each flow arrow's
//! start and finish events must alternate in the exported trace.

use optimus::hypervisor::{HvStats, Optimus, OptimusConfig};
use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::{accel_reg, ACCEL_PAGE};
use optimus_fabric::platform::DeviceId;
use optimus_sim::journal::{self, Phase};
use optimus_sim::metrics::{self, Metric};
use optimus_sim::trace;
use std::collections::BTreeMap;

/// Programs a MemBench job of `ops` operations and starts it; with
/// `state`, the tenant first gets a preemption state buffer.
fn start_mb(g: &mut optimus::hypervisor::GuestCtx<'_>, ops: u64, seed: u64, state: bool) {
    if state {
        let buf = g.alloc_dma(1 << 21);
        g.set_state_buffer(buf);
    }
    let region = g.alloc_dma(1 << 20);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 20);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, ops);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, seed);
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
}

/// The node scenario; returns its summed `HvStats`.
fn node_scenario() -> HvStats {
    let mut cfg = NodeConfig::new(vec![AccelKind::Mb, AccelKind::Mb], 2);
    cfg.threads = Some(1);
    cfg.time_slice = 8_000;
    cfg.seed = 7;
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let on = |node: &mut OptimusNode, d: u32, name: &str| node.create_tenant_on(DeviceId(d), name);
    // Device 0: `a` and `c` time-share slot 0; `b` (no state buffer)
    // and `d` time-share slot 1, so every preemption of `b` is refused.
    let a = on(&mut node, 0, "a");
    let b = on(&mut node, 0, "b");
    let c = on(&mut node, 0, "c");
    let d = on(&mut node, 0, "d");
    // Device 1: `e` alone on slot 0, `f` alone on slot 1 until `d`
    // arrives.
    let e = on(&mut node, 1, "e");
    let f = on(&mut node, 1, "f");
    for (i, (h, ops, state)) in
        [(a, 12_000, true), (b, 6_000, false), (c, 12_000, true), (d, 16_000, true), (f, 12_000, true)]
            .into_iter()
            .enumerate()
    {
        start_mb(&mut node.guest(h), ops, i as u64 + 1, state);
    }
    // A master-aborted MMIO past the BAR page.
    node.guest(a).mmio_write(ACCEL_PAGE + accel_reg::APP_BASE, 1);
    // `e` completes a short job, then restarts at once, before a slice
    // boundary evicts it.
    start_mb(&mut node.guest(e), 300, 11, true);
    for _ in 0..100_000 {
        if node.vaccel_completed(e) {
            break;
        }
        node.run(100);
    }
    assert!(node.vaccel_completed(e), "e's first job completes");
    start_mb(&mut node.guest(e), 12_000, 12, false);

    // `a` shares one span with `c` (same device) and one with `e`
    // (cross-device); both consumers have a job in flight, so each
    // retrieve links the consumer's job to `a`'s.
    let share = |node: &mut OptimusNode, owner: NodeVaccel, peer: NodeVaccel, name: &str| {
        let span = node.guest(owner).alloc_dma(1 << 21);
        let handle = node.guest(owner).mem_share(span, 1 << 21, name, false).expect("share");
        node.retrieve_shared(handle, peer).expect("retrieve");
    };
    node.run(10_000);
    share(&mut node, a, c, "c");
    share(&mut node, a, e, "e");

    // `d` migrates mid-flight onto `f`'s slot; device 0 live-updates.
    node.run(10_000);
    assert!(!node.vaccel_completed(d), "d finished before its migration");
    let d = node.migrate(d, DeviceId(1)).expect("migration");
    node.live_update(DeviceId(0));
    for h in [a, b, c, d, e, f] {
        assert!(node.run_until_done(h, 200_000_000), "every job completes");
    }
    node.stats()
}

/// Two tenants time-sharing one slot under a 1-cycle drain budget: every
/// preemption overruns and forces a reset.
fn overrun_scenario() -> HvStats {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Mb]);
    cfg.time_slice = 10_000;
    cfg.preempt_timeout = 1;
    let mut hv = Optimus::new(cfg);
    // Its own device tag, so its job ids differ from the node's.
    hv.set_device_id(DeviceId(2));
    for t in 0..2 {
        let vm = hv.create_vm(&format!("o{t}"));
        let va = hv.create_vaccel(vm, 0);
        start_mb(&mut hv.guest(va), 1 << 40, 21 + t, true);
    }
    hv.run(60_000);
    hv.stats()
}

/// One exported trace event: phase, name, flow id.
struct Event {
    ph: String,
    name: String,
    id: Option<u64>,
}

/// Parses the Chrome trace export (one event per line) back into
/// events, in file order.
fn exported_events() -> Vec<Event> {
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &line[at..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '}'])?;
        Some(rest[..end].to_string())
    };
    trace::chrome_trace_json()
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"ph\":") && !l.contains("\"ph\":\"M\""))
        .map(|l| Event {
            ph: field(l, "ph").expect("ph"),
            name: field(l, "name").expect("name"),
            id: field(l, "id").map(|v| v.parse().expect("numeric flow id")),
        })
        .collect()
}

#[test]
fn every_control_event_reaches_every_plane_the_same_number_of_times() {
    trace::set_enabled(true);
    trace::reset();
    // Room for the whole run: the data path floods the default ring.
    trace::set_capacity(1 << 19);
    metrics::set_enabled(true);
    metrics::reset();
    journal::set_enabled(true);
    journal::reset();
    let mut stats = node_scenario();
    stats.accumulate(&overrun_scenario());
    assert_eq!(trace::dropped(), 0, "the trace ring dropped events");
    let events = exported_events();
    let records = journal::export();
    trace::set_enabled(false);
    trace::reset();

    let traced = |ph: &str, name: &str| {
        events.iter().filter(|e| e.ph == ph && e.name == name).count() as u64
    };
    let journaled = |phase: Phase| {
        records.iter().flat_map(|r| &r.phases).filter(|&&(p, _)| p == phase).count() as u64
    };
    let counted = metrics::counter_total;
    let observed = |m: Metric| metrics::hist_total_count(m);

    // Jobs that migrated with their state saved: their arrow ends at the
    // detach and a new one opens at the attach.
    let saved_migrations = records
        .iter()
        .flat_map(|r| {
            let mut saved = false;
            r.phases.iter().filter(move |&&(p, _)| {
                saved = match p {
                    Phase::Saved => true,
                    Phase::Restored | Phase::ForcedReset | Phase::SaveRefused => false,
                    _ => saved,
                };
                p == Phase::Migrated && saved
            })
        })
        .count() as u64;

    // Every class of event happened at least once.
    let alerts = stats.alerts_starvation
        + stats.alerts_iotlb_thrash
        + stats.alerts_preempt_overrun
        + stats.alerts_save_refused;
    for (what, n) in [
        ("traps", stats.traps),
        ("hypercalls", stats.hypercalls),
        ("pinned pages", stats.pinned_pages),
        ("discarded MMIOs", stats.discarded_mmio),
        ("preemptions", stats.preemptions),
        ("saves", journaled(Phase::Saved)),
        ("restores", journaled(Phase::Restored)),
        ("refused saves", stats.alerts_save_refused),
        ("overruns", stats.alerts_preempt_overrun),
        ("slice boundaries", stats.context_switches),
        ("links", journaled(Phase::Linked)),
        ("migrations", journaled(Phase::Migrated)),
        ("migrations of saved jobs", saved_migrations),
        ("completions", journaled(Phase::Complete)),
        ("resident starts", journaled(Phase::Installed) - traced("X", "preempt.install")),
        ("jobs frozen in flight", journaled(Phase::Frozen)),
    ] {
        assert!(n > 0, "the scenario produced no {what}");
    }

    // Each row: an event class and what each plane counted for it.
    let mut mismatches = Vec::new();
    let mut agree = |class: &str, counts: &[(&str, u64)]| {
        if counts.iter().any(|&(_, n)| n != counts[0].1) {
            mismatches.push(format!("{class}: {counts:?}"));
        }
    };
    agree("trap", &[
        ("stats", stats.traps),
        ("metric", counted(metrics::HV_MMIO_TRAPS)),
        ("metric cycles", observed(metrics::HV_MMIO_TRAP_CYCLES)),
        ("trace", traced("X", "mmio_trap")),
    ]);
    agree("hypercall", &[
        ("stats", stats.hypercalls),
        ("metric", counted(metrics::HV_HYPERCALLS)),
        ("trace", traced("X", "hypercall")),
    ]);
    agree("install", &[
        ("metric", counted(metrics::HV_INSTALLS)),
        ("metric cycles", observed(metrics::HV_INSTALL_CYCLES)),
        ("trace", traced("X", "preempt.install") + traced("X", "preempt.restore")),
    ]);
    agree("restore", &[
        ("journal", journaled(Phase::Restored)),
        ("trace", traced("X", "preempt.restore")),
    ]);
    agree("preemption", &[
        ("stats", stats.preemptions),
        ("metric", counted(metrics::HV_PREEMPTIONS)),
        ("metric cycles", observed(metrics::HV_PREEMPT_CYCLES)),
        ("journal", journaled(Phase::Preempted)),
        ("journal ends", journaled(Phase::Saved) + journaled(Phase::ForcedReset)),
        ("trace begins", traced("B", "preempt")),
        ("trace ends", traced("E", "preempt")),
    ]);
    agree("forced reset", &[
        ("stats", stats.forced_resets),
        ("metric", counted(metrics::HV_FORCED_RESETS)),
        ("journal", journaled(Phase::ForcedReset) + journaled(Phase::SaveRefused)),
        ("trace", traced("i", "preempt.forced_reset") + traced("i", "preempt.save_refused")),
    ]);
    agree("refused save", &[
        ("stats alerts", stats.alerts_save_refused),
        ("journal", journaled(Phase::SaveRefused)),
        ("trace", traced("i", "preempt.save_refused")),
    ]);
    agree("overrun", &[
        ("stats alerts", stats.alerts_preempt_overrun),
        ("journal", journaled(Phase::ForcedReset)),
        ("trace", traced("i", "preempt.forced_reset")),
    ]);
    agree("slice boundary", &[
        ("stats", stats.context_switches),
        ("metric", counted(metrics::HV_CONTEXT_SWITCHES)),
        ("metric overrun", observed(metrics::HV_SLICE_OVERRUN_CYCLES)),
        ("trace", traced("i", "slice_boundary")),
    ]);
    agree("alert", &[
        ("stats", alerts),
        ("metric", counted(metrics::HV_ISOLATION_ALERTS)),
        ("trace", traced("i", "isolation_alert")),
    ]);
    agree("link", &[
        ("journal", journaled(Phase::Linked)),
        ("trace", traced("i", "job.linked")),
        ("scenario", 2),
    ]);
    agree("migration", &[
        ("metric", counted(metrics::NODE_MIGRATIONS)),
        ("journal", journaled(Phase::Migrated)),
        ("trace detaches", traced("i", "migrate.detach")),
        ("trace attaches", traced("i", "migrate.attach")),
        ("scenario", 1),
    ]);
    agree("live-update", &[
        ("trace freezes", traced("i", "live_update.freeze")),
        ("trace thaws", traced("i", "live_update.thaw")),
        ("scenario", 1),
    ]);
    agree("live-update phases", &[
        ("journal frozen", journaled(Phase::Frozen)),
        ("journal thawed", journaled(Phase::Thawed)),
    ]);
    agree("flow arrow", &[
        ("journal saves", journaled(Phase::Saved) + saved_migrations),
        ("journal restores", journaled(Phase::Restored) + saved_migrations),
        ("trace starts", traced("s", "job")),
        ("trace finishes", traced("f", "job")),
    ]);
    agree("submit", &[
        ("journal", journaled(Phase::Submit)),
        ("records", records.len() as u64),
    ]);

    // Flow arrows: per id, `s` and `f` alternate in file (cycle) order,
    // starting with `s`.
    let mut open: BTreeMap<u64, bool> = BTreeMap::new();
    for e in events.iter().filter(|e| e.ph == "s" || e.ph == "f") {
        let id = e.id.expect("a flow event carries an id");
        let was_open = open.insert(id, e.ph == "s").unwrap_or(false);
        if was_open == (e.ph == "s") {
            mismatches.push(format!("flow {id:#x}: `{}` while {}", e.ph, if was_open { "open" } else { "closed" }));
        }
    }
    if open.is_empty() {
        mismatches.push("no flow arrows were drawn".into());
    }
    metrics::reset();
    journal::reset();
    assert!(mismatches.is_empty(), "the planes disagree:\n{}", mismatches.join("\n"));
}
