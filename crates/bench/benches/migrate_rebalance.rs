//! Watchdog-driven rebalancing: fairness recovery via live migration.
//!
//! Packs the Table 3 adversarial mix — one latency-bound LinkedList
//! pointer chaser and seven MemBench bandwidth hogs — onto device 0 of
//! a two-device node and leaves device 1 idle. The chaser's serial
//! dependency caps its request rate far below its fair share of the mux
//! tree, so the starvation watchdog flags its slot. One
//! [`OptimusNode::rebalance`] call then consumes the alerts and live-
//! migrates the starved tenant (Fig. 8 preempt → IOPT replay → resume)
//! onto the idle device, and a second measurement window shows the
//! fairness recovery: the victim's throughput rises and the Jain index
//! across all eight tenants improves.
//!
//! `BENCH_migrate_rebalance.json` must stay byte-identical between
//! `OPTIMUS_NODE_THREADS=1` and parallel runs — ci.sh stage 6 asserts
//! exactly that.

use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{self, Spec};
use optimus_bench::report;
use optimus_bench::scale;
use optimus_fabric::platform::DeviceId;
use optimus_sim::metrics;
use optimus_sim::rng::derive_seed;
use optimus_sim::time::gbps;

const HOGS: usize = 7;

/// Measured window: per-tenant DMA bytes, victim first.
fn measure(node: &mut OptimusNode, victim: NodeVaccel, window: u64) -> Vec<u64> {
    node.open_windows();
    node.run(window);
    node.close_windows();
    // The LinkedList victim is the only tenant on its device's slot 0;
    // the hogs stay on device 0 slots 1..8 throughout.
    let mut bytes =
        vec![node.device(victim.device).device().port(0).window_bytes()];
    for slot in 1..=HOGS {
        bytes.push(node.device(DeviceId(0)).device().port(slot).window_bytes());
    }
    bytes
}

fn main() {
    let window = scale::window_cycles();
    let mut cfg = NodeConfig::new(
        {
            let mut accels = vec![AccelKind::Mb; 1 + HOGS];
            accels[0] = AccelKind::Ll;
            accels
        },
        2,
    );
    // Short slices so the starvation watchdog (window = 4 slices) gets
    // several evaluation windows inside even the CI-shrunk measurement.
    cfg.time_slice = 10_000;
    let mut node = OptimusNode::new(cfg).expect("node boots");

    // All eight tenants land on device 0; device 1 stays idle.
    // The chaser walks a 64-node list; each hog streams over 2 MB.
    let mut victim = node.create_tenant_on(DeviceId(0), "victim");
    for t in 0..=HOGS {
        let (h, job) = match t {
            0 => (victim, catalog::program(AccelKind::Ll, &Spec { working_set: 64 * 64, ..Spec::default() })),
            _ => {
                let h = node.create_tenant_on(DeviceId(0), &format!("hog{}", t - 1));
                let seed = derive_seed(0x9e37, t as u64 - 1);
                let mut hog = catalog::program(AccelKind::Mb, &Spec { working_set: 1 << 21, seed, ..Spec::default() });
                // Read mode is the kernel's reset value: the hogs skip that write.
                hog.regs.retain(|&(reg, _)| reg != MbKernel::REG_MODE);
                (h, hog)
            }
        };
        let mut g = node.guest(h);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        catalog::apply(&job, &mut g);
    }

    node.run(scale::warmup_cycles());
    let before = measure(&mut node, victim, window);
    // The watchdog's own fairness signal: Jain over the hot device's
    // per-slot root-grant shares, last evaluated window.
    let jain_before = metrics::gauge_value(metrics::FABRIC_FAIRNESS_JAIN, 0, 0);
    let alerts_before = node.stats().alerts_starvation;

    // The watchdog flagged the chaser during the window; one policy call
    // migrates it off the hot device.
    let moved = node.rebalance();
    for &(old, new) in &moved {
        if old == victim {
            victim = new;
        }
    }
    let after = measure(&mut node, victim, window);
    let jain_after = metrics::gauge_value(metrics::FABRIC_FAIRNESS_JAIN, 0, 0);
    let alerts_after = node.stats().alerts_starvation;

    let mut rep = report::Report::new("migrate_rebalance");
    let mut rows = Vec::new();
    for (phase, bytes, jain, alerts) in [
        ("before", &before, jain_before, alerts_before),
        ("after", &after, jain_after, alerts_after - alerts_before),
    ] {
        let hog_mean = bytes[1..].iter().sum::<u64>() / HOGS as u64;
        rows.push(vec![
            phase.to_string(),
            report::f(gbps(bytes[0], window), 3),
            report::f(gbps(hog_mean, window), 2),
            report::f(jain, 4),
            alerts.to_string(),
        ]);
    }
    rep.table(
        "Fairness recovery — rebalance() migrates the starved chaser",
        &["phase", "victim GB/s", "mean hog GB/s", "grant Jain (dev0)", "starvation alerts"],
        &rows,
    );
    rep.note(&format!(
        "rebalance migrated {} tenant(s); victim now on {}",
        moved.len(),
        victim.device,
    ));
    rep.note("the chaser's serial reads can't claim a fair grant share against seven hogs;");
    rep.note("once migrated the alerts stop and grant fairness recovers (the mux pair of the");
    rep.note("vacated slot inherits its bandwidth, so Jain lands near — not at — 1).");
    report::integrity_note(&mut rep, "node", &node.stats());
    rep.finish().expect("write bench report");
}
