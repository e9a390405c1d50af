//! Cluster scaling: aggregate throughput as devices are added to an
//! [`OptimusNode`].
//!
//! Sweeps 1 → 4 FPGAs, each carrying the same MemBench mix with two
//! tenants per device. Simulated aggregate throughput should scale
//! linearly with devices (they share nothing).
//!
//! `BENCH_cluster_scale.json` must stay byte-identical between parallel
//! and `OPTIMUS_NODE_THREADS=1` runs — ci.sh stage 5 asserts exactly
//! that. (What parallel stepping buys in host time is the ledger's
//! `core.node.thread_speedup`, `benchmarks/perf`.)

use optimus::hypervisor::HvStats;
use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus_accel::registry::AccelKind;
use optimus_bench::jobs::{self, JobParams};
use optimus_bench::report;
use optimus_bench::scale;
use optimus_fabric::platform::DeviceId;
use optimus_sim::rng::derive_seed;
use optimus_sim::time::gbps;

/// MemBench's DMA ceiling (GB/s), for per-device utilization.
const LINK_GBPS: f64 = 12.8;

const TENANTS_PER_DEVICE: usize = 2;
const SLOTS_PER_DEVICE: usize = 4;

fn run_node(devices: usize, integrity: &mut HvStats) -> Vec<f64> {
    let window = scale::window_cycles();
    let cfg = NodeConfig::new(vec![AccelKind::Mb; SLOTS_PER_DEVICE], devices);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let tenants: Vec<NodeVaccel> = (0..devices * TENANTS_PER_DEVICE)
        .map(|t| node.create_tenant(&format!("tenant{t}")))
        .collect();
    for (t, &h) in tenants.iter().enumerate() {
        let params = JobParams {
            window,
            seed: derive_seed(7, t as u64),
            ..JobParams::default()
        };
        let mut g = node.guest(h);
        jobs::launch(&mut g, AccelKind::Mb, &params);
    }
    node.run(scale::warmup_cycles());
    node.open_windows();
    node.run(window);
    node.close_windows();

    let per_device: Vec<f64> = (0..devices)
        .map(|d| {
            let dev = node.device(DeviceId(d as u32)).device();
            let bytes: u64 = (0..SLOTS_PER_DEVICE).map(|s| dev.port(s).window_bytes()).sum();
            gbps(bytes, window)
        })
        .collect();
    integrity.accumulate(&node.stats());
    per_device
}

fn main() {
    let mut rep = report::Report::new("cluster_scale");
    let mut integrity = HvStats::default();
    let mut rows = Vec::new();
    for devices in [1usize, 2, 4] {
        let per_device = run_node(devices, &mut integrity);
        let agg: f64 = per_device.iter().sum();
        let util =
            per_device.iter().map(|g| g / LINK_GBPS).sum::<f64>() / per_device.len() as f64;
        let per_str = per_device
            .iter()
            .map(|g| report::f(*g, 2))
            .collect::<Vec<_>>()
            .join(" ");
        rows.push(vec![
            devices.to_string(),
            (devices * TENANTS_PER_DEVICE).to_string(),
            report::f(agg, 2),
            per_str,
            report::f(util * 100.0, 1),
        ]);
    }
    rep.table(
        "Cluster scaling — MemBench tenants across 1-4 FPGAs",
        &["devices", "vaccels", "aggregate GB/s", "per-device GB/s", "mean util %"],
        &rows,
    );
    rep.note("aggregate throughput scales with devices (shared-nothing fabric);");
    rep.note("wall-clock sim_rate (volatile) improves with OPTIMUS_NODE_THREADS>1 on multi-core hosts.");
    report::integrity_note(&mut rep, "cluster", &integrity);
    rep.finish().expect("write bench report");
}
