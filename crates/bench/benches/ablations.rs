//! Ablations of OPTIMUS design choices.
//!
//! 1. **IOTLB conflict mitigation** (§5): with the 128 MB inter-slice gap
//!    removed, every accelerator's page k collides in the direct-mapped
//!    IOTLB and multi-job MemBench throughput collapses even for working
//!    sets far below the nominal 1 GB reach.
//! 2. **Multiplexer arrangement** (§5/§7.2): wider mux nodes fail 400 MHz
//!    timing; the flat AmorphOS-style mux only closes at lower clocks.
//! 3. **Tree depth vs latency**: each level costs ≈ 33 ns round trip.

use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus::slicing::SlicingConfig;
use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{self, Spec};
use optimus_bench::report;
use optimus_bench::scale;
use optimus_fabric::mux_tree::TreeConfig;
use optimus_fabric::synthesis::{check_timing, node_fmax_mhz};
use optimus_sim::time::gbps;

fn mb_aggregate(mitigation: bool, jobs_count: usize, ws_per_job: u64) -> f64 {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Mb; 8]);
    cfg.slicing = SlicingConfig { iotlb_mitigation: mitigation, ..SlicingConfig::default() };
    let mut hv = Optimus::new(cfg);
    for j in 0..jobs_count {
        let vm = hv.create_vm(&format!("vm{j}"));
        let va = hv.create_vaccel(vm, j);
        let params = Spec { working_set: ws_per_job, seed: j as u64 + 1, ..Spec::default() };
        let mut g = hv.guest(va);
        catalog::apply(&catalog::program(AccelKind::Mb, &params), &mut g);
    }
    hv.run(scale::warmup_cycles());
    hv.device_mut().open_windows();
    let window = scale::window_cycles();
    hv.run(window);
    hv.device_mut().close_windows();
    (0..jobs_count)
        .map(|s| gbps(hv.device().port(s).window_bytes(), window))
        .sum()
}

fn main() {
    let mut rep = report::Report::new("ablations");
    // 1. Conflict mitigation on/off.
    let mut rows = Vec::new();
    for ws_mb in [16u64, 64, 96] {
        let with = mb_aggregate(true, 8, ws_mb << 20);
        let without = mb_aggregate(false, 8, ws_mb << 20);
        rows.push(vec![
            format!("{ws_mb} MB/job"),
            report::f(with, 2),
            report::f(without, 2),
        ]);
    }
    rep.table(
        "Ablation — IOTLB conflict mitigation (8-job MemBench aggregate GB/s)",
        &["WS per job", "with 128MB gap", "without"],
        &rows,
    );

    // 2. Mux arrangements vs 400 MHz timing.
    let mut rows = Vec::new();
    for (name, cfg) in [
        ("binary tree (8)", TreeConfig { leaves: 8, arity: 2 }),
        ("quad tree (8)", TreeConfig { leaves: 8, arity: 4 }),
        ("flat mux (8)", TreeConfig { leaves: 8, arity: 8 }),
    ] {
        let fmax = node_fmax_mhz(cfg.arity.min(cfg.leaves));
        let closes = check_timing(cfg, 400.0).is_ok();
        rows.push(vec![
            name.to_string(),
            cfg.levels().to_string(),
            report::f(fmax, 0),
            if closes { "yes" } else { "NO" }.to_string(),
        ]);
    }
    rep.table(
        "Ablation — multiplexer arrangement vs 400 MHz timing closure",
        &["arrangement", "levels", "node fmax MHz", "closes 400MHz"],
        &rows,
    );
    rep.note("\npaper: only the binary tree closes 400 MHz; AmorphOS-style flat");
    rep.note("muxes are viable only at lower clock rates (§5, §7.2).");
    rep.finish().expect("write bench report");
}
