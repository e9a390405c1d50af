//! Fig. 1: SSSP processing time under the shared-memory and host-centric
//! programming models, native and virtualized.
//!
//! The paper runs 800 K-vertex graphs with 3.2 M–51.2 M edges; this
//! harness runs the same sweep at 1/`OPTIMUS_FIG1_SCALE` size (default
//! 1/80). The expected shape: shared-memory fastest; Host-Centric+Config
//! pays a per-segment DMA-engine configuration that balloons under
//! trap-and-emulate; Host-Centric+Copy pays CPU marshalling instead.
//! (Paper: shared memory 17–60 % faster native, 37–85 % faster
//! virtualized.)

use optimus::hostcentric::{run_sssp, HcMode};
use optimus::hypervisor::{Optimus, OptimusConfig, TrapCost};
use optimus_accel::registry::AccelKind;
use optimus_algo::graph::{sssp as sssp_ref, CsrGraph};
use optimus_bench::catalog;
use optimus_bench::report;
use optimus_bench::scale;
use optimus_cci::channel::SelectorPolicy;
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::PageSize;
use optimus_sim::time::Cycle;

/// Shared-memory run: the real SSSP accelerator, pass-through (native) or
/// through the OPTIMUS monitor (virtualized).
fn run_shared_memory(graph: &CsrGraph, virtualized: bool) -> Cycle {
    let mut hv = if virtualized {
        Optimus::new(OptimusConfig::new(vec![AccelKind::Sssp]))
    } else {
        Optimus::new_passthrough(AccelKind::Sssp, SelectorPolicy::Auto, TrapCost::Native)
    };
    let vm = hv.create_vm("sssp");
    let va = hv.create_vaccel(vm, 0);
    let job = catalog::sssp_program(graph, PageSize::Huge, true);
    let placed = {
        let mut g = hv.guest(va);
        let placed = catalog::alloc(&job, &mut g);
        catalog::write_regs(&job, &placed, &mut g);
        placed
    };
    let start = hv.device().now();
    hv.guest(va).mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    assert!(hv.run_until_done(va, 20_000_000_000), "SSSP did not converge");
    let elapsed = hv.device().now() - start;
    // Verify the distances against the software reference.
    let oracle = catalog::oracle(&job).expect("a bounded job");
    let verdict = catalog::check(&oracle, &placed, &mut hv.guest(va));
    assert_eq!(verdict, Ok(()), "accelerator distances wrong");
    elapsed
}

fn main() {
    let mut rep = report::Report::new("fig1_sssp_models");
    let scale_div = scale::fig1_scale();
    let edge_points = [3.2f64, 6.4, 12.8, 25.6, 51.2];
    rep.note(format!(
        "Fig 1 — SSSP processing time (simulated ms) at 1/{scale_div} of the paper's graph size"
    ));
    let mut rows = Vec::new();
    for &edges_m in &edge_points {
        let graph = optimus_workloads::graphs::fig1_graph(edges_m, scale_div, 11);
        let sm_native = run_shared_memory(&graph, false);
        let sm_virt = run_shared_memory(&graph, true);
        let reference = sssp_ref(&graph, 0);
        let host_centric = |mode, trap| {
            let r = run_sssp(&graph, 0, mode, trap);
            assert_eq!(r.dist, reference, "host-centric {mode:?} distances wrong");
            r.cycles
        };
        let hc_cfg_native = host_centric(HcMode::Config, TrapCost::Native);
        let hc_cfg_virt = host_centric(HcMode::Config, TrapCost::Virtualized);
        let hc_cp_native = host_centric(HcMode::Copy, TrapCost::Native);
        let hc_cp_virt = host_centric(HcMode::Copy, TrapCost::Virtualized);
        let ms = |c: Cycle| report::f(c as f64 * 2.5e-6, 2);
        rows.push(vec![
            format!("{edges_m}M/{scale_div}"),
            ms(sm_native),
            ms(hc_cfg_native),
            ms(hc_cp_native),
            ms(sm_virt),
            ms(hc_cfg_virt),
            ms(hc_cp_virt),
            report::f(hc_cfg_native as f64 / sm_native as f64, 2),
            report::f(hc_cfg_virt as f64 / sm_virt as f64, 2),
        ]);
    }
    rep.table(
        "Fig 1 — processing time (ms, simulated)",
        &["edges", "SM", "HC+Cfg", "HC+Copy", "SM(V)", "HC+Cfg(V)", "HC+Copy(V)", "cfg/SM", "cfg/SM(V)"],
        &rows,
    );
    rep.note("\npaper shape: SM fastest at every size; the HC gap widens under");
    rep.note("virtualization (trap-and-emulate per DMA configuration).");
    rep.finish().expect("write bench report");
}
