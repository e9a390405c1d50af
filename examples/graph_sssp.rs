//! Pointer chasing on graphs: the shared-memory accelerator vs the
//! host-centric programming model (the paper's Fig. 1 motivation), on a
//! small graph so the example finishes in seconds.
//!
//! ```bash
//! cargo run --release --example graph_sssp
//! ```

use optimus::hostcentric::{run_sssp, HcMode};
use optimus::hypervisor::{Optimus, OptimusConfig, TrapCost};
use optimus_accel::registry::AccelKind;
use optimus_algo::graph::sssp as sssp_ref;
use optimus_bench::catalog;
use optimus_mem::addr::PageSize;
use optimus_workloads::graphs::random_graph;

fn main() {
    let graph = random_graph(2000, 16_000, 42);
    println!(
        "graph: {} vertices, {} edges",
        graph.vertices(),
        graph.edges()
    );
    let reference = sssp_ref(&graph, 0);

    // Shared-memory: the accelerator chases row offsets → edges → distance
    // words itself, entirely without CPU involvement.
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Sssp]));
    let vm = hv.create_vm("graphs");
    let va = hv.create_vaccel(vm, 0);
    let job = catalog::sssp_program(&graph, PageSize::Huge, true);
    let placed = catalog::apply(&job, &mut hv.guest(va));
    let start = hv.device().now();
    assert!(hv.run_until_done(va, 10_000_000_000));
    let sm_cycles = hv.device().now() - start;

    // Check the distances against the software reference.
    let oracle = catalog::oracle(&job).expect("a bounded job");
    assert_eq!(catalog::check(&oracle, &placed, &mut hv.guest(va)), Ok(()));
    println!("shared-memory distances verified ✓");

    // Host-centric baselines (also verified internally).
    let cfg = run_sssp(&graph, 0, HcMode::Config, TrapCost::Virtualized);
    assert_eq!(cfg.dist, reference);
    let copy = run_sssp(&graph, 0, HcMode::Copy, TrapCost::Virtualized);
    assert_eq!(copy.dist, reference);

    let ms = |c: u64| c as f64 * 2.5e-6;
    println!("\nsimulated processing time (virtualized):");
    println!("  shared-memory      {:8.3} ms", ms(sm_cycles));
    println!("  host-centric+cfg   {:8.3} ms  ({} DMA configurations)", ms(cfg.cycles), cfg.configs);
    println!("  host-centric+copy  {:8.3} ms  ({} bytes marshalled)", ms(copy.cycles), copy.copied_bytes);
}
