//! Fig. 4: virtualization overhead of OPTIMUS vs pass-through.
//!
//! (a) LinkedList mean DMA latency on the pinned UPI and PCIe channels
//!     (paper: 124.2 % and 111.1 % of pass-through);
//! (b) per-benchmark throughput, normalized to pass-through (paper: 90.1 %
//!     for MemBench, > 92 % for everything else).

use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{Spec, Work};
use optimus_bench::report;
use optimus_bench::runner::{run_passthrough, run_spatial, SpatialExp};
use optimus_bench::scale;
use optimus_cci::channel::SelectorPolicy;

fn main() {
    let mut rep = report::Report::new("fig4_overhead");
    let window = scale::window_cycles();
    // (a) LinkedList latency, one job, 64 MB working set (inside IOTLB reach).
    let mut rows = Vec::new();
    for (name, policy, paper_pct) in [
        ("UPI", SelectorPolicy::UpiOnly, 124.2),
        ("PCIe", SelectorPolicy::PcieOnly, 111.1),
    ] {
        let params = Spec {
            working_set: 64 << 20,
            work: Work::Window(window),
            ..Spec::default()
        };
        let mut exp = SpatialExp::homogeneous(AccelKind::Ll, 1);
        exp.policy = policy;
        exp.params = params;
        exp.window = window;
        let opt = run_spatial(&exp).remove(0);
        let pt = run_passthrough(AccelKind::Ll, policy, params, window);
        let measured = opt.mean_latency_ns / pt.mean_latency_ns * 100.0;
        rows.push(vec![
            name.to_string(),
            report::f(pt.mean_latency_ns, 0),
            report::f(opt.mean_latency_ns, 0),
            report::f(measured, 1),
            report::f(paper_pct, 1),
        ]);
    }
    rep.table(
        "Fig 4a — LinkedList latency (normalized % of pass-through)",
        &["channel", "PT ns", "OPTIMUS ns", "measured %", "paper %"],
        &rows,
    );

    // (b) Throughput normalized to pass-through.
    let paper: &[(&str, f64)] = &[
        ("MB", 90.1), ("MD5", 99.6), ("SHA", 99.8), ("AES", 99.8), ("GRN", 95.9),
        ("FIR", 99.9), ("SW", 99.9), ("RSD", 99.9), ("GAU", 94.4), ("GRS", 93.9),
        ("SBL", 92.7), ("SSSP", 99.4), ("BTC", 100.0),
    ];
    let mut rows = Vec::new();
    for &(name, paper_pct) in paper {
        let kind = AccelKind::from_name(name).expect("known benchmark");
        let params = Spec::window(window);
        let mut exp = SpatialExp::homogeneous(kind, 1);
        exp.params = params;
        exp.window = window;
        let opt = run_spatial(&exp).remove(0);
        let pt = run_passthrough(kind, SelectorPolicy::Auto, params, window);
        let measured = opt.progress as f64 / pt.progress.max(1) as f64 * 100.0;
        rows.push(vec![
            name.to_string(),
            report::f(measured, 1),
            report::f(paper_pct, 1),
        ]);
    }
    rep.table(
        "Fig 4b — throughput normalized to pass-through (%)",
        &["app", "measured %", "paper %"],
        &rows,
    );
    rep.finish().expect("write bench report");
}
