//! Fig. 5: LinkedList average memory-access latency vs total working set
//! and concurrent jobs, with 2 MB and 4 KB pages, on UPI and PCIe.
//!
//! The paper's shape: flat until the aggregate working set exceeds the
//! IOTLB reach (1 GB with 2 MB pages, 2 MB with 4 KB pages), a mild bump
//! at 2 GB, and a steep climb at 4–8 GB that worsens with job count
//! (queuing at the page-table walkers).

use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{Spec, Work};
use optimus_bench::report;
use optimus_bench::runner::{run_spatial, SpatialExp};
use optimus_bench::scale;
use optimus_cci::channel::SelectorPolicy;
use optimus_mem::addr::PageSize;

fn sweep(
    rep: &mut report::Report,
    page: PageSize,
    policy: SelectorPolicy,
    sizes: &[(&str, u64)],
    jobs_list: &[usize],
) {
    let window = scale::window_cycles();
    let mut rows = Vec::new();
    for &(label, total_ws) in sizes {
        let mut row = vec![label.to_string()];
        for &jobs in jobs_list {
            let params = Spec {
                working_set: total_ws / jobs as u64,
                work: Work::Window(window),
                page,
                ..Spec::default()
            };
            let mut exp = SpatialExp::homogeneous(AccelKind::Ll, jobs);
            exp.policy = policy;
            exp.params = params;
            exp.window = window;
            let results = run_spatial(&exp);
            let mean: f64 =
                results.iter().map(|r| r.mean_latency_ns).sum::<f64>() / results.len() as f64;
            row.push(report::f(mean, 0));
        }
        rows.push(row);
    }
    let title = format!(
        "Fig 5 — LinkedList mean latency (ns), {:?} pages, {:?} channel",
        page, policy
    );
    let mut headers = vec!["total WS"];
    let labels: Vec<String> = jobs_list.iter().map(|j| format!("{j} job(s)")).collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    rep.table(&title, &headers, &rows);
}

fn main() {
    let mut rep = report::Report::new("fig5_latency");
    if scale::fig5_quick() {
        // One representative point (OPTIMUS_FIG5_QUICK, CI trace smoke):
        // two jobs over 4 GB with 2 MB pages on UPI exceeds the IOTLB
        // reach, so the trace carries misses, walks, and arbitration.
        sweep(
            &mut rep,
            PageSize::Huge,
            SelectorPolicy::UpiOnly,
            &[("4G", 4u64 << 30)],
            &[2],
        );
        rep.note("\nquick mode: single sweep point (OPTIMUS_FIG5_QUICK).");
        rep.finish().expect("write bench report");
        return;
    }
    let huge_sizes: &[(&str, u64)] = &[
        ("16M", 16 << 20), ("64M", 64 << 20), ("256M", 256 << 20),
        ("1G", 1 << 30), ("2G", 2 << 30), ("4G", 4u64 << 30), ("8G", 8u64 << 30),
    ];
    let jobs = [1usize, 2, 4, 8];
    sweep(&mut rep, PageSize::Huge, SelectorPolicy::UpiOnly, huge_sizes, &jobs);
    sweep(&mut rep, PageSize::Huge, SelectorPolicy::PcieOnly, huge_sizes, &jobs);
    let small_sizes: &[(&str, u64)] = &[
        ("128K", 128 << 10), ("512K", 512 << 10), ("1M", 1 << 20),
        ("2M", 2 << 20), ("4M", 4 << 20), ("16M", 16 << 20),
    ];
    sweep(&mut rep, PageSize::Small, SelectorPolicy::UpiOnly, small_sizes, &jobs);
    rep.note("\npaper shape: flat below the IOTLB reach (1 GB @2M, 2 MB @4K);");
    rep.note("slight rise at 2 GB; steep, job-count-sensitive climb at 4–8 GB.");
    rep.finish().expect("write bench report");
}
