//! Fig. 6: MemBench aggregate throughput vs total working set and jobs,
//! random reads and writes, 2 MB vs 4 KB pages.
//!
//! The paper's shape: ~12.8 GB/s plateau that is insensitive to job count,
//! then a collapse once the aggregate working set exceeds the IOTLB reach.
//! The single-job small-working-set *read* case shows anomalously high
//! throughput (the speculative same-region fast path).

use optimus::hypervisor::HvStats;
use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{Spec, Work};
use optimus_bench::report;
use optimus_bench::runner::{run_spatial_with_stats, SpatialExp};
use optimus_bench::scale;
use optimus_mem::addr::PageSize;

fn sweep(
    rep: &mut report::Report,
    integrity: &mut HvStats,
    page: PageSize,
    mode: u64,
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
                mb_mode: mode,
                ..Spec::default()
            };
            let mut exp = SpatialExp::homogeneous(AccelKind::Mb, jobs);
            exp.params = params;
            exp.window = window;
            let (results, stats) = run_spatial_with_stats(&exp);
            integrity.accumulate(&stats);
            let agg: f64 = results.iter().map(|r| r.gbps).sum();
            row.push(report::f(agg, 2));
        }
        rows.push(row);
    }
    let kind = if mode == 0 { "read" } else { "write" };
    let title = format!(
        "Fig 6 — MemBench aggregate {kind} throughput (GB/s), {:?} pages",
        page
    );
    let mut headers = vec!["total WS"];
    let labels: Vec<String> = jobs_list.iter().map(|j| format!("{j} job(s)")).collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    rep.table(&title, &headers, &rows);
}

fn main() {
    let mut rep = report::Report::new("fig6_throughput");
    let mut integrity = HvStats::default();
    let huge_sizes: &[(&str, u64)] = &[
        ("16M", 16 << 20), ("64M", 64 << 20), ("256M", 256 << 20),
        ("1G", 1 << 30), ("2G", 2 << 30), ("4G", 4u64 << 30), ("8G", 8u64 << 30),
    ];
    let jobs = [1usize, 2, 4, 8];
    sweep(&mut rep, &mut integrity, PageSize::Huge, 0, huge_sizes, &jobs);
    sweep(&mut rep, &mut integrity, PageSize::Huge, 1, huge_sizes, &jobs);
    let small_sizes: &[(&str, u64)] = &[
        ("128K", 128 << 10), ("512K", 512 << 10), ("1M", 1 << 20),
        ("2M", 2 << 20), ("4M", 4 << 20), ("16M", 16 << 20),
    ];
    sweep(&mut rep, &mut integrity, PageSize::Small, 0, small_sizes, &jobs);
    rep.note("\npaper shape: ~12.8 GB/s plateau, job-count-insensitive; cliff past");
    rep.note("the IOTLB reach; 1-job small-WS read boosted by region speculation.");
    report::integrity_note(&mut rep, "fig6", &integrity);
    rep.finish().expect("write bench report");
}
