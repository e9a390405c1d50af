//! Fig. 7: aggregate throughput of the twelve real-world applications as
//! the number of concurrent jobs grows, normalized to one job.
//!
//! The paper's headline: 1.98×–7× aggregate improvement at 8 jobs; GAU,
//! GRS, SBL, and SSSP stop scaling around 4 jobs because the interconnect
//! saturates; MD5 tops out at ~2× (it alone consumes half the bandwidth).

use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::Spec;
use optimus_bench::report;
use optimus_bench::runner::{run_spatial, SpatialExp};
use optimus_bench::scale;

fn main() {
    let mut rep = report::Report::new("fig7_realworld");
    let window = scale::window_cycles();
    let jobs_list = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut eight_job_ratios = Vec::new();
    for kind in AccelKind::REAL_WORLD {
        let mut base = 0f64;
        let mut row = vec![kind.meta().name.to_string()];
        for &jobs in &jobs_list {
            let mut exp = SpatialExp::homogeneous(kind, jobs);
            exp.params = Spec::window(window);
            exp.window = window;
            let results = run_spatial(&exp);
            let agg: f64 = results.iter().map(|r| r.progress as f64).sum();
            if jobs == 1 {
                base = agg.max(1.0);
            }
            let norm = agg / base;
            if jobs == 8 {
                eight_job_ratios.push((kind.meta().name, norm));
            }
            row.push(report::f(norm, 2));
        }
        rows.push(row);
    }
    rep.table(
        "Fig 7 — aggregate throughput normalized to 1 job",
        &["app", "1", "2", "4", "8"],
        &rows,
    );
    let min = eight_job_ratios.iter().map(|&(_, r)| r).fold(f64::MAX, f64::min);
    let max = eight_job_ratios.iter().map(|&(_, r)| r).fold(0.0, f64::max);
    rep.note(format!(
        "\nheadline: measured 8-job aggregate range {min:.2}x–{max:.2}x (paper: 1.98x–7x)"
    ));
    rep.note("paper shape: MD5 ~2x; GAU/GRS/SBL/SSSP saturate near 4; light apps scale ~linearly.");
    rep.finish().expect("write bench report");
}
