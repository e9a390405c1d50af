//! Table 3: fairness of spatial multiplexing — normalized throughput range
//! (max − min) / mean across eight homogeneous accelerators.
//!
//! The paper's ranges are 10⁻⁴–10⁻¹ ×10⁻⁴-scale; the key claim is that no
//! accelerator deviates more than ≈ 1 % from its 1/8 share.

use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::Spec;
use optimus_bench::report::Report;
use optimus_bench::runner::{run_spatial, SpatialExp};
use optimus_bench::scale;

fn main() {
    let mut rep = Report::new("table3_fairness");
    let window = scale::window_cycles();
    let mut rows = Vec::new();
    for kind in AccelKind::ALL {
        let mut exp = SpatialExp::homogeneous(kind, 8);
        exp.params = Spec::window(window);
        exp.window = window;
        let results = run_spatial(&exp);
        let progress: Vec<f64> = results.iter().map(|r| r.progress as f64).collect();
        let mean = progress.iter().sum::<f64>() / progress.len() as f64;
        let max = progress.iter().fold(0f64, |a, &b| a.max(b));
        let min = progress.iter().fold(f64::MAX, |a, &b| a.min(b));
        let range = if mean > 0.0 { (max - min) / mean } else { 0.0 };
        rows.push(vec![
            kind.meta().name.to_string(),
            format!("{:.2}", range * 1e4),
        ]);
    }
    rep.table(
        "Table 3 — normalized throughput range among 8 homogeneous accelerators (×10⁻⁴)",
        &["app", "range ×1e-4"],
        &rows,
    );
    rep.note("\npaper: 0.468–595 ×10⁻⁴ (every accelerator within ~1% of its 1/8 share)");
    rep.finish().expect("write bench report");
}
