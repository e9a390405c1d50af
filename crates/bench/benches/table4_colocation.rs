//! Table 4: MemBench throughput when co-located with a second active
//! accelerator, normalized to a standalone MemBench.
//!
//! Round-robin at the shared multiplexer node guarantees MemBench at least
//! half its standalone bandwidth; lighter co-tenants leave it more.

use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::Spec;
use optimus_bench::report;
use optimus_bench::runner::{run_spatial, SpatialExp};
use optimus_bench::scale;

fn paper_share(kind: AccelKind) -> f64 {
    match kind {
        AccelKind::Aes => 0.86, AccelKind::Md5 => 0.50, AccelKind::Sha => 0.77,
        AccelKind::Fir => 0.75, AccelKind::Grn => 1.00, AccelKind::Rsd => 0.78,
        AccelKind::Sw => 0.78, AccelKind::Gau => 0.80, AccelKind::Grs => 0.80,
        AccelKind::Sbl => 0.79, AccelKind::Sssp => 0.75, AccelKind::Btc => 1.00,
        AccelKind::Mb => 0.50, AccelKind::Ll => 1.00,
        // Not paper workloads; excluded from `AccelKind::ALL`.
        AccelKind::Wild | AccelKind::HcDma => 1.00,
    }
}

fn main() {
    let mut rep = report::Report::new("table4_colocation");
    let window = scale::window_cycles();
    // Baseline: standalone MemBench on the 8-slot device.
    let mut exp = SpatialExp::homogeneous(AccelKind::Mb, 1);
    exp.params = Spec::window(window);
    exp.window = window;
    let standalone = run_spatial(&exp).remove(0).progress as f64;

    let mut rows = Vec::new();
    for kind in AccelKind::ALL {
        // MemBench at slot 0, the co-tenant at slot 1 (they share the
        // first-level multiplexer node).
        let mut slots = vec![AccelKind::Mb, kind];
        slots.extend(vec![AccelKind::Ll; 6]); // idle fillers
        let exp = SpatialExp {
            slots,
            active_jobs: 2,
            policy: optimus_cci::channel::SelectorPolicy::Auto,
            params: Spec::window(window),
            window,
        };
        let results = run_spatial(&exp);
        let mb = results[0].progress as f64;
        rows.push(vec![
            kind.meta().name.to_string(),
            report::f(mb / standalone, 2),
            report::f(paper_share(kind), 2),
        ]);
    }
    rep.table(
        "Table 4 — MemBench normalized throughput when co-located",
        &["co-tenant", "measured", "paper"],
        &rows,
    );
    rep.finish().expect("write bench report");
}
