//! Table 2: FPGA resource utilization, OPTIMUS (8 instances) vs
//! pass-through (1 instance), regenerated from the synthesis model.

use optimus_accel::registry::AccelKind;
use optimus_bench::report;
use optimus_fabric::mux_tree::TreeConfig;
use optimus_fabric::resources::{monitor_usage, shell_usage};
use optimus_fabric::synthesis::{synthesize_monitored, synthesize_passthrough};

/// The paper's OPTIMUS-column values for comparison (ALM %, BRAM %).
fn paper_optimus(kind: AccelKind) -> (f64, f64) {
    match kind {
        AccelKind::Aes => (27.80, 23.01),
        AccelKind::Md5 => (34.27, 23.01),
        AccelKind::Sha => (18.16, 22.46),
        AccelKind::Fir => (15.77, 22.46),
        AccelKind::Grn => (12.53, 7.98),
        AccelKind::Rsd => (17.93, 22.87),
        AccelKind::Sw => (10.34, 11.67),
        AccelKind::Grs => (9.92, 18.15),
        AccelKind::Gau => (25.28, 21.24),
        AccelKind::Sbl => (18.49, 20.30),
        AccelKind::Sssp => (15.73, 22.47),
        AccelKind::Btc => (8.99, 4.16),
        AccelKind::Mb => (4.84, 0.00),
        AccelKind::Ll => (-0.24, 0.00),
        // Not paper workloads; excluded from `AccelKind::ALL`, so the
        // table loop never reaches them.
        AccelKind::Wild | AccelKind::HcDma => (0.0, 0.0),
    }
}

fn main() {
    let mut rep = report::Report::new("table2_resources");
    let tree = TreeConfig::default_eight();
    let shell = shell_usage();
    let monitor = monitor_usage(tree);
    rep.note(format!("Shell:            ALM {:6.2}% (paper 23.44)   BRAM {:5.2}% (paper 6.57)", shell.alm_pct, shell.bram_pct));
    rep.note(format!("Hardware monitor: ALM {:6.2}% (paper  6.16)   BRAM {:5.2}% (paper 0.48)", monitor.alm_pct, monitor.bram_pct));

    let mut rows = Vec::new();
    for kind in AccelKind::ALL {
        let meta = kind.meta();
        let opt = synthesize_monitored(&meta, 8, tree).expect("binary tree closes timing");
        let pt = synthesize_passthrough(&meta);
        let (paper_alm, paper_bram) = paper_optimus(kind);
        rows.push(vec![
            meta.name.to_string(),
            report::f(opt.accels.alm_pct, 2),
            report::f(paper_alm, 2),
            report::f(pt.accels.alm_pct, 2),
            report::f(opt.accels.bram_pct, 2),
            report::f(paper_bram, 2),
            report::f(pt.accels.bram_pct, 2),
        ]);
    }
    rep.table(
        "Table 2 — accelerator utilization: measured = synthesis model, paper = published",
        &["App", "ALM(8x)", "paperALM", "ALM(PT)", "BRAM(8x)", "paperBRAM", "BRAM(PT)"],
        &rows,
    );
    rep.finish().expect("write bench report");
}
