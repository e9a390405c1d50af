//! Uniform table printing for the experiment reports.
//!
//! The table format (and the JSON report sessions the bench binaries use)
//! lives in [`optimus_testkit::report`]; this module keeps the printing
//! entry point plus the small formatting helpers the binaries share.

pub use optimus_testkit::report::Report;

/// Prints a titled table with aligned columns (no JSON recording; bench
/// binaries use a [`Report`] session instead so the table also lands in
/// `BENCH_*.json`).
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    optimus_testkit::report::print_table(title, headers, rows);
}

/// Formats a float with the given precision.
pub fn f(value: f64, prec: usize) -> String {
    format!("{value:.prec$}")
}

/// Formats a paper-vs-measured pair.
pub fn vs(paper: f64, measured: f64, prec: usize) -> (String, String) {
    (f(paper, prec), f(measured, prec))
}

/// Records the isolation/robustness counters accumulated over a bench
/// run — shell packet drops, per-auditor discards, and watchdog alert
/// totals — so violations are visible in `BENCH_*.json` instead of
/// stranded on the device. The counters are simulation-deterministic, so
/// the note is fingerprint-safe.
pub fn integrity_note(rep: &mut Report, label: &str, stats: &optimus::hypervisor::HvStats) {
    rep.note(&format!(
        "integrity[{label}]: dropped_packets={} discarded_dma={} discarded_mmio={} \
         alerts_starvation={} alerts_iotlb_thrash={} alerts_preempt_overrun={}",
        stats.dropped_packets,
        stats.discarded_dma,
        stats.discarded_mmio,
        stats.alerts_starvation,
        stats.alerts_iotlb_thrash,
        stats.alerts_preempt_overrun,
    ));
}
