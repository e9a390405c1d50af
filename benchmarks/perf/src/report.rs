//! Output: `workload metric value unit` lines for people, one JSON object
//! on the last line for the driver, and `PERF_<workload>.json` on disk.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A JSON number with all the digits `value` has (non-finite reads 0).
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// The driver's result line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics_object(metrics)
    )
}

/// Prints one `workload metric value unit` line.
pub fn line(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload} {name} {} {unit}", num(value));
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Metric {
            name: "setup_s".into(),
            value: 0.8127,
            unit: "s",
        }];
        assert_eq!(
            result_line(1000, 0, &m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(result_line(0, 2, &m).starts_with("{\"correct\": false, \"attempted\": 1,"));
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_finite() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(12.0), "12");
    }
}
