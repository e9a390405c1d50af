//! Per-figure report sessions.
//!
//! A [`Report`] is what each paper-reproduction bench binary writes: it
//! prints the aligned paper-vs-measured tables, records them with the
//! notes and whatever the recording planes captured, and writes a
//! `BENCH_<name>.json` document on [`finish`](Report::finish). Nothing in
//! it reads a wall clock, so a report is a pure function of the bench's
//! seed and environment: two runs of one configuration write the same
//! bytes. (Simulator speed is measured by the performance ledger,
//! `benchmarks/perf`, not here.)
//!
//! Reports land in `$OPTIMUS_BENCH_DIR`, defaulting to
//! `<workspace>/target/bench-reports`.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Where `BENCH_*.json` reports are written.
pub fn report_dir() -> PathBuf {
    match std::env::var("OPTIMUS_BENCH_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("target/bench-reports"),
    }
}

/// One printed table, kept for the JSON report.
#[derive(Debug, Clone)]
struct TableData {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A figure/table report session: prints as it records, then serializes
/// everything to `BENCH_<name>.json`.
pub struct Report {
    name: String,
    tables: Vec<TableData>,
    notes: Vec<String>,
}

/// Prints a titled table with right-aligned columns (the workspace's
/// uniform report format).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Serializes the thread's metrics plane: one object per non-empty
/// series, in the registry's deterministic order, so two runs of the
/// same workload render byte-identical sections.
fn metrics_json() -> Json {
    use optimus_sim::metrics::{snapshot, SeriesValue};
    Json::Arr(
        snapshot()
            .iter()
            .map(|s| {
                let label_key = if s.def.label.is_empty() { "label" } else { s.def.label };
                let mut fields = vec![
                    ("layer", Json::s(s.def.layer)),
                    ("name", Json::s(s.def.name)),
                    ("device", Json::Num(s.device as f64)),
                    (label_key, Json::Num(s.label as f64)),
                ];
                match &s.value {
                    SeriesValue::Counter(v) => {
                        fields.push(("value", Json::Num(*v as f64)));
                    }
                    SeriesValue::Gauge(v) => {
                        fields.push(("value", Json::Num(*v)));
                    }
                    SeriesValue::Hist(h) => {
                        fields.push(("count", Json::Num(h.count as f64)));
                        fields.push(("sum", Json::Num(h.sum as f64)));
                        fields.push(("min", Json::Num(h.min as f64)));
                        fields.push(("max", Json::Num(h.max as f64)));
                        fields.push((
                            "buckets",
                            Json::Arr(
                                h.buckets
                                    .iter()
                                    .map(|&(le, n)| {
                                        Json::Arr(vec![
                                            Json::Num(le as f64),
                                            Json::Num(n as f64),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ));
                    }
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

/// Serializes one journal latency distribution (cycles).
fn dist_json(d: &optimus_sim::journal::Dist) -> Json {
    Json::obj(vec![
        ("count", Json::Num(d.count as f64)),
        ("p50", Json::Num(d.p50 as f64)),
        ("p95", Json::Num(d.p95 as f64)),
        ("p99", Json::Num(d.p99 as f64)),
        ("mean", Json::Num(d.mean)),
        ("max", Json::Num(d.max as f64)),
    ])
}

/// Serializes the journal's per-tenant SLO accounting: job counts,
/// goodput, and the latency breakdown (queue / install / compute /
/// preempt-overhead / share-stall plus end-to-end) as p50/p95/p99
/// distributions in fabric cycles. Tenants come back in the journal's
/// deterministic (sorted) order.
fn slo_json() -> Json {
    use optimus_sim::journal;
    Json::obj(vec![
        ("jobs", Json::Num(journal::job_count() as f64)),
        (
            "tenants",
            Json::Arr(
                journal::tenant_summaries()
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("tenant", Json::s(&t.tenant)),
                            ("submitted", Json::Num(t.submitted as f64)),
                            ("completed", Json::Num(t.completed as f64)),
                            ("evicted", Json::Num(t.evicted as f64)),
                            ("in_flight", Json::Num(t.in_flight as f64)),
                            ("payload_bytes", Json::Num(t.payload_bytes as f64)),
                            (
                                "goodput_bytes_per_sec",
                                Json::Num(t.goodput_bytes_per_sec),
                            ),
                            ("e2e_cycles", dist_json(&t.e2e)),
                            ("queue_cycles", dist_json(&t.queue)),
                            ("install_cycles", dist_json(&t.install)),
                            ("compute_cycles", dist_json(&t.compute)),
                            ("preempt_cycles", dist_json(&t.preempt)),
                            ("share_stall_cycles", dist_json(&t.share_stall)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl Report {
    /// Creates a report session named after its figure/table.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Prints and records a table.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        print_table(title, headers, rows);
        self.tables.push(TableData {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: rows.to_vec(),
        });
    }

    /// Prints and records a free-form note line.
    pub fn note(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.notes.push(text);
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::s("optimus-testkit/bench-report/v1")),
            ("bench", Json::s(&self.name)),
            (
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("title", Json::s(&t.title)),
                                (
                                    "headers",
                                    Json::Arr(t.headers.iter().map(Json::s).collect()),
                                ),
                                (
                                    "rows",
                                    Json::Arr(
                                        t.rows
                                            .iter()
                                            .map(|r| {
                                                Json::Arr(r.iter().map(Json::s).collect())
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::s).collect()),
            ),
        ];
        if optimus_sim::journal::enabled() {
            fields.push(("slo", slo_json()));
        }
        if optimus_sim::metrics::enabled() {
            fields.push(("metrics", metrics_json()));
        }
        if optimus_sim::trace::enabled() {
            fields.push((
                "trace_events",
                Json::Num(optimus_sim::trace::event_count() as f64),
            ));
            fields.push((
                "trace_dropped",
                Json::Num(optimus_sim::trace::dropped() as f64),
            ));
        }
        Json::obj(fields)
    }

    /// Writes `BENCH_<name>.json` into [`report_dir`]; returns its path.
    /// With metrics enabled, a Prometheus text-format snapshot lands next
    /// to it as `PROM_<name>.prom`; with the journal enabled, the SLO
    /// accounting also lands standalone as `SLO_<name>.json`.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        // Fold the journal's finished episodes into the metrics plane
        // first, so the `metrics` section and the Prometheus snapshot
        // carry the slo/* series alongside everything else.
        optimus_sim::journal::publish_metrics();
        let dir = report_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json().render() + "\n")?;
        if optimus_sim::journal::enabled() {
            let slo_path = dir.join(format!("SLO_{}.json", self.name));
            let doc = Json::obj(vec![
                ("schema", Json::s("optimus-testkit/slo-report/v1")),
                ("bench", Json::s(&self.name)),
                ("slo", slo_json()),
            ]);
            std::fs::write(&slo_path, doc.render() + "\n")?;
            println!("slo: {}", slo_path.display());
        }
        if optimus_sim::metrics::enabled() {
            let prom_path = dir.join(format!("PROM_{}.prom", self.name));
            std::fs::write(&prom_path, optimus_sim::metrics::prometheus_text())?;
            println!("metrics: {}", prom_path.display());
        }
        if optimus_sim::trace::enabled() {
            let trace_path = dir.join(format!("TRACE_{}.json", self.name));
            optimus_sim::trace::write_chrome_trace(&trace_path)?;
            println!(
                "trace: {} ({} events, {} overwritten)",
                trace_path.display(),
                optimus_sim::trace::event_count(),
                optimus_sim::trace::dropped()
            );
        }
        println!("report: {}", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_slo_section() {
        use optimus_sim::journal;
        journal::reset();
        journal::set_enabled(true);
        journal::submit(7, "tenant0", 0, 0, 4096, 100);
        journal::phase(7, journal::Phase::Executing, 200);
        journal::phase(7, journal::Phase::Complete, 500);
        let r = Report::new("unit_slo");
        let doc = r.to_json().render();
        assert!(doc.contains(r#""slo""#));
        assert!(doc.contains(r#""tenant":"tenant0""#));
        assert!(doc.contains(r#""completed":1"#));
        journal::reset();
    }

    #[test]
    fn report_json_round_trips_table_shape() {
        let render = || {
            let mut r = Report::new("unit");
            r.table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
            r.note("hello");
            r.to_json().render()
        };
        let doc = render();
        assert!(doc.contains(r#""bench":"unit""#));
        assert!(doc.contains(r#""headers":["a","b"]"#));
        assert!(doc.contains(r#""rows":[["1","2"]]"#));
        assert!(doc.contains(r#""notes":["hello"]"#));
        // No wall clock: the same session renders the same bytes.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(render(), doc);
    }
}
