//! Criterion-like bench runner and per-figure report sessions.
//!
//! Two layers:
//!
//! * [`Bench`] / [`Bencher`] — wall-clock micro-benchmarking with the
//!   familiar `bench_function(name, |b| b.iter(..))` shape. Samples are
//!   collected into [`LatencyStats`] (in picoseconds, so sub-nanosecond
//!   per-iteration costs keep precision) and the configured number of
//!   warm-up samples is excluded via [`LatencyStats::discard_prefix`]
//!   before statistics are computed.
//! * [`Report`] — a figure/table session used by the paper-reproduction
//!   bench binaries: prints the aligned paper-vs-measured tables exactly as
//!   before, records everything, and writes a `BENCH_<name>.json` document
//!   on [`finish`](Report::finish).
//!
//! Reports land in `$OPTIMUS_BENCH_DIR`, defaulting to
//! `<workspace>/target/bench-reports`.
//!
//! Environment knobs for the micro-runner: `OPTIMUS_TESTKIT_WARMUP`
//! (warm-up samples to discard, default 10), `OPTIMUS_TESTKIT_SAMPLES`
//! (measured samples, default 50), `OPTIMUS_TESTKIT_ITERS` (iterations per
//! sample; default auto-calibrated to ~200 µs per sample).

use crate::json::Json;
use optimus_sim::stats::LatencyStats;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Where `BENCH_*.json` reports are written.
pub fn report_dir() -> PathBuf {
    match std::env::var("OPTIMUS_BENCH_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("target/bench-reports"),
    }
}

/// Micro-runner configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Leading samples discarded as warm-up.
    pub warmup_samples: usize,
    /// Samples kept after warm-up exclusion.
    pub measured_samples: usize,
    /// Iterations per sample; `None` auto-calibrates.
    pub iters_per_sample: Option<u64>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            warmup_samples: env_usize("OPTIMUS_TESTKIT_WARMUP", 10),
            measured_samples: env_usize("OPTIMUS_TESTKIT_SAMPLES", 50),
            iters_per_sample: std::env::var("OPTIMUS_TESTKIT_ITERS")
                .ok()
                .and_then(|v| v.parse().ok()),
        }
    }
}

/// Statistics for one benched function, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct FnStats {
    pub name: String,
    /// Samples that survived warm-up exclusion.
    pub samples: usize,
    /// Samples discarded as warm-up.
    pub warmup_discarded: usize,
    pub iters_per_sample: u64,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub max_ns: f64,
}

impl FnStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::s(&self.name)),
            ("samples", Json::Num(self.samples as f64)),
            ("warmup_discarded", Json::Num(self.warmup_discarded as f64)),
            ("iters_per_sample", Json::Num(self.iters_per_sample as f64)),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("min_ns", Json::Num(self.min_ns)),
            ("p50_ns", Json::Num(self.p50_ns)),
            ("p95_ns", Json::Num(self.p95_ns)),
            ("max_ns", Json::Num(self.max_ns)),
        ])
    }
}

/// Per-iteration timing collector handed to the bench closure.
pub struct Bencher {
    iters: u64,
    /// Picoseconds per iteration, one entry per sample (warm-up included
    /// until [`Bench`] strips it).
    sample_ps: LatencyStats,
    total_samples: usize,
}

impl Bencher {
    /// Runs `f` for one sample batch per configured sample, timing each
    /// batch. Mirrors criterion's `Bencher::iter`.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        for _ in 0..self.total_samples {
            let start = Instant::now();
            for _ in 0..self.iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            let ps = (elapsed.as_nanos() as u64).saturating_mul(1000) / self.iters.max(1);
            self.sample_ps.record(ps);
        }
    }
}

/// The micro-benchmark session: owns a [`Report`] and appends one
/// [`FnStats`] per `bench_function` call.
pub struct Bench {
    report: Report,
    config: BenchConfig,
}

impl Bench {
    /// Creates a session writing `BENCH_<name>.json` on finish.
    pub fn new(name: &str) -> Self {
        Self::with_config(name, BenchConfig::default())
    }

    /// Creates a session with an explicit configuration (self-tests).
    pub fn with_config(name: &str, config: BenchConfig) -> Self {
        Self {
            report: Report::new(name),
            config,
        }
    }

    /// Benchmarks one function; criterion-compatible call shape.
    pub fn bench_function(&mut self, id: &str, mut f: impl FnMut(&mut Bencher)) -> &FnStats {
        // Calibrate with a probe Bencher running a single sample of one
        // iteration, unless the iteration count is pinned.
        let iters = match self.config.iters_per_sample {
            Some(n) => n.max(1),
            None => {
                let mut probe = Bencher {
                    iters: 256,
                    sample_ps: LatencyStats::new(),
                    total_samples: 1,
                };
                f(&mut probe);
                // Scale the probe's per-iteration cost to ~200 µs samples.
                let probe_ns = (probe.sample_ps.max_cycles() / 1000).max(1);
                (200_000 / probe_ns).clamp(1, 1 << 22)
            }
        };
        let total = self.config.warmup_samples + self.config.measured_samples;
        let mut bencher = Bencher {
            iters,
            sample_ps: LatencyStats::new(),
            total_samples: total,
        };
        f(&mut bencher);
        let mut stats = bencher.sample_ps;
        // Warm-up exclusion: drop exactly the configured leading samples.
        stats.discard_prefix(self.config.warmup_samples);
        let ps = |v: u64| v as f64 / 1000.0;
        let fs = FnStats {
            name: id.to_string(),
            samples: stats.count(),
            warmup_discarded: total - stats.count(),
            iters_per_sample: iters,
            mean_ns: stats.mean_cycles() / 1000.0,
            min_ns: ps(stats.min_cycles()),
            p50_ns: ps(stats.percentile_cycles(0.5)),
            p95_ns: ps(stats.percentile_cycles(0.95)),
            max_ns: ps(stats.max_cycles()),
        };
        println!(
            "{:<32} mean {:>12.1} ns   p50 {:>12.1} ns   p95 {:>12.1} ns   ({} samples x {} iters, {} warm-up discarded)",
            fs.name, fs.mean_ns, fs.p50_ns, fs.p95_ns, fs.samples, fs.iters_per_sample, fs.warmup_discarded
        );
        self.report.functions.push(fs);
        self.report.functions.last().unwrap()
    }

    /// Writes the JSON report; returns its path.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        self.report.finish()
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
    functions: Vec<FnStats>,
    /// Labelled `(wall_secs, sim_rate)` sweep points recorded with
    /// [`wall_point`](Report::wall_point). Wall-clock measurements the
    /// bench used to print to stdout only; serialized under the volatile
    /// `wall_points` key so fingerprints can exclude them.
    wall_points: Vec<(String, f64, f64)>,
    /// Session start, for the wall-clock half of `sim_rate`.
    started: Instant,
    /// Global simulated-cycle counter at session start, so concurrent or
    /// sequential reports in one process each attribute only their own
    /// fabric cycles.
    start_cycles: u64,
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
            functions: Vec::new(),
            wall_points: Vec::new(),
            started: Instant::now(),
            start_cycles: optimus_sim::simrate::cycles(),
        }
    }

    /// Simulated fabric cycles attributed to this session so far.
    fn sim_cycles(&self) -> u64 {
        optimus_sim::simrate::cycles().saturating_sub(self.start_cycles)
    }

    /// Simulated fabric cycles per wall-clock second (the sim-rate figure
    /// every report carries; 0 when nothing was simulated).
    fn sim_rate(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles() as f64 / secs
        } else {
            0.0
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

    /// Records one labelled wall-clock measurement point (a sweep step's
    /// wall seconds and sim rate in cycles/s). Benches that print per-step
    /// rates to stdout record them here too so the JSON report carries
    /// them; the key is volatile and excluded from determinism
    /// fingerprints like `wall_secs`/`sim_rate`.
    pub fn wall_point(&mut self, label: &str, wall_secs: f64, sim_rate: f64) {
        self.wall_points.push((label.to_string(), wall_secs, sim_rate));
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::s("optimus-testkit/bench-report/v1")),
            ("bench", Json::s(&self.name)),
            ("sim_cycles", Json::Num(self.sim_cycles() as f64)),
            ("wall_secs", Json::Num(self.started.elapsed().as_secs_f64())),
            ("sim_rate", Json::Num(self.sim_rate())),
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
                "functions",
                Json::Arr(self.functions.iter().map(FnStats::to_json).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::s).collect()),
            ),
        ];
        if !self.wall_points.is_empty() {
            fields.push((
                "wall_points",
                Json::Arr(
                    self.wall_points
                        .iter()
                        .map(|(label, secs, rate)| {
                            Json::obj(vec![
                                ("label", Json::s(label)),
                                ("wall_secs", Json::Num(*secs)),
                                ("sim_rate", Json::Num(*rate)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
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
        println!(
            "\nsim rate: {:.2} Mcycles/s ({} simulated cycles in {:.2} s)",
            self.sim_rate() / 1e6,
            self.sim_cycles(),
            self.started.elapsed().as_secs_f64()
        );
        println!("report: {}", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_exclusion_drops_exactly_the_configured_samples() {
        let cfg = BenchConfig {
            warmup_samples: 7,
            measured_samples: 5,
            iters_per_sample: Some(1),
        };
        let mut bench = Bench::with_config("selftest_warmup", cfg);
        let calls = std::cell::Cell::new(0u64);
        let stats = bench.bench_function("noop", |b| {
            b.iter(|| calls.set(calls.get() + 1))
        });
        assert_eq!(stats.samples, 5);
        assert_eq!(stats.warmup_discarded, 7);
        // With iters pinned to 1, the closure ran once per sample and the
        // calibration probe never ran.
        assert_eq!(calls.get(), 12);
    }

    #[test]
    fn report_carries_wall_points_and_slo_section() {
        use optimus_sim::journal;
        journal::reset();
        journal::set_enabled(true);
        journal::submit(7, "tenant0", 0, 0, 4096, 100);
        journal::phase(7, journal::Phase::Executing, 200);
        journal::phase(7, journal::Phase::Complete, 500);
        let mut r = Report::new("unit_slo");
        r.wall_point("nodes=2", 0.25, 1.5e6);
        let doc = r.to_json().render();
        assert!(doc.contains(r#""wall_points""#));
        assert!(doc.contains(r#""label":"nodes=2""#));
        assert!(doc.contains(r#""slo""#));
        assert!(doc.contains(r#""tenant":"tenant0""#));
        assert!(doc.contains(r#""completed":1"#));
        journal::reset();
    }

    #[test]
    fn report_json_round_trips_table_shape() {
        let mut r = Report::new("unit");
        r.table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        r.note("hello");
        let doc = r.to_json().render();
        assert!(doc.contains(r#""bench":"unit""#));
        assert!(doc.contains(r#""headers":["a","b"]"#));
        assert!(doc.contains(r#""rows":[["1","2"]]"#));
        assert!(doc.contains(r#""notes":["hello"]"#));
    }
}
