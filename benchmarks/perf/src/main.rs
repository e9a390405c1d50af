//! `perfbench`: the five-workload performance ledger of the OPTIMUS
//! reproduction. One process runs one workload:
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times five identical replays of the workload, a fifth of
//! the budget each, and prints the end-to-end metrics; `--trace 1` runs
//! passes of the same size untraced, traced and with the stepping modes
//! and recording planes toggled, then the workload's per-layer isolates
//! and the stack peel, and prints the per-layer metrics. Either way the
//! last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}`.
//!
//! Two kinds of time are reported and every name says which: `sim_*` and
//! every `cycles` unit are *simulated* (deterministic for a seed), all
//! else is *host* time or memory.

mod catalog;
mod gen;
mod isolates;
mod kernels;
mod peel;
mod report;
mod spans;
mod stack;
mod stats;
mod workloads;

use report::Metric;
use spans::Spans;
use stack::SimStats;
use stats::{jain, median, percentile, tail_quantile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{
    build, fingerprints, quiet_secs, run_timed, CtlStats, Outcome, Params, Pass, Variant, REPLAYS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    out: Option<PathBuf>,
    corrupt: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      [--threads N] [--out DIR] [--corrupt-expected]\n\
         \x20      perfbench --emit-benchmark-json",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        threads: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2),
        out: None,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value() == "1",
            "--threads" => a.threads = value().parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = Some(PathBuf::from(value())),
            "--corrupt-expected" => a.corrupt = true,
            "--emit-benchmark-json" => {
                print!("{}", catalog::benchmark_json());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// One built, timed and verified pass.
struct Measured {
    setup_secs: f64,
    pass: Pass,
    ctl: CtlStats,
    outcome: Outcome,
    fp: (u64, u64),
}

fn measure(name: &str, p: &Params, toggle: bool, sp: &mut Spans) -> Measured {
    let t = Instant::now();
    let mut w = build(name, p, sp);
    let setup_secs = t.elapsed().as_secs_f64();
    let pass = run_timed(w.as_mut(), toggle, sp);
    let s = sp.begin("ctl");
    let ctl = w.ctl(sp);
    sp.end(s);
    let s = sp.begin("verify");
    let mut outcome = w.verify(&pass.sim, sp);
    integrity_checks(w.stack().hv_stats(), &pass.sim, &mut outcome);
    sp.end(s);
    let fp = fingerprints(&pass.sim, &outcome, &ctl);
    Measured {
        setup_secs,
        pass,
        ctl,
        outcome,
        fp,
    }
}

/// The checks every workload shares: nothing dropped, nothing discarded,
/// no refused save, no faulted DMA — over the whole life of the stack.
fn integrity_checks(total: optimus::hypervisor::HvStats, sim: &SimStats, out: &mut Outcome) {
    for (what, v) in [
        ("dropped_packets", total.dropped_packets),
        ("discarded_dma", total.discarded_dma),
        ("discarded_mmio", total.discarded_mmio),
        ("alerts_save_refused", total.alerts_save_refused),
        ("faulted_dmas", sim.faulted_dmas),
    ] {
        out.check(v == 0, || format!("{what} = {v}, expected 0"));
    }
}

/// What an untraced run measured on the host, over all its replays.
struct HostMeasured {
    setup_s: f64,
    timed_secs: f64,
    peak_rss_mib: f64,
    round_ms: Vec<f64>,
}

/// The end-to-end metrics of an untraced run: host quantities over all
/// its replays, simulated ones from the last (the replays agree on them).
fn end_to_end(m: &Measured, host: &HostMeasured) -> Vec<Metric> {
    let sim = &m.pass.sim;
    let values = [
        host.setup_s,
        sim.device_cycles() as f64 / host.timed_secs / 1e6,
        host.peak_rss_mib,
        median(&host.round_ms),
        sim.sim_gbps(),
        sim.dma_lat.mean_cycles(),
        sim.dma_lat.percentile_cycles(0.5) as f64,
        sim.dma_lat.percentile_cycles(0.99) as f64,
        jain(&m.outcome.progress),
    ];
    catalog::END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric {
            name: def.name.to_string(),
            value,
            unit: def.unit,
        })
        .collect()
}

fn as_f64(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// Everything a traced run measured, keyed by metric name.
struct Layers(std::collections::BTreeMap<String, f64>);

impl Layers {
    fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// The catalog's per-layer metrics in order; unmeasured ones read 0.
    fn metrics(&self) -> Vec<Metric> {
        let catalog = catalog::per_layer();
        for name in self.0.keys() {
            assert!(
                catalog.iter().any(|m| &m.name == name),
                "metric {name} is not in the catalog"
            );
        }
        catalog
            .into_iter()
            .map(|def| Metric {
                value: self.0.get(&def.name).copied().unwrap_or(0.0),
                name: def.name,
                unit: def.unit,
            })
            .collect()
    }
}

/// Per-layer metrics that are host time of the workload's own phases and
/// control-plane calls: read off the untraced pass.
fn layer_host_times(l: &mut Layers, m: &Measured) {
    l.set("core.node.freerun_mcps", m.pass.phase_rate_mcps("freerun"));
    l.set(
        "core.node.lockstep_mcps",
        m.pass.phase_rate_mcps("lockstep"),
    );
    l.set("core.node.ctl_mcps", m.pass.phase_rate_mcps("ctl"));
    let ctl = &m.ctl;
    l.set("ctl_migrate_ms_p50", median(&ctl.migrate_ms));
    l.set("ctl_live_update_ms_p50", median(&ctl.live_update_ms));
    // The tail a sample count supports: 40 operations reach p75.
    if let Some(q) = tail_quantile(ctl.migrate_ms.len()) {
        l.set(
            "core.node.ctl_migrate_ms_p75",
            percentile(&ctl.migrate_ms, q.min(0.75)),
        );
    }
    if let Some(q) = tail_quantile(ctl.live_update_ms.len()) {
        l.set(
            "core.node.ctl_live_update_ms_p75",
            percentile(&ctl.live_update_ms, q.min(0.75)),
        );
    }
}

/// Per-layer metrics read off one pass's simulated statistics.
fn layer_counts(l: &mut Layers, m: &Measured) {
    use optimus_sim::metrics as mx;
    let sim = &m.pass.sim;
    let p = &sim.plane;
    l.set("mem.iotlb_hits", p.count(mx::MEM_IOTLB_HITS) as f64);
    l.set(
        "mem.iotlb_spec_hits",
        p.count(mx::MEM_IOTLB_SPEC_HITS) as f64,
    );
    l.set("mem.iotlb_misses", p.count(mx::MEM_IOTLB_MISSES) as f64);
    l.set(
        "mem.iotlb_conflict_evictions",
        p.count(mx::MEM_IOTLB_CONFLICT_EVICTIONS) as f64,
    );
    l.set("mem.iotlb_hit_ratio", sim.iotlb_hit_ratio());
    l.set("mem.io_page_faults", p.count(mx::MEM_IO_PAGE_FAULTS) as f64);
    l.set(
        "mem.page_walk_cycles_mean",
        p.mean(mx::MEM_PAGE_WALK_CYCLES),
    );
    l.set("mem.materialized_frames", sim.materialized_frames as f64);
    for (label, ch) in ["upi", "pcie0", "pcie1"].iter().enumerate() {
        let n = p.count_at(mx::CCI_CHANNEL_PACKETS, label as u32);
        l.set(&format!("cci.channel_packets.{ch}"), n as f64);
    }
    l.set(
        "cci.channel_switches",
        p.count(mx::CCI_CHANNEL_SWITCHES) as f64,
    );
    l.set("cci.dma_bytes", p.count(mx::CCI_DMA_BYTES) as f64);
    l.set("cci.dma_rt_cycles_mean", p.mean(mx::CCI_DMA_RT_CYCLES));
    let (grants, stalls) = (
        p.count(mx::FABRIC_MUX_GRANTS),
        p.count(mx::FABRIC_MUX_STALLS),
    );
    l.set("fabric.mux_grants", grants as f64);
    l.set("fabric.mux_stalls", stalls as f64);
    l.set(
        "fabric.mux_stall_ratio",
        stalls as f64 / (grants + stalls).max(1) as f64,
    );
    l.set(
        "fabric.mux_queue_depth_mean",
        p.mean(mx::FABRIC_MUX_QUEUE_DEPTH),
    );
    l.set(
        "fabric.port_forwarded",
        p.count(mx::FABRIC_PORT_FORWARDED) as f64,
    );
    l.set(
        "fabric.auditor_rejects",
        p.count(mx::FABRIC_AUDITOR_REJECTS) as f64,
    );
    l.set("fabric.dropped_packets", sim.hv.dropped_packets as f64);
    for &(kind, lines) in &m.outcome.lines_by_kind {
        if kernels::COMPUTE_KINDS
            .iter()
            .any(|&k| kernels::short_name(k) == kind)
        {
            l.set(&format!("accel.{kind}.lines"), lines as f64);
        }
    }
    l.set("core.hv.mmio_traps", p.count(mx::HV_MMIO_TRAPS) as f64);
    l.set("core.hv.hypercalls", p.count(mx::HV_HYPERCALLS) as f64);
    l.set("core.hv.installs", p.count(mx::HV_INSTALLS) as f64);
    l.set(
        "core.hv.context_switches",
        p.count(mx::HV_CONTEXT_SWITCHES) as f64,
    );
    l.set("core.hv.preemptions", p.count(mx::HV_PREEMPTIONS) as f64);
    l.set(
        "core.hv.forced_resets",
        p.count(mx::HV_FORCED_RESETS) as f64,
    );
    l.set(
        "core.hv.isolation_alerts",
        p.count(mx::HV_ISOLATION_ALERTS) as f64,
    );
    l.set("core.hv.preempt_cycles_mean", p.mean(mx::HV_PREEMPT_CYCLES));
    l.set("core.hv.install_cycles_mean", p.mean(mx::HV_INSTALL_CYCLES));
    l.set("core.node.chunks", p.count(mx::NODE_CHUNKS) as f64);
    l.set("core.node.chunk_cycles_mean", p.mean(mx::NODE_CHUNK_CYCLES));
    l.set("core.node.migrations", p.count(mx::NODE_MIGRATIONS) as f64);

    let jobs = &m.outcome.jobs;
    let lat = as_f64(&jobs.latencies);
    l.set("sim_job_lat_cycles_p50", percentile(&lat, 0.5));
    l.set("sim_job_lat_cycles_p99", percentile(&lat, 0.99));
    let sim_ms = optimus_sim::time::cycles_to_ns(sim.node_cycles()) / 1e6;
    l.set(
        "sim_jobs_per_ms",
        jobs.completed as f64 / sim_ms.max(f64::MIN_POSITIVE),
    );
    let downtime = as_f64(&m.ctl.downtime_cycles);
    l.set(
        "sim_migrate_downtime_cycles_p50",
        percentile(&downtime, 0.5),
    );
    if let Some(err) = m.outcome.paper_err_pct {
        l.set("paper_err_pct", err);
    }
}

fn ms_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn print_checks(name: &str, out: &Outcome, fp: (u64, u64)) {
    for f in &out.failures {
        println!("{name} FAILED {f}");
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{name} fail_ratio {} ratio ({} failed / {} attempted)",
        report::num(ratio),
        out.failed,
        out.attempted
    );
    println!("{name} sim_fingerprint {:016x} hash", fp.1);
}

fn write_out(dir: &Option<PathBuf>, file: &str, body: &str) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(file), body))
    {
        eprintln!("perfbench: cannot write {}: {e}", dir.join(file).display());
    }
}

/// `PERF_<workload>.json`: the run's metrics, and the last pass chunk by
/// chunk, so two commits can be compared on like work.
fn perf_json(a: &Args, budget: u64, m: &Measured, metrics: &[Metric]) -> String {
    let phases: Vec<String> = m
        .pass
        .phases
        .iter()
        .map(|(n, c)| {
            let secs: f64 = c.iter().map(|c| c.secs).sum();
            let cycles: u64 = c.iter().map(|c| c.device_cycles).sum();
            let each: Vec<String> = c.iter().map(|c| report::num(c.secs)).collect();
            format!(
                "{{\"name\": \"{n}\", \"host_s\": {}, \"device_cycles\": {cycles}, \"chunk_s\": [{}]}}",
                report::num(secs),
                each.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"budget_cycles\": {budget}, \"threads\": {}, \
         \"sim_fingerprint\": \"{:016x}\", \"core_fingerprint\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \
         \"raw_timed_s\": {}, \"phases\": [{}], \"metrics\": {}}}\n",
        a.workload,
        a.seed,
        a.trace as u8,
        a.threads,
        m.fp.1,
        m.fp.0,
        m.outcome.attempted,
        m.outcome.failed,
        report::num(m.pass.raw_secs()),
        phases.join(", "),
        report::metrics_object(metrics),
    )
}

/// `--trace 0`: set up several times, time the last [`REPLAYS`] stacks,
/// verify each. The checks of every replay count; the returned pass is
/// the last one.
fn untraced(a: &Args, p: &Params) -> (Measured, Vec<Metric>) {
    let mut quiet = Spans::new(false);
    let mut setups: Vec<f64> = Vec::new();
    for _ in REPLAYS..workloads::setups(&a.workload) {
        let t = Instant::now();
        drop(build(&a.workload, p, &mut quiet));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut chunk_secs: Vec<Vec<f64>> = Vec::new();
    let mut round_ms: Vec<f64> = Vec::new();
    let mut peak_rss_mib = 0.0;
    let mut tally = Outcome::default();
    let mut first_fp = None;
    let mut last: Option<Measured> = None;
    for replay in 0..REPLAYS {
        // One stack at a time: the previous replay's samples are freed
        // before the next is built.
        drop(last.take());
        let mut m = measure(&a.workload, p, false, &mut quiet);
        if replay == 0 {
            // Later replays run on the heap this one leaves fragmented and
            // can push the high-water mark higher, or not, with the seed;
            // that is the harness replaying, not the simulator.
            peak_rss_mib = report::peak_rss_mib();
        }
        setups.push(m.setup_secs);
        chunk_secs.push(m.pass.chunk_secs());
        round_ms.extend(m.ctl.round_ms());
        let fp = *first_fp.get_or_insert(m.fp);
        m.outcome.check(m.fp == fp, || {
            format!(
                "replay {replay} fingerprint {:016x} differs from the first, {:016x}",
                m.fp.1, fp.1
            )
        });
        tally.attempted += m.outcome.attempted;
        tally.failed += m.outcome.failed;
        tally.failures.append(&mut m.outcome.failures);
        last = Some(m);
    }
    let mut m = last.expect("REPLAYS > 0");
    m.outcome.attempted = tally.attempted;
    m.outcome.failed = tally.failed;
    m.outcome.failures = tally.failures;
    let host = HostMeasured {
        setup_s: median(&setups),
        timed_secs: quiet_secs(&chunk_secs),
        peak_rss_mib,
        round_ms,
    };
    let metrics = end_to_end(&m, &host);
    let raw: Vec<String> = chunk_secs
        .iter()
        .map(|c| report::num(c.iter().sum()))
        .collect();
    println!(
        "{} timed_section {} s (chunk-wise minimum of replays taking {} s), {} device-cycles each, n_setups {}",
        a.workload,
        report::num(host.timed_secs),
        raw.join(" / "),
        m.pass.sim.device_cycles(),
        setups.len()
    );
    println!(
        "{} sim_dma_lat_samples {} count",
        a.workload,
        m.pass.sim.dma_lat.count()
    );
    // The highest percentile with ten samples beyond it, and the count.
    let n = host.round_ms.len();
    if let Some(q) = tail_quantile(n) {
        println!(
            "{} ctl_round_ms_tail {} ms (p{}, n = {n})",
            a.workload,
            report::num(percentile(&host.round_ms, q)),
            q * 100.0
        );
    }
    (m, metrics)
}

/// `--trace 1`: untraced, traced and toggled passes, each the size of an
/// untraced run's replay, then the workload's isolates and the peel.
fn traced(a: &Args, p: &Params) -> (Measured, Vec<Metric>) {
    let name = a.workload.as_str();
    let mut l = Layers(Default::default());
    let mut sp = Spans::new(true);
    let root = sp.begin("workload");

    // Pass A: planes at their defaults, no spans, no flight recorder.
    let mut quiet = Spans::new(false);
    let s = sp.begin("pass.untraced");
    let base = measure(name, p, false, &mut quiet);
    sp.end(s);

    // Pass B: the harness's spans and the simulator's flight recorder on.
    optimus_sim::trace::set_enabled(true);
    let mut m = measure(name, p, false, &mut sp);
    let s = sp.begin("export");
    let events = optimus_sim::trace::event_count();
    let dropped = optimus_sim::trace::dropped();
    let (_, trace_ms) = ms_of(|| optimus_sim::trace::chrome_trace_json().len());
    optimus_sim::trace::set_enabled(false);
    let (jobs, journal_ms) = ms_of(|| optimus_sim::journal::export().len());
    let (_, snapshot_ms) = ms_of(|| optimus_sim::metrics::snapshot().len());
    sp.end(s);
    m.outcome.check(m.fp == base.fp, || {
        format!(
            "traced fingerprint {:016x} differs from untraced {:016x}",
            m.fp.1, base.fp.1
        )
    });
    layer_counts(&mut l, &m);
    layer_host_times(&mut l, &base);
    l.set("sim.journal_jobs", jobs as f64);
    l.set("sim.trace_events", events as f64);
    l.set("sim.trace_dropped", dropped as f64);
    l.set("sim.journal_export_ms", journal_ms);
    l.set("sim.metrics_snapshot_ms", snapshot_ms);
    l.set("sim.trace_export_ms", trace_ms);
    // The two passes are replays: compared chunk by chunk.
    l.set(
        "sim.trace_overhead_pct",
        (m.pass.slowdown_against(&base.pass, None) - 1.0) * 100.0,
    );

    // Pass C: chunks cycle through the stepping modes and plane switches.
    let s = sp.begin("pass.toggled");
    let toggled = measure(name, p, true, &mut quiet);
    sp.end(s);
    m.outcome.check(toggled.fp.0 == base.fp.0, || {
        format!(
            "toggled core fingerprint {:016x} differs from {:016x}",
            toggled.fp.0, base.fp.0
        )
    });
    let per = |v: Variant| toggled.pass.secs_per_cycle(v);
    let on = per(Variant::Base);
    l.set(
        "sim.metrics_overhead_pct",
        (on / per(Variant::MetricsOff) - 1.0) * 100.0,
    );
    l.set(
        "sim.journal_overhead_pct",
        (on / per(Variant::JournalOff) - 1.0) * 100.0,
    );
    l.set("sim.fastfwd_speedup", per(Variant::FastForwardOff) / on);
    l.set("sim.batch_speedup", per(Variant::BatchOne) / on);

    // Pass D (node only): one worker thread instead of the default.
    if name == "node_ops" && p.threads > 1 {
        let s = sp.begin("pass.serial");
        let serial = measure(name, &Params { threads: 1, ..*p }, false, &mut quiet);
        sp.end(s);
        m.outcome.check(serial.fp == base.fp, || {
            format!(
                "1-thread fingerprint {:016x} differs from {:016x}",
                serial.fp.1, base.fp.1
            )
        });
        l.set(
            "core.node.thread_speedup",
            serial.pass.slowdown_against(&base.pass, Some("freerun")),
        );
    }

    for (metric, value) in isolates::run_for(name, &mut sp) {
        l.set(&metric, value);
    }
    let (specs, policy, cycles) = workloads::peel_specs(name, p.seed);
    let peel_cycles = cycles as f64 * a.seconds / catalog::RUN_SECONDS as f64;
    let depths = peel::run(&specs, policy, (peel_cycles as u64).max(2_000), &mut sp);
    for (depth, ns) in ["accel", "fabric", "core.hv", "core.node"]
        .iter()
        .zip(depths)
    {
        l.set(&format!("{depth}.peel_ns_per_cycle"), ns);
    }
    sp.end(root);

    // The workload span's own self time is what no child span explains.
    let own = spans::self_times_ns(sp.records());
    let total = sp.records()[0].end_ns - sp.records()[0].start_ns;
    l.set(
        "spans.unattributed_pct",
        own[0] as f64 / total.max(1) as f64 * 100.0,
    );
    for (span, ns, n) in spans::self_time_by_name(sp.records()) {
        println!(
            "{name} span.{span}.self_ms {} ms (n = {n})",
            report::num(ns as f64 / 1e6)
        );
    }
    write_out(
        &a.out,
        &format!("SPANS_{name}.json"),
        &sp.chrome_trace_json(),
    );
    println!(
        "{name} sim_rate_mcps {} Mcycles/s untraced, {} traced (one pass each, as measured)",
        report::num(base.pass.raw_rate_mcps()),
        report::num(m.pass.raw_rate_mcps())
    );
    let metrics = l.metrics();
    (m, metrics)
}

fn main() -> ExitCode {
    let a = parse_args();
    // Every timed pass, traced or not, gets one replay's share of the
    // budget: a traced run's fingerprint is its untraced run's.
    let budget = workloads::cycles_per_second(&a.workload) as f64 * a.seconds / REPLAYS as f64;
    let p = Params {
        seed: a.seed,
        budget: (budget as u64).max(1_000),
        threads: a.threads.max(1),
        corrupt: a.corrupt,
    };
    println!("{} budget_cycles {} cycles", a.workload, p.budget);
    let (m, metrics) = if a.trace {
        traced(&a, &p)
    } else {
        untraced(&a, &p)
    };
    for metric in &metrics {
        report::line(&a.workload, &metric.name, metric.value, metric.unit);
    }
    print_checks(&a.workload, &m.outcome, m.fp);
    write_out(
        &a.out,
        &format!("PERF_{}.json", a.workload),
        &perf_json(&a, p.budget, &m, &metrics),
    );
    println!(
        "{}",
        report::result_line(m.outcome.attempted, m.outcome.failed, &metrics)
    );
    if m.outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
