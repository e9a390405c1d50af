//! The five workloads and the pass runner that times them.
//!
//! A workload is built by `build` (the set-up phase: stack, tenants,
//! pinning, inputs, launch, warm-up), advanced chunk by chunk by the pass
//! runner (the timed section: a fixed simulated-cycle budget split into
//! equal chunks per phase), and checked by `verify`.

pub mod churn;
pub mod node_ops;
pub mod spatial;

use crate::spans::Spans;
use crate::stack::{SimStats, Stack, Window};
use crate::stats::{median, percentile, Fingerprint};
use optimus_sim::{journal, metrics, trace};
use std::time::Instant;

/// The workloads, in ledger order.
pub const NAMES: [&str; 5] = [
    "ll_chase",
    "mb_rw",
    "compute_mix",
    "tenant_churn",
    "node_ops",
];

/// Why each workload exists (one line, also in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "ll_chase" => "8 LinkedList tenants chase 8 GiB over UPI: every hop an IOTLB miss, a page walk and a lazy line fill; mem and the event-horizon clock do the host work, kernels almost none",
        "mb_rw" => "8 MemBench tenants, mixed read/write inside IOTLB reach under the auto selector: the same mem/cci/fabric layers driven by hits, writes and a saturated mux tree, stepped not skipped",
        "compute_mix" => "AES SHA MD5 FIR RSD SW GAU BTC, one tenant each: the compute-bound regime where host time is kernel arithmetic plus per-cycle dispatch and memory is nearly idle",
        "tenant_churn" => "16 closed-loop clients time-share 4 slots with bimodal bounded jobs and polled completion: the trap path, scheduler, preemption and journal do the work, the device little",
        "node_ops" => "4-device node, 12 tenants: free-running, then lock-step under live shares, then 40 migrations and 40 live-updates; the only path through node, snapshot and worker dispatch",
        other => panic!("unknown workload {other}"),
    }
}

/// Timed passes of an untraced run. Every pass builds the workload anew
/// from the same seed and simulates the same budget, so the passes are
/// identical replays: chunk `i` of one does exactly the work of chunk `i`
/// of another, and whatever differs between their host times is the host.
pub const REPLAYS: usize = 5;

/// Live-updates timed after the timed section of a single-device workload.
pub const CTL_ROUNDS: usize = 40;

/// Simulated cycles per nominal second of `--seconds`, per workload,
/// tuned once on the 2-vCPU reference host so the timed section takes
/// about `--seconds` of host time, then frozen: the issue's start
/// budgets (800 M / 60 M / 16 M / 120 M device-cycles, 10 M node-cycles
/// for 15 s) divided by 15 and re-tuned by one factor per workload.
/// `node_ops` counts node-cycles (each is four device-cycles).
pub fn cycles_per_second(name: &str) -> u64 {
    match name {
        "ll_chase" => 26_000_000,
        "mb_rw" => 1_900_000,
        "compute_mix" => 360_000,
        "tenant_churn" => 3_000_000,
        "node_ops" => 1_000_000,
        other => panic!("unknown workload {other}"),
    }
}

/// Set-ups per untraced run, the last [`REPLAYS`] of which are timed;
/// `setup_s` is their median. Fixed per workload (a count that followed
/// the clock would make the heap, and so `peak_rss_mib`, differ between
/// runs): more repeats where one set-up takes milliseconds, no more than
/// the replays need where it takes half a second.
pub fn setups(name: &str) -> usize {
    match name {
        "ll_chase" => 16,
        "mb_rw" | "compute_mix" => REPLAYS,
        "tenant_churn" => 12,
        "node_ops" => 10,
        other => panic!("unknown workload {other}"),
    }
}

/// The job mix and channel policy the stack peel runs for `name`: the
/// workload's own slots, one unbounded job each.
pub fn peel_specs(
    name: &str,
    seed: u64,
) -> (
    Vec<crate::kernels::JobSpec>,
    optimus_cci::channel::SelectorPolicy,
    u64,
) {
    use optimus_accel::registry::AccelKind as K;
    use optimus_cci::channel::SelectorPolicy as P;
    // Cycles per depth: about a quarter second at the hypervisor depth.
    let (kinds, policy, cycles): (Vec<K>, P, u64) = match name {
        "ll_chase" => (vec![K::Ll; 8], P::UpiOnly, 6_000_000),
        "mb_rw" => (vec![K::Mb; 8], P::Auto, 500_000),
        "compute_mix" => (crate::kernels::COMPUTE_KINDS.to_vec(), P::Auto, 90_000),
        "tenant_churn" => (vec![K::Sha, K::Md5, K::Aes, K::Mb], P::Auto, 750_000),
        "node_ops" => (vec![K::Mb, K::Sha, K::Gau, K::Sha], P::Auto, 500_000),
        other => panic!("unknown workload {other}"),
    };
    let specs = kinds
        .iter()
        .enumerate()
        .map(|(slot, &k)| spatial::spec_for(k, seed, slot, 2 * cycles))
        .collect();
    (specs, policy, cycles)
}

/// What a pass needs to know.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Timed-section budget in simulated cycles (node-cycles on a node).
    pub budget: u64,
    /// Worker threads for node stepping.
    pub threads: usize,
    /// Flip one bit of the first expected result (self-check of the checks).
    pub corrupt: bool,
}

/// One phase of a timed section: `chunks` equal chunks.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub name: &'static str,
    pub chunks: usize,
}

/// Completed-job statistics of a timed section (journal-derived).
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Submit→complete latency of every job completed in the window.
    pub latencies: Vec<u64>,
    pub submitted: u64,
    pub completed: u64,
    pub evicted: u64,
    pub in_flight: u64,
}

/// Control-plane operation timings: live-updates on every workload,
/// migrations on a node.
#[derive(Debug, Clone, Default)]
pub struct CtlStats {
    pub migrate_ms: Vec<f64>,
    pub live_update_ms: Vec<f64>,
    /// Simulated cycles each migrated tenant spent off-device.
    pub downtime_cycles: Vec<u64>,
}

impl CtlStats {
    /// Host milliseconds of each control-plane round: one live-update of
    /// the stack's hypervisor, preceded on a node by one migration.
    pub fn round_ms(&self) -> Vec<f64> {
        if self.migrate_ms.is_empty() {
            return self.live_update_ms.clone();
        }
        self.migrate_ms
            .iter()
            .zip(&self.live_update_ms)
            .map(|(m, l)| m + l)
            .collect()
    }
}

/// What `verify` found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Correctness checks made; each is one operation.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Per-tenant progress, normalized by the kind's nominal demand.
    pub progress: Vec<f64>,
    pub jobs: JobStats,
    /// |measured − paper| / paper in percent, where the configuration has
    /// a paper figure to be held against.
    pub paper_err_pct: Option<f64>,
    /// DMA lines moved per accelerator kind (metric `accel.<k>.lines`).
    pub lines_by_kind: Vec<(&'static str, u64)>,
    /// Workload results that belong in the fingerprint.
    pub fingerprint_words: Vec<u64>,
}

impl Outcome {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A built workload.
pub trait Workload {
    fn stack(&mut self) -> &mut Stack;
    fn phases(&self) -> Vec<Phase>;
    /// Advances the timed section by chunk `index` of phase `phase`.
    fn chunk(&mut self, phase: usize, index: usize, sp: &mut Spans);
    /// The workload's control-plane operations, timed. A single-device
    /// workload live-updates its hypervisor [`CTL_ROUNDS`] times after the
    /// timed section, jobs still running: no simulated cycle passes, so
    /// the section's statistics are as they were, and `verify` then checks
    /// the results through the last successor. A node has its own phase.
    fn ctl(&mut self, sp: &mut Spans) -> CtlStats {
        let mut ctl = CtlStats::default();
        for _ in 0..CTL_ROUNDS {
            let s = sp.begin("hv.live_update");
            let t = Instant::now();
            self.stack().live_update();
            ctl.live_update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            sp.end(s);
        }
        ctl
    }
    /// Checks outputs after the timed section.
    fn verify(&mut self, sim: &SimStats, sp: &mut Spans) -> Outcome;
}

/// Builds workload `name` (the whole set-up phase, warm-up included).
pub fn build(name: &str, p: &Params, sp: &mut Spans) -> Box<dyn Workload> {
    // Job ids and trace tracks restart with every stack, so the recording
    // planes must start empty or two stacks' records would merge.
    journal::reset();
    trace::reset();
    metrics::reset();
    let s = sp.begin("setup");
    let w: Box<dyn Workload> = match name {
        "ll_chase" => Box::new(spatial::Spatial::ll_chase(p, sp)),
        "mb_rw" => Box::new(spatial::Spatial::mb_rw(p, sp)),
        "compute_mix" => Box::new(spatial::Spatial::compute_mix(p, sp)),
        "tenant_churn" => Box::new(churn::Churn::build(p, sp)),
        "node_ops" => Box::new(node_ops::NodeOps::build(p, sp)),
        other => panic!("unknown workload {other}"),
    };
    sp.end(s);
    w
}

/// A stepping-mode or recording-plane variant a chunk can run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Base,
    MetricsOff,
    JournalOff,
    FastForwardOff,
    BatchOne,
}

pub const VARIANTS: [Variant; 5] = [
    Variant::Base,
    Variant::MetricsOff,
    Variant::JournalOff,
    Variant::FastForwardOff,
    Variant::BatchOne,
];

fn apply(v: Variant, stack: &mut Stack, on: bool) {
    // `on` = enter the variant; `!on` = back to the defaults.
    match v {
        Variant::Base => {}
        Variant::MetricsOff => metrics::set_enabled(!on),
        Variant::JournalOff => journal::set_enabled(!on),
        Variant::FastForwardOff => stack.set_fast_forward(!on),
        Variant::BatchOne => stack.set_batch_step(if on {
            1
        } else {
            optimus_sim::simrate::DEFAULT_BATCH_STEP
        }),
    }
}

/// Host seconds and simulated device-cycles of one chunk.
#[derive(Debug, Clone, Copy)]
pub struct ChunkTime {
    pub secs: f64,
    pub device_cycles: u64,
    pub variant: Variant,
}

/// One timed section, measured.
pub struct Pass {
    pub sim: SimStats,
    /// Chunk timings per phase.
    pub phases: Vec<(&'static str, Vec<ChunkTime>)>,
}

impl Pass {
    /// Host seconds of every chunk, in order.
    pub fn chunk_secs(&self) -> Vec<f64> {
        self.phases
            .iter()
            .flat_map(|(_, c)| c)
            .map(|c| c.secs)
            .collect()
    }

    /// Host seconds as measured, noise included.
    pub fn raw_secs(&self) -> f64 {
        self.chunk_secs().iter().sum()
    }

    /// Simulated device-Mcycles per host second of this one pass, as
    /// measured.
    pub fn raw_rate_mcps(&self) -> f64 {
        self.sim.device_cycles() as f64 / self.raw_secs() / 1e6
    }

    /// Device-Mcycles per host second of one phase, as measured (0 if the
    /// phase is absent).
    pub fn phase_rate_mcps(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, chunks)| {
                let cycles: u64 = chunks.iter().map(|c| c.device_cycles).sum();
                let secs: f64 = chunks.iter().map(|c| c.secs).sum();
                cycles as f64 / secs / 1e6
            })
    }

    /// Lower-quartile host seconds per simulated cycle over the chunks
    /// that ran under `v` (NaN if none did). Only for ratios between the
    /// variants of one toggled pass: the variants take turns chunk by
    /// chunk, so each sees the same mix of work and of the host's noise.
    pub fn secs_per_cycle(&self, v: Variant) -> f64 {
        let per_cycle: Vec<f64> = self
            .phases
            .iter()
            .flat_map(|(_, c)| c)
            .filter(|c| c.variant == v)
            .map(|c| c.secs / c.device_cycles.max(1) as f64)
            .collect();
        if per_cycle.is_empty() {
            f64::NAN
        } else {
            percentile(&per_cycle, 0.25)
        }
    }

    /// Median over the chunks of `phase` (all phases if `None`) of this
    /// pass's chunk time over `other`'s: how much slower this pass ran
    /// the same work. Both passes must be replays of one seed and budget.
    pub fn slowdown_against(&self, other: &Pass, phase: Option<&str>) -> f64 {
        let pick = |p: &Pass| -> Vec<f64> {
            p.phases
                .iter()
                .filter(|(n, _)| phase.is_none_or(|want| *n == want))
                .flat_map(|(_, c)| c)
                .map(|c| c.secs)
                .collect()
        };
        let ratios: Vec<f64> = pick(self)
            .iter()
            .zip(pick(other))
            .map(|(mine, theirs)| mine / theirs)
            .collect();
        median(&ratios)
    }
}

/// Host seconds one timed section takes on a quiet host: every chunk is
/// priced at the least of its times over the replays, and the chunks are
/// summed. Every chunk counts, the slow kinds too, and none borrows
/// another's price. The least, not the median: on the shared reference
/// host a neighbour slows whole seconds of a run by up to a third and
/// never speeds one up, so the median of a few replays still carries the
/// neighbour (measured over ten seeds in a noisy hour: interquartile
/// spread 22 % for the median of three replays of `ll_chase`, 9 % for
/// the least of five; 13 % for one replay as measured).
pub fn quiet_secs(replays: &[Vec<f64>]) -> f64 {
    let chunks = replays.first().map_or(0, Vec::len);
    (0..chunks)
        .map(|i| replays.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Runs the timed section of `w`. With `toggle`, successive chunks cycle
/// through [`VARIANTS`] so each variant is timed on interleaved chunks of
/// the same run (every variant is bit-exact, so the simulation does not
/// notice).
pub fn run_timed(w: &mut dyn Workload, toggle: bool, sp: &mut Spans) -> Pass {
    let s = sp.begin("timed");
    let window = Window::open(w.stack());
    let mut phases = Vec::new();
    let mut n = 0usize;
    for (pi, phase) in w.phases().into_iter().enumerate() {
        let mut chunks = Vec::with_capacity(phase.chunks);
        for i in 0..phase.chunks {
            let variant = if toggle {
                VARIANTS[n % VARIANTS.len()]
            } else {
                Variant::Base
            };
            n += 1;
            apply(variant, w.stack(), true);
            let before = w.stack().clocks();
            let t = Instant::now();
            w.chunk(pi, i, sp);
            let secs = t.elapsed().as_secs_f64();
            let after = w.stack().clocks();
            apply(variant, w.stack(), false);
            chunks.push(ChunkTime {
                secs,
                device_cycles: crate::stats::device_cycles(&before, &after),
                variant,
            });
        }
        phases.push((phase.name, chunks));
    }
    let sim = window.close(w.stack());
    sp.end(s);
    Pass { sim, phases }
}

/// The fingerprints of a pass: `core` covers device-owned state and the
/// workload's results (it must survive any plane, stepping-mode or thread
/// setting); `full` adds what the metrics plane and journal recorded.
pub fn fingerprints(sim: &SimStats, out: &Outcome, ctl: &CtlStats) -> (u64, u64) {
    let mut fp = Fingerprint::new();
    sim.core_fingerprint(&mut fp);
    for w in &out.fingerprint_words {
        fp.push(*w);
    }
    let core = fp.value();
    // What reads the journal belongs with the planes: it cannot hold on a
    // pass that switched the journal off for some chunks. Progress does on
    // `tenant_churn`; elsewhere it is port bytes, which `core` has.
    for p in &out.progress {
        fp.push_f64(*p);
    }
    fp.push(out.attempted);
    fp.push(out.failed);
    sim.plane.fingerprint(&mut fp);
    let j = &out.jobs;
    for v in [j.submitted, j.completed, j.evicted, j.in_flight] {
        fp.push(v);
    }
    for l in &j.latencies {
        fp.push(*l);
    }
    for d in &ctl.downtime_cycles {
        fp.push(*d);
    }
    (core, fp.value())
}

/// Journal-derived job statistics for jobs submitted at or after `since`
/// (per-device clocks: `since[device]`).
pub fn job_stats(since: &[u64]) -> JobStats {
    let mut out = JobStats::default();
    for rec in journal::export() {
        let mut submit: Option<u64> = None;
        for &(phase, ts) in &rec.phases {
            match phase {
                journal::Phase::Submit => {
                    let dev = rec.device as usize;
                    if ts >= since.get(dev).copied().unwrap_or(0) {
                        submit = Some(ts);
                        out.submitted += 1;
                        out.in_flight += 1;
                    } else {
                        submit = None;
                    }
                }
                journal::Phase::Complete => {
                    if let Some(s) = submit.take() {
                        out.latencies.push(ts.saturating_sub(s));
                        out.completed += 1;
                        out.in_flight -= 1;
                    }
                }
                journal::Phase::Evicted if submit.take().is_some() => {
                    out.evicted += 1;
                    out.in_flight -= 1;
                }
                _ => {}
            }
        }
    }
    out
}

/// Cycles each vaccel's jobs spent executing on their slot between
/// device cycles `since` and `until`, from the journal: every interval
/// from an `Executing` phase to the preemption or completion that ended
/// it (or to `until`, for a job still on its slot), clipped to the window.
pub fn executing_cycles(since: u64, until: u64) -> std::collections::BTreeMap<u32, u64> {
    let mut held = std::collections::BTreeMap::new();
    for rec in journal::export() {
        let mut on_since: Option<u64> = None;
        let mut total = 0u64;
        let mut credit = |from: u64, to: u64| {
            total += to.min(until).saturating_sub(from.max(since));
        };
        for &(phase, ts) in &rec.phases {
            match phase {
                journal::Phase::Executing => on_since = Some(ts),
                journal::Phase::Preempted
                | journal::Phase::Complete
                | journal::Phase::ForcedReset
                | journal::Phase::SaveRefused
                | journal::Phase::Evicted => {
                    if let Some(from) = on_since.take() {
                        credit(from, ts);
                    }
                }
                _ => {}
            }
        }
        if let Some(from) = on_since {
            credit(from, until);
        }
        *held.entry(rec.vaccel).or_insert(0) += total;
    }
    held
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(phases: &[(&'static str, &[f64])]) -> Pass {
        let chunks = |secs: &[f64]| {
            secs.iter()
                .map(|&secs| ChunkTime {
                    secs,
                    device_cycles: 1_000,
                    variant: Variant::Base,
                })
                .collect()
        };
        let mut stack = Stack::single_device(optimus::hypervisor::Optimus::new(
            optimus::hypervisor::OptimusConfig::new(vec![optimus_accel::registry::AccelKind::Mb]),
        ));
        Pass {
            sim: Window::open(&mut stack).close(&mut stack),
            phases: phases.iter().map(|&(n, s)| (n, chunks(s))).collect(),
        }
    }

    #[test]
    fn quiet_secs_prices_every_chunk_at_its_own_least() {
        // Chunk 1 is the slow kind (a migration, say): it keeps its price
        // although every other chunk is cheaper, and only the disturbed
        // replay of it is dropped.
        let replays = vec![
            vec![1.0, 9.0, 1.5],
            vec![1.2, 5.0, 1.0],
            vec![3.0, 5.5, 1.1],
        ];
        assert_eq!(quiet_secs(&replays), 1.0 + 5.0 + 1.0);
        assert_eq!(quiet_secs(&replays[..1]), 11.5);
        assert_eq!(quiet_secs(&[]), 0.0);
    }

    #[test]
    fn slowdown_compares_like_chunks_of_two_replays() {
        let base = pass(&[("a", &[1.0, 2.0, 4.0]), ("b", &[10.0])]);
        let slow = pass(&[("a", &[1.5, 3.0, 20.0]), ("b", &[11.0])]);
        // Chunk ratios 1.5, 1.5, 5 (a disturbed chunk) and 1.1.
        assert_eq!(slow.slowdown_against(&base, Some("a")), 1.5);
        assert_eq!(slow.slowdown_against(&base, None), 1.5);
        assert_eq!(slow.slowdown_against(&base, Some("b")), 1.1);
        assert_eq!(base.phase_rate_mcps("a"), 3_000.0 / 7.0 / 1e6);
        assert_eq!(base.phase_rate_mcps("absent"), 0.0);
    }

    #[test]
    fn a_control_plane_round_is_a_live_update_after_a_migration_if_any() {
        let single = CtlStats {
            live_update_ms: vec![0.5, 0.7],
            ..Default::default()
        };
        assert_eq!(single.round_ms(), vec![0.5, 0.7]);
        let node = CtlStats {
            migrate_ms: vec![2.0, 3.0],
            live_update_ms: vec![0.5, 0.7],
            downtime_cycles: vec![],
        };
        assert_eq!(node.round_ms(), vec![2.5, 3.7]);
    }
}
