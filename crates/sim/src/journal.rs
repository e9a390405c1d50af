//! Job-lifecycle journal: causal phase records for every submitted job.
//!
//! Every `CMD_START` a tenant posts mints a stable [`JobId`] (the mint is
//! unconditional — ids are simulation state and exist whether or not the
//! journal records). When the journal is on, each job accumulates a
//! cycle-stamped phase list — submit → queued → installed → executing →
//! {preempted/saved/restored, migrated, frozen/thawed} → complete — from
//! which per-tenant SLO accounting (latency breakdowns, p50/p95/p99
//! end-to-end latency, goodput) is derived at export time and published
//! into the [`crate::metrics`] plane.
//!
//! # Gating
//!
//! The journal is **on by default** and disabled with `OPTIMUS_JOURNAL=0`
//! (accepted values: [`crate::plane::env_gate`]), sampled once per
//! thread; tests override per thread with [`set_enabled`]. Every emit
//! helper returns after one thread-local flag read when disabled.
//! Recording is read-only with respect to the simulation: a journaled
//! run and an unjournaled run of the same workload produce bit-equal
//! fingerprints (ci.sh's plane stage).
//!
//! # Threading
//!
//! Like the flight recorder, the journal is thread-local. Worker threads
//! stepping devices drain their records into [`crate::plane::Chunk`]s
//! which the node layer absorbs on the main thread **in device-index
//! order**, so a parallel run's journal is byte-identical to a serial
//! run's: a job lives on exactly one device at a time, so its phase list
//! is appended in timestamp order regardless of the thread schedule.
//!
//! # Derivation
//!
//! Latency attribution happens at export time as a pure function of the
//! merged phase list (never at record time, where a worker's chunk could
//! not see main-thread phases). Each phase charges the time since the
//! previous phase to the current category, then moves the cursor:
//! queue (submitted/saved/migrated but not resident), install (register
//! replay + VCU window programming), compute (executing on the fabric),
//! preempt (drain/save + restore), share-stall (waiting on a share-linked
//! producer, carved out of queue). `Frozen`/`Thawed`/`Linked` are fully
//! transparent — they neither charge nor advance the cursor — so a
//! mid-run live-update leaves every derived figure untouched (ci.sh
//! stage 7 depends on this).

use crate::metrics;
use crate::time::Cycle;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Stable job identity: `((device_id + 1) << 32) | per-device counter`,
/// minted at submit and preserved across migration and live-update.
pub type JobId = u64;

/// One lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The guest posted `CMD_START`.
    Submit,
    /// The job entered its slot's scheduler queue.
    Queued,
    /// The hypervisor installed the tenant on the physical slot
    /// (register replay, VCU window programming).
    Installed,
    /// A preempted job's saved state was restored onto the slot.
    Restored,
    /// The accelerator is executing the job.
    Executing,
    /// The hypervisor issued `CMD_PREEMPT`; the drain began.
    Preempted,
    /// Drain/save finished; the job's state sits in guest memory.
    Saved,
    /// The accelerator refused the save (unmapped state buffer); the
    /// slot was force-reset and the job requeued from scratch.
    SaveRefused,
    /// The drain overran its deadline; the slot was force-reset.
    ForcedReset,
    /// The tenant was live-migrated onto another device.
    Migrated,
    /// The owning hypervisor froze into a snapshot (live-update).
    Frozen,
    /// The owning hypervisor thawed from a snapshot (live-update).
    Thawed,
    /// A share retrieve linked this (consumer) job to a producer job.
    Linked,
    /// The job ran to completion.
    Complete,
    /// The tenant was evicted with the job in flight.
    Evicted,
}

impl Phase {
    /// Stable lowercase name (JSON exports, tests).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Submit => "submit",
            Phase::Queued => "queued",
            Phase::Installed => "installed",
            Phase::Restored => "restored",
            Phase::Executing => "executing",
            Phase::Preempted => "preempted",
            Phase::Saved => "saved",
            Phase::SaveRefused => "save_refused",
            Phase::ForcedReset => "forced_reset",
            Phase::Migrated => "migrated",
            Phase::Frozen => "frozen",
            Phase::Thawed => "thawed",
            Phase::Linked => "linked",
            Phase::Complete => "complete",
            Phase::Evicted => "evicted",
        }
    }
}

/// One job's journal record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobRecord {
    /// The minted job id.
    pub job: JobId,
    /// Owning tenant name (empty in a worker-side stub until merged).
    pub tenant: String,
    /// Submitting vaccel id (at submit time; migration re-mints vaccel
    /// ids but the job id is stable).
    pub vaccel: u32,
    /// Device the job was submitted on.
    pub device: u32,
    /// Working-set proxy: guest pages mapped at submit, in bytes.
    pub payload_bytes: u64,
    /// Producer job this (consumer) job reads through a share, if any.
    pub peer: Option<JobId>,
    /// Phase transitions in causal order.
    pub phases: Vec<(Phase, Cycle)>,
    /// Episodes already published into the metrics plane.
    published: usize,
}

/// How a derived episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Still running when the journal was read.
    InFlight,
    /// Reached [`Phase::Complete`].
    Completed,
    /// Reached [`Phase::Evicted`].
    Evicted,
}

/// Where each cycle of one submit→complete episode went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Breakdown {
    /// Waiting in the scheduler queue (minus any share stall).
    pub queue: u64,
    /// Install cost: register replay + VCU window programming.
    pub install: u64,
    /// Executing on the fabric.
    pub compute: u64,
    /// Preemption overhead: drain/save plus restore.
    pub preempt: u64,
    /// Queue time overlapped with a share-linked producer still
    /// producing — carved out of `queue`.
    pub share_stall: u64,
}

/// One derived submit→{complete,evicted,now} episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Submit timestamp.
    pub submit: Cycle,
    /// Complete/evict timestamp, or the last charged phase for an
    /// in-flight episode.
    pub end: Cycle,
    /// Latency attribution.
    pub breakdown: Breakdown,
    /// How the episode ended.
    pub outcome: Outcome,
    /// Working-set proxy at submit, bytes.
    pub payload_bytes: u64,
}

impl Episode {
    /// End-to-end latency in cycles (submit → end).
    pub fn e2e(&self) -> u64 {
        self.end.saturating_sub(self.submit)
    }
}

/// Exact nearest-rank distribution over one episode field, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dist {
    /// Samples aggregated.
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub mean: f64,
    pub max: u64,
}

impl Dist {
    fn from_samples(samples: &mut Vec<u64>) -> Dist {
        if samples.is_empty() {
            return Dist::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        Dist {
            count: n as u64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: samples.iter().sum::<u64>() as f64 / n as f64,
            max: samples[n - 1],
        }
    }
}

/// Per-tenant SLO summary derived from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant name.
    pub tenant: String,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs evicted in flight.
    pub evicted: u64,
    /// Jobs still in flight.
    pub in_flight: u64,
    /// Completed-job payload bytes.
    pub payload_bytes: u64,
    /// Completed payload bytes per second of span (first submit → last
    /// complete), at the 400 MHz fabric clock. 0 with no completions.
    pub goodput_bytes_per_sec: f64,
    /// End-to-end latency over completed jobs only.
    pub e2e: Dist,
    /// Breakdown distributions over all derived episodes (in-flight
    /// episodes charge up to their last recorded phase).
    pub queue: Dist,
    pub install: Dist,
    pub compute: Dist,
    pub preempt: Dist,
    pub share_stall: Dist,
}

#[derive(Debug, Default)]
struct Plane {
    recs: BTreeMap<JobId, JobRecord>,
}

thread_local! {
    static ENABLED: Cell<bool> = Cell::new(crate::plane::env_gate("OPTIMUS_JOURNAL", true));
    static PLANE: RefCell<Plane> = RefCell::new(Plane::default());
}

/// Returns `true` if the journal is recording on this thread.
///
/// A single thread-local read; emission sites branch on this and fall
/// through untouched when journaling is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|c| c.get())
}

/// Overrides the `OPTIMUS_JOURNAL` gate for the current thread (tests
/// and the journal-on/off differential property).
pub fn set_enabled(on: bool) {
    ENABLED.with(|c| c.set(on));
}

/// Discards every record on this thread.
pub fn reset() {
    PLANE.with(|p| p.borrow_mut().recs.clear());
}

/// Number of jobs journaled on this thread.
pub fn job_count() -> usize {
    PLANE.with(|p| p.borrow().recs.len())
}

/// Records a job submission: creates (or re-opens) the record and stamps
/// [`Phase::Submit`] followed by [`Phase::Queued`].
#[inline]
pub fn submit(job: JobId, tenant: &str, vaccel: u32, device: u32, payload_bytes: u64, ts: Cycle) {
    if !enabled() {
        return;
    }
    PLANE.with(|p| {
        let mut p = p.borrow_mut();
        let rec = p.recs.entry(job).or_insert_with(|| JobRecord {
            job,
            ..JobRecord::default()
        });
        rec.tenant = tenant.to_string();
        rec.vaccel = vaccel;
        rec.device = device;
        rec.payload_bytes = payload_bytes;
        rec.phases.push((Phase::Submit, ts));
        rec.phases.push((Phase::Queued, ts));
    });
}

/// Appends one phase transition to a job's record (creating a stub
/// record if this thread has never seen the job — worker threads stub
/// jobs submitted on the main thread, and the merge fills the metadata).
/// Job 0, the id of no job, records nothing.
#[inline]
pub fn phase(job: JobId, phase: Phase, ts: Cycle) {
    if !enabled() || job == 0 {
        return;
    }
    PLANE.with(|p| {
        let mut p = p.borrow_mut();
        let rec = p.recs.entry(job).or_insert_with(|| JobRecord {
            job,
            ..JobRecord::default()
        });
        rec.phases.push((phase, ts));
    });
}

/// Links a consumer job to the producer job whose shared span it reads.
#[inline]
pub fn link(consumer: JobId, producer: JobId, ts: Cycle) {
    if !enabled() {
        return;
    }
    PLANE.with(|p| {
        let mut p = p.borrow_mut();
        let rec = p.recs.entry(consumer).or_insert_with(|| JobRecord {
            job: consumer,
            ..JobRecord::default()
        });
        rec.peer = Some(producer);
        rec.phases.push((Phase::Linked, ts));
    });
}

/// Records drained from one thread's journal for replay on another (the
/// journal leg of [`crate::plane::Chunk`]).
#[derive(Debug, Default)]
pub(crate) struct JournalChunk {
    recs: Vec<JobRecord>,
}

/// Drains this thread's journal.
pub(crate) fn take_chunk() -> JournalChunk {
    PLANE.with(|p| JournalChunk {
        recs: std::mem::take(&mut p.borrow_mut().recs).into_values().collect(),
    })
}

/// Merges a chunk into this thread's journal: unknown jobs are inserted
/// whole; known jobs append the chunk's phases (a job runs on exactly
/// one device, so device-index-order absorption appends in timestamp
/// order) and fill any metadata the stub lacked.
pub(crate) fn absorb_chunk(chunk: JournalChunk) {
    PLANE.with(|p| {
        let mut p = p.borrow_mut();
        for rec in chunk.recs {
            match p.recs.entry(rec.job) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(rec);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let dst = e.get_mut();
                    if dst.tenant.is_empty() && !rec.tenant.is_empty() {
                        dst.tenant = rec.tenant;
                        dst.vaccel = rec.vaccel;
                        dst.device = rec.device;
                    }
                    if rec.payload_bytes != 0 {
                        dst.payload_bytes = rec.payload_bytes;
                    }
                    if dst.peer.is_none() {
                        dst.peer = rec.peer;
                    }
                    dst.phases.extend(rec.phases);
                }
            }
        }
    });
}

/// Clones every record in ascending [`JobId`] order (tests, exports).
pub fn export() -> Vec<JobRecord> {
    PLANE.with(|p| p.borrow().recs.values().cloned().collect())
}

/// Splits one record's phase list into submit→{complete,evicted,now}
/// episodes and attributes every cycle to a breakdown category.
///
/// `Frozen`/`Thawed`/`Linked` are transparent (no charge, no cursor
/// move, never the in-flight horizon), so live-update leaves every
/// derived figure bit-identical.
fn episodes(rec: &JobRecord) -> Vec<Episode> {
    #[derive(Clone, Copy, PartialEq)]
    enum Cat {
        Queue,
        Install,
        Compute,
        Preempt,
    }
    let mut out = Vec::new();
    let mut cur: Option<(Episode, Cat, Cycle)> = None;
    for &(ph, ts) in &rec.phases {
        if matches!(ph, Phase::Frozen | Phase::Thawed | Phase::Linked) {
            continue;
        }
        if ph == Phase::Submit {
            if let Some((ep, _, _)) = cur.take() {
                out.push(ep);
            }
            cur = Some((
                Episode {
                    submit: ts,
                    end: ts,
                    breakdown: Breakdown::default(),
                    outcome: Outcome::InFlight,
                    payload_bytes: rec.payload_bytes,
                },
                Cat::Queue,
                ts,
            ));
            continue;
        }
        let Some((ep, cat, last)) = cur.as_mut() else {
            continue;
        };
        let delta = ts.saturating_sub(*last);
        match *cat {
            Cat::Queue => ep.breakdown.queue += delta,
            Cat::Install => ep.breakdown.install += delta,
            Cat::Compute => ep.breakdown.compute += delta,
            Cat::Preempt => ep.breakdown.preempt += delta,
        }
        *last = ts;
        ep.end = ts;
        match ph {
            Phase::Queued => *cat = Cat::Queue,
            Phase::Installed => *cat = Cat::Install,
            // Restoring saved state is preemption cost (Fig. 8), not a
            // fresh install.
            Phase::Restored | Phase::Preempted => *cat = Cat::Preempt,
            Phase::Executing => *cat = Cat::Compute,
            Phase::Saved | Phase::SaveRefused | Phase::ForcedReset | Phase::Migrated => {
                *cat = Cat::Queue
            }
            Phase::Complete => {
                ep.outcome = Outcome::Completed;
                out.push(cur.take().unwrap().0);
            }
            Phase::Evicted => {
                ep.outcome = Outcome::Evicted;
                out.push(cur.take().unwrap().0);
            }
            Phase::Submit | Phase::Frozen | Phase::Thawed | Phase::Linked => unreachable!(),
        }
    }
    if let Some((ep, _, _)) = cur {
        out.push(ep);
    }
    out
}

/// Carves the share stall out of an episode's queue time: the span the
/// consumer sat submitted while its linked producer had not yet
/// completed, clamped to the consumer's pre-execute window.
fn apply_share_stall(ep: &mut Episode, first_exec: Option<Cycle>, peer_completes: &[Cycle]) {
    let Some(first_exec) = first_exec else { return };
    // The producer completion the consumer actually waited for: the
    // latest one at or before this episode's end.
    let peer_done = peer_completes
        .iter()
        .rev()
        .find(|&&t| t <= ep.end)
        .copied()
        .unwrap_or(0);
    let stall = peer_done
        .saturating_sub(ep.submit)
        .min(first_exec.saturating_sub(ep.submit))
        .min(ep.breakdown.queue);
    ep.breakdown.share_stall = stall;
    ep.breakdown.queue -= stall;
}

/// First [`Phase::Executing`] timestamp of each episode, aligned with
/// [`episodes`]'s episode order.
fn first_exec_per_episode(rec: &JobRecord) -> Vec<Option<Cycle>> {
    let mut out = Vec::new();
    let mut cur: Option<Option<Cycle>> = None;
    for &(ph, ts) in &rec.phases {
        match ph {
            Phase::Submit => {
                if let Some(v) = cur.take() {
                    out.push(v);
                }
                cur = Some(None);
            }
            Phase::Executing => {
                if let Some(v) = cur.as_mut() {
                    v.get_or_insert(ts);
                }
            }
            Phase::Complete | Phase::Evicted => {
                if let Some(v) = cur.take() {
                    out.push(v);
                }
            }
            _ => {}
        }
    }
    if let Some(v) = cur {
        out.push(v);
    }
    out
}

/// Derives every episode of every job, share stalls applied.
fn all_episodes(recs: &BTreeMap<JobId, JobRecord>) -> BTreeMap<JobId, Vec<Episode>> {
    let mut out = BTreeMap::new();
    for (&job, rec) in recs {
        let mut eps = episodes(rec);
        if let Some(peer) = rec.peer {
            if let Some(peer_rec) = recs.get(&peer) {
                let peer_completes: Vec<Cycle> = peer_rec
                    .phases
                    .iter()
                    .filter(|(p, _)| *p == Phase::Complete)
                    .map(|&(_, t)| t)
                    .collect();
                let firsts = first_exec_per_episode(rec);
                for (ep, first) in eps.iter_mut().zip(firsts) {
                    apply_share_stall(ep, first, &peer_completes);
                }
            }
        }
        out.insert(job, eps);
    }
    out
}

/// Publishes every *finished* (completed or evicted) episode not yet
/// published into the metrics plane: breakdown and end-to-end histograms
/// labelled by vaccel, plus completed-job and payload counters. Called
/// once per report; idempotent per episode, so counters stay monotone.
pub fn publish_metrics() {
    PLANE.with(|p| {
        let mut p = p.borrow_mut();
        let eps_by_job = all_episodes(&p.recs);
        for (job, eps) in eps_by_job {
            let rec = p.recs.get_mut(&job).expect("derived from this map");
            let label = rec.vaccel;
            let dev = rec.device;
            let mut published = rec.published;
            for ep in eps.iter().skip(rec.published) {
                if ep.outcome == Outcome::InFlight {
                    break;
                }
                published += 1;
                metrics::observe_at(metrics::SLO_QUEUE_CYCLES, dev, label, ep.breakdown.queue);
                metrics::observe_at(metrics::SLO_INSTALL_CYCLES, dev, label, ep.breakdown.install);
                metrics::observe_at(metrics::SLO_COMPUTE_CYCLES, dev, label, ep.breakdown.compute);
                metrics::observe_at(metrics::SLO_PREEMPT_CYCLES, dev, label, ep.breakdown.preempt);
                metrics::observe_at(
                    metrics::SLO_SHARE_STALL_CYCLES,
                    dev,
                    label,
                    ep.breakdown.share_stall,
                );
                if ep.outcome == Outcome::Completed {
                    metrics::observe_at(metrics::SLO_E2E_CYCLES, dev, label, ep.e2e());
                    metrics::inc_at(metrics::SLO_JOBS_COMPLETED, dev, label, 1);
                    metrics::inc_at(metrics::SLO_PAYLOAD_BYTES, dev, label, ep.payload_bytes);
                }
            }
            rec.published = published;
        }
    });
}

/// Derives the per-tenant SLO summaries, sorted by tenant name.
pub fn tenant_summaries() -> Vec<TenantSlo> {
    PLANE.with(|p| {
        let p = p.borrow();
        let eps_by_job = all_episodes(&p.recs);
        #[derive(Default)]
        struct Acc {
            submitted: u64,
            completed: u64,
            evicted: u64,
            in_flight: u64,
            payload: u64,
            first_submit: Option<Cycle>,
            last_complete: Option<Cycle>,
            e2e: Vec<u64>,
            queue: Vec<u64>,
            install: Vec<u64>,
            compute: Vec<u64>,
            preempt: Vec<u64>,
            stall: Vec<u64>,
        }
        let mut by_tenant: BTreeMap<String, Acc> = BTreeMap::new();
        for (job, eps) in &eps_by_job {
            let rec = &p.recs[job];
            let acc = by_tenant.entry(rec.tenant.clone()).or_default();
            for ep in eps {
                acc.submitted += 1;
                acc.queue.push(ep.breakdown.queue);
                acc.install.push(ep.breakdown.install);
                acc.compute.push(ep.breakdown.compute);
                acc.preempt.push(ep.breakdown.preempt);
                acc.stall.push(ep.breakdown.share_stall);
                match ep.outcome {
                    Outcome::Completed => {
                        acc.completed += 1;
                        acc.payload += ep.payload_bytes;
                        acc.e2e.push(ep.e2e());
                        acc.first_submit =
                            Some(acc.first_submit.map_or(ep.submit, |f| f.min(ep.submit)));
                        acc.last_complete =
                            Some(acc.last_complete.map_or(ep.end, |l| l.max(ep.end)));
                    }
                    Outcome::Evicted => acc.evicted += 1,
                    Outcome::InFlight => acc.in_flight += 1,
                }
            }
        }
        by_tenant
            .into_iter()
            .map(|(tenant, mut acc)| {
                let span = match (acc.first_submit, acc.last_complete) {
                    (Some(f), Some(l)) => l.saturating_sub(f),
                    _ => 0,
                };
                let goodput = if span > 0 {
                    acc.payload as f64 * crate::time::FABRIC_HZ as f64 / span as f64
                } else {
                    0.0
                };
                TenantSlo {
                    tenant,
                    submitted: acc.submitted,
                    completed: acc.completed,
                    evicted: acc.evicted,
                    in_flight: acc.in_flight,
                    payload_bytes: acc.payload,
                    goodput_bytes_per_sec: goodput,
                    e2e: Dist::from_samples(&mut acc.e2e),
                    queue: Dist::from_samples(&mut acc.queue),
                    install: Dist::from_samples(&mut acc.install),
                    compute: Dist::from_samples(&mut acc.compute),
                    preempt: Dist::from_samples(&mut acc.preempt),
                    share_stall: Dist::from_samples(&mut acc.stall),
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each #[test] runs on its own thread, so the thread-local plane is
    // naturally isolated between tests.

    #[test]
    fn disabled_journal_stays_empty() {
        set_enabled(false);
        submit(1, "t", 0, 0, 4096, 10);
        phase(1, Phase::Executing, 20);
        assert_eq!(job_count(), 0);
    }

    #[test]
    fn breakdown_attributes_every_cycle() {
        set_enabled(true);
        reset();
        submit(7, "t", 2, 0, 1 << 21, 100);
        phase(7, Phase::Installed, 150); // 50 queue
        phase(7, Phase::Executing, 180); // 30 install
        phase(7, Phase::Preempted, 300); // 120 compute
        phase(7, Phase::Saved, 340); //  40 preempt
        phase(7, Phase::Restored, 500); // 160 queue
        phase(7, Phase::Executing, 520); //  20 preempt (restore)
        phase(7, Phase::Complete, 700); // 180 compute
        let recs = export();
        assert_eq!(recs.len(), 1);
        let eps = episodes(&recs[0]);
        assert_eq!(eps.len(), 1);
        let ep = &eps[0];
        assert_eq!(ep.outcome, Outcome::Completed);
        assert_eq!(ep.breakdown.queue, 50 + 160);
        assert_eq!(ep.breakdown.install, 30);
        assert_eq!(ep.breakdown.compute, 120 + 180);
        assert_eq!(ep.breakdown.preempt, 40 + 20);
        assert_eq!(ep.e2e(), 600);
        let total = ep.breakdown.queue + ep.breakdown.install + ep.breakdown.compute
            + ep.breakdown.preempt;
        assert_eq!(total, ep.e2e(), "every cycle attributed");
    }

    #[test]
    fn frozen_thawed_are_transparent() {
        set_enabled(true);
        reset();
        for (job, with_lu) in [(1u64, false), (2u64, true)] {
            submit(job, "t", 0, 0, 0, 100);
            phase(job, Phase::Installed, 150);
            phase(job, Phase::Executing, 180);
            if with_lu {
                phase(job, Phase::Frozen, 200);
                phase(job, Phase::Thawed, 200);
            }
            phase(job, Phase::Complete, 700);
        }
        let recs = export();
        let a = episodes(&recs[0]);
        let b = episodes(&recs[1]);
        assert_eq!(a, b, "live-update phases must not change the derivation");
    }

    #[test]
    fn in_flight_horizon_ignores_frozen() {
        set_enabled(true);
        reset();
        submit(1, "t", 0, 0, 0, 100);
        phase(1, Phase::Executing, 200);
        phase(1, Phase::Frozen, 900);
        phase(1, Phase::Thawed, 900);
        let eps = episodes(&export()[0]);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].outcome, Outcome::InFlight);
        assert_eq!(eps[0].end, 200, "freeze must not extend the charge horizon");
    }

    #[test]
    fn share_stall_carved_out_of_queue() {
        set_enabled(true);
        reset();
        // Producer completes at t=400 while the consumer sits queued.
        submit(10, "producer", 0, 0, 0, 50);
        phase(10, Phase::Executing, 60);
        phase(10, Phase::Complete, 400);
        submit(20, "consumer", 1, 0, 0, 100);
        link(20, 10, 110);
        phase(20, Phase::Installed, 500);
        phase(20, Phase::Executing, 510);
        phase(20, Phase::Complete, 900);
        let sums = tenant_summaries();
        let consumer = sums.iter().find(|t| t.tenant == "consumer").unwrap();
        // Queued 100→500 (400 cycles); the producer was still producing
        // for 300 of them.
        assert_eq!(consumer.share_stall.max, 300);
        assert_eq!(consumer.queue.max, 100);
    }

    #[test]
    fn reused_vaccel_yields_two_episodes() {
        set_enabled(true);
        reset();
        for (base, job) in [(100u64, 1u64), (1000, 1)] {
            submit(job, "t", 0, 0, 64, base);
            phase(job, Phase::Executing, base + 10);
            phase(job, Phase::Complete, base + 50);
        }
        let eps = episodes(&export()[0]);
        assert_eq!(eps.len(), 2);
        assert!(eps.iter().all(|e| e.outcome == Outcome::Completed));
        let sums = tenant_summaries();
        assert_eq!(sums[0].completed, 2);
    }

    #[test]
    fn dist_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).collect();
        let d = Dist::from_samples(&mut samples);
        assert_eq!(d.p50, 50);
        assert_eq!(d.p95, 95);
        assert_eq!(d.p99, 99);
        assert_eq!(d.max, 100);
        assert_eq!(d.count, 100);
    }
}
