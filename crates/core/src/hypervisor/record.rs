//! The one control-event emit: [`Optimus::record`]. Each event's match
//! arm alone says which `HvStats` counter it bumps, which `hv/*` metric it
//! increments or observes, which journal phase it appends and which trace
//! record it draws, so the planes agree by construction. Recording never
//! feeds back into the simulation, and a plane that is off costs no
//! formatting or allocation.

use super::Optimus;
use crate::vaccel::{VaccelId, VaccelRun};
use crate::watchdog::{AlertKind, IsolationAlert};
use optimus_sim::journal::{self, Phase};
use optimus_sim::metrics;
use optimus_sim::time::Cycle;
use optimus_sim::trace::{self, Track};

/// One hypervisor control event, stamped with the device clock at the
/// `record` call unless a field says otherwise.
pub(crate) enum HvEvent {
    /// A guest MMIO to BAR0 `offset` trapped; it costs `cycles` from now.
    Trap { va: VaccelId, offset: u64, cycles: Cycle },
    /// A trapped MMIO past the vaccel's BAR page was master-aborted.
    MmioDiscarded,
    /// A hypercall costs `cycles` from now; `arg` identifies it (a page's
    /// GVA, a share handle).
    Hypercall { va: VaccelId, arg: (&'static str, u64), cycles: Cycle },
    /// This many 2 MB pages were pinned for DMA.
    PagesPinned(u64),
    /// `va` posted `CMD_START` and `job` was minted for it.
    Submit { va: VaccelId, job: u64 },
    /// `va` was installed on `slot` at `start` (`restored`: resuming saved
    /// state); its job executes from now.
    Installed { va: VaccelId, slot: usize, job: u64, start: Cycle, restored: bool },
    /// A resident vaccel posted `CMD_START` at `start`; `job` executes
    /// from now.
    Started { job: u64, start: Cycle },
    /// `CMD_PREEMPT` went to `va`'s job on `slot`.
    Preempted { va: VaccelId, slot: usize, job: u64 },
    /// The preemption begun at `start` saved the job's state.
    Saved { va: VaccelId, slot: usize, job: u64, start: Cycle },
    /// The save was refused (`framed` state bytes do not resolve); the
    /// slot was force-reset.
    SaveRefused { va: VaccelId, slot: usize, job: u64, framed: u64 },
    /// The drain begun at `start` overran `preempt_timeout`; the slot was
    /// force-reset.
    ForcedReset { va: VaccelId, slot: usize, job: u64, start: Cycle },
    /// `slot`'s time slice ended.
    SliceBoundary { slot: usize },
    /// An isolation alert, raised now on this device.
    Alert {
        kind: AlertKind,
        slot: Option<usize>,
        observed: f64,
        threshold: f64,
        job: Option<u64>,
        peer_job: Option<u64>,
    },
    /// `job` ran to completion.
    Complete { job: u64 },
    /// Job `consumer` on `va` reads `producer`'s output through a share.
    Linked { va: VaccelId, consumer: u64, producer: u64 },
    /// Tenant `va` on `slot` left this device (`arrived`: came to it) in
    /// a migration, with `job`'s state `saved` in guest memory or not.
    Moved { va: VaccelId, slot: usize, job: u64, saved: bool, arrived: bool },
    /// A node migration carrying `job` (0: none) landed on this device.
    Migrated { job: u64 },
    /// This hypervisor froze into a snapshot (live-update).
    Frozen,
    /// This hypervisor thawed from a snapshot (live-update).
    Thawed,
}

impl Optimus {
    /// Reports `event` to every sink it reaches (see [`HvEvent`]).
    pub(crate) fn record(&mut self, event: HvEvent) {
        let now = self.device.now();
        match event {
            HvEvent::Trap { va, offset, cycles } => {
                self.stats.traps += 1;
                metrics::inc(metrics::HV_MMIO_TRAPS, va.0, 1);
                metrics::observe(metrics::HV_MMIO_TRAP_CYCLES, va.0, cycles);
                trace::complete(Track::vaccel(va.0), "mmio_trap", now, cycles, &[("offset", offset)]);
            }
            HvEvent::MmioDiscarded => self.stats.discarded_mmio += 1,
            HvEvent::Hypercall { va, arg, cycles } => {
                self.stats.hypercalls += 1;
                metrics::inc(metrics::HV_HYPERCALLS, va.0, 1);
                trace::complete(Track::vaccel(va.0), "hypercall", now, cycles, &[arg]);
            }
            HvEvent::PagesPinned(pages) => self.stats.pinned_pages += pages,
            HvEvent::Submit { va, job } => {
                if journal::enabled() {
                    let vm = self.vm(self.vaccel(va).vm);
                    let payload = vm.allocated_bytes();
                    journal::submit(job, vm.name(), va.0, self.device_id.0, payload, now);
                }
            }
            HvEvent::Installed { va, slot, job, start, restored } => {
                metrics::inc(metrics::HV_INSTALLS, va.0, 1);
                metrics::observe(metrics::HV_INSTALL_CYCLES, va.0, now - start);
                let track = Track::vaccel(va.0);
                if restored {
                    journal::phase(job, Phase::Restored, start);
                    self.flow(track, start, job, false);
                } else {
                    journal::phase(job, Phase::Installed, start);
                }
                journal::phase(job, Phase::Executing, now);
                let name = if restored { "preempt.restore" } else { "preempt.install" };
                trace::complete(track, name, start, now - start, &[("slot", slot as u64)]);
            }
            HvEvent::Started { job, start } => {
                journal::phase(job, Phase::Installed, start);
                journal::phase(job, Phase::Executing, now);
            }
            HvEvent::Preempted { va, slot, job } => {
                self.stats.preemptions += 1;
                metrics::inc(metrics::HV_PREEMPTIONS, slot as u32, 1);
                journal::phase(job, Phase::Preempted, now);
                trace::begin(Track::vaccel(va.0), "preempt", now, &[("slot", slot as u64)]);
            }
            HvEvent::Saved { va, slot, job, start } => {
                metrics::observe(metrics::HV_PREEMPT_CYCLES, slot as u32, now - start);
                journal::phase(job, Phase::Saved, now);
                trace::end(Track::vaccel(va.0), "preempt", now);
                self.flow(Track::vaccel(va.0), now, job, true);
            }
            HvEvent::SaveRefused { va, slot, job, framed } => {
                self.count_reset(AlertKind::SaveRefused, slot, job, framed as f64, 0.0);
                journal::phase(job, Phase::SaveRefused, now);
                let args = [("slot", slot as u64)];
                trace::instant(Track::vaccel(va.0), "preempt.save_refused", now, &args);
            }
            HvEvent::ForcedReset { va, slot, job, start } => {
                metrics::observe(metrics::HV_PREEMPT_CYCLES, slot as u32, now - start);
                let (observed, threshold) = ((now - start) as f64, self.preempt_timeout as f64);
                self.count_reset(AlertKind::PreemptOverrun, slot, job, observed, threshold);
                journal::phase(job, Phase::ForcedReset, now);
                trace::end(Track::vaccel(va.0), "preempt", now);
                let args = [("slot", slot as u64)];
                trace::instant(Track::vaccel(va.0), "preempt.forced_reset", now, &args);
            }
            HvEvent::SliceBoundary { slot } => {
                self.stats.context_switches += 1;
                metrics::inc(metrics::HV_CONTEXT_SWITCHES, slot as u32, 1);
                let overrun = now.saturating_sub(self.slots[slot].slice_ends);
                metrics::observe(metrics::HV_SLICE_OVERRUN_CYCLES, slot as u32, overrun);
                trace::instant(Track::hypervisor(), "slice_boundary", now, &[("slot", slot as u64)]);
            }
            HvEvent::Alert { kind, slot, observed, threshold, job, peer_job } => {
                *match kind {
                    AlertKind::Starvation => &mut self.stats.alerts_starvation,
                    AlertKind::IotlbThrash => &mut self.stats.alerts_iotlb_thrash,
                    AlertKind::PreemptOverrun => &mut self.stats.alerts_preempt_overrun,
                    AlertKind::SaveRefused => &mut self.stats.alerts_save_refused,
                } += 1;
                metrics::inc(metrics::HV_ISOLATION_ALERTS, kind.metric_label(), 1);
                let slot_arg = slot.map_or(u64::MAX, |s| s as u64);
                let args = [("kind", kind.metric_label() as u64), ("slot", slot_arg)];
                trace::instant(Track::hypervisor(), "isolation_alert", now, &args);
                self.watchdog.push(IsolationAlert {
                    kind, device: self.device_id, slot, at: now, observed, threshold, job, peer_job,
                });
            }
            HvEvent::Complete { job } => journal::phase(job, Phase::Complete, now),
            HvEvent::Linked { va, consumer, producer } => {
                if consumer != 0 {
                    journal::link(consumer, producer, now);
                    let args = [("job", consumer), ("producer", producer)];
                    trace::instant(Track::vaccel(va.0), "job.linked", now, &args);
                }
            }
            HvEvent::Moved { va, slot, job, saved, arrived } => {
                let name = if arrived { "migrate.attach" } else { "migrate.detach" };
                let args = [("va", va.0 as u64), ("slot", slot as u64)];
                trace::instant(Track::hypervisor(), name, now, &args);
                // A saved job's arrow ends on the source's clock and a new
                // one runs to its restore on the target's.
                if saved {
                    self.flow(Track::vaccel(va.0), now, job, arrived);
                }
            }
            HvEvent::Migrated { job } => {
                // On the destination's clock; accounted like a requeue.
                journal::phase(job, Phase::Migrated, now);
                metrics::inc_at(metrics::NODE_MIGRATIONS, self.device_id.0, 0, 1);
            }
            HvEvent::Frozen => self.in_flight(Phase::Frozen, "live_update.freeze", now),
            HvEvent::Thawed => self.in_flight(Phase::Thawed, "live_update.thaw", now),
        }
    }

    /// What every forced reset writes besides its own journal phase and
    /// trace instant: the counter, the metric and the alert.
    fn count_reset(&mut self, kind: AlertKind, slot: usize, job: u64, observed: f64, threshold: f64) {
        self.stats.forced_resets += 1;
        metrics::inc(metrics::HV_FORCED_RESETS, slot as u32, 1);
        let (slot, job, peer_job) = (Some(slot), (job != 0).then_some(job), None);
        self.record(HvEvent::Alert { kind, slot, observed, threshold, job, peer_job });
    }

    /// Starts (`start`) or finishes the flow arrow across `job`'s gap off
    /// the hardware, from its save to its restore. Node devices keep
    /// independent clocks, so an arrow never joins two of them: its id is
    /// the job id tagged with this device (device 0 leaves it as is).
    fn flow(&self, track: Track, ts: Cycle, job: u64, start: bool) {
        let id = job | (self.device_id.0 as u64) << 56;
        match (job, start) {
            (0, _) => {}
            (_, true) => trace::flow_start(track, "job", ts, id),
            (_, false) => trace::flow_end(track, "job", ts, id),
        }
    }

    /// A live-update mark: the instant `name`, and `phase` journaled for
    /// every job in flight. Neither phase charges a latency category, so
    /// a mid-run live-update leaves the SLO figures as they were.
    fn in_flight(&self, phase: Phase, name: &'static str, now: Cycle) {
        if journal::enabled() {
            for v in self.vaccels.values() {
                if v.run != VaccelRun::Completed {
                    journal::phase(v.job, phase, now);
                }
            }
        }
        trace::instant(Track::hypervisor(), name, now, &[]);
    }
}
