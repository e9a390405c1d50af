//! Slot residency and preemptive temporal multiplexing (§4.2, Fig. 8).
//!
//! Which virtual accelerator occupies each physical slot, and the
//! transitions between occupants: `install` (reset, program the slice
//! window, replay the cached registers, start or resume), `preempt_slot`
//! (drain + save, with one forced-reset fallback), the end-of-slice
//! decision, job retirement, and the watchdog's window evaluation. Each
//! transition reports itself through one [`HvEvent`] record.

use super::{HvEvent, Optimus};
use crate::vaccel::{VaccelId, VaccelRun};
use crate::watchdog::AlertKind;
use optimus_fabric::accelerator::CtrlStatus;
use optimus_fabric::mmio::{accel_mmio_base, accel_reg, vcu_reg, ACCEL_PAGE, VCU_BASE};
use optimus_mem::addr::{Gva, PAGE_4K};
use optimus_sim::metrics;
use optimus_sim::spec;
use optimus_sim::time::{ns_to_cycles, Cycle};

impl Optimus {
    /// Whether `va` is currently occupying its physical slot.
    pub(super) fn is_scheduled(&self, va: VaccelId) -> bool {
        self.slots[self.vaccel(va).slot].current == Some(va)
    }

    /// Anchors the vaccel's IOVA window at its first DMA-visible region
    /// and charges the BAR2 report trap. An idle vaccel can be scheduled
    /// (and `install`ed) before its guest pins any memory, in which case
    /// the VCU offset table was programmed from a zero `dma_base` and
    /// every later DMA would translate outside the slice window — so if
    /// the vaccel is already on hardware, reprogram its slot's offset
    /// now that the real anchor is known.
    pub(super) fn anchor_dma_base(&mut self, va: VaccelId, gva: Gva) {
        self.vaccel_mut(va).dma_base = gva;
        self.trap_cost(va, 0);
        if !self.passthrough && self.is_scheduled(va) {
            let v = self.vaccel(va);
            let (slot, offset) = (v.slot, self.slicing.offset_for(v.slice, v.dma_base));
            self.device
                .mmio_write(VCU_BASE + vcu_reg::OFFSET_TABLE + slot as u64 * 8, offset);
        }
    }

    /// Forwards the full cached register file + control state to the
    /// physical accelerator and starts or resumes the job.
    fn install(&mut self, va: VaccelId) {
        let slot = self.vaccel(va).slot;
        let base = accel_mmio_base(slot);
        let install_start = self.device.now();
        if !self.passthrough {
            // Clear the physical accelerator's previous occupant's state
            // via the VCU reset table ("to clear state for isolation
            // purposes on a VM context switch", §4.1). The outgoing
            // vaccel's state — if it matters — has already been saved to
            // memory.
            self.device
                .mmio_write(VCU_BASE + vcu_reg::RESET_TABLE + slot as u64 * 8, 1);
            // Program the offset table with this vaccel's slice (skipped
            // in pass-through, where IOVA = GVA already).
            let v = self.vaccel(va);
            let offset = self.slicing.offset_for(v.slice, v.dma_base);
            // Fence the auditor's outbound window to this tenant's own
            // slice: without it, a wild guest pointer one byte past the
            // slice end translates — via the same offset add — straight
            // into the *next* tenant's slice, and the IOMMU (which maps
            // that slice for its rightful owner) happily serves it.
            let win_base = self.slicing.slice_base(v.slice).raw();
            self.device
                .mmio_write(VCU_BASE + vcu_reg::OFFSET_TABLE + slot as u64 * 8, offset);
            self.device.mmio_write(
                VCU_BASE + vcu_reg::WINDOW_BASE_TABLE + slot as u64 * 8,
                win_base,
            );
            self.device.mmio_write(
                VCU_BASE + vcu_reg::WINDOW_LEN_TABLE + slot as u64 * 8,
                self.slicing.slice_bytes,
            );
        }
        let v = self.vaccel(va);
        spec::bind_slot(self.device_id.0, slot, v.vm.0);
        let state_buffer = v.state_buffer.raw();
        let run = v.run;
        let pending_start = v.pending_start;
        let job = v.job;
        self.device.mmio_write(base + accel_reg::CTRL_STATE_ADDR, state_buffer);
        // Move the cached register file out, replay it, and move it back:
        // installs happen on every context switch, so avoid re-collecting
        // the map into a fresh Vec each time.
        let regs = std::mem::take(&mut self.vaccel_mut(va).app_regs);
        for (&off, &val) in regs.iter() {
            self.device.mmio_write(base + accel_reg::APP_BASE + off, val);
        }
        self.vaccel_mut(va).app_regs = regs;
        let restored = run == VaccelRun::SavedInMemory;
        match run {
            VaccelRun::SavedInMemory => {
                self.device.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
            }
            _ if pending_start => {
                self.device.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_START);
                self.vaccel_mut(va).pending_start = false;
            }
            _ => {}
        }
        self.vaccel_mut(va).run = VaccelRun::Scheduled;
        self.slots[slot].current = Some(va);
        // Let the install MMIOs settle (they are asynchronous writes).
        self.advance(ns_to_cycles(500.0));
        self.record(HvEvent::Installed { va, slot, job, start: install_start, restored });
    }

    /// Takes the vaccel currently on `slot` (if any) off the hardware:
    /// retired if its job is done, drained and saved if its state buffer
    /// can take the save, force-reset otherwise.
    pub(super) fn preempt_slot(&mut self, slot: usize) {
        let Some(va) = self.slots[slot].current else {
            return;
        };
        // Claim the scope before anything that steps the device (the
        // state-size MMIO read below drives the fabric until the response
        // returns): a migration-driven preempt arrives from outside the
        // run loop, where the ambient device scope may still belong to a
        // sibling device on the node.
        metrics::set_device(self.device_id.0);
        if self.device.accel(slot).status() == CtrlStatus::Done {
            // A job that already completed needs no save — but its result
            // registers are about to be lost to the next install, so
            // harvest them into the vaccel's cached register file first
            // (the guest keeps reading results through the shadow after
            // eviction).
            self.harvest_app_regs(va, slot);
            self.retire(va);
        } else {
            // Resolve the guest-provided state buffer before trusting the
            // drain+save path. The save stream is ordinary DMA: lines
            // aimed at an unmapped (or never-programmed) buffer
            // master-abort at the auditor window, the abort acks complete
            // the save, and the accelerator truthfully reports `Saved` for
            // state that landed nowhere — the later resume then streams
            // back garbage. Refuse up front and force-reset the slot
            // instead: same outcome the watchdog used to reach, without
            // burning a preempt window and without ever marking vanished
            // state as saved.
            let size_reg = accel_mmio_base(slot) + accel_reg::CTRL_STATE_SIZE;
            let framed = accel_reg::framed_state_bytes(self.device.mmio_read(size_reg))
                .expect("state fits memory");
            if self.state_buffer_resolves(va, framed) {
                self.drain_and_save(va, slot);
            } else {
                self.force_reset(va, slot, framed, None);
            }
        }
        self.slots[slot].current = None;
        spec::unbind_slot(self.device_id.0, slot);
    }

    /// The Fig. 8 preemption proper: `CMD_PREEMPT`, then poll until the
    /// accelerator reports `Saved` — or `preempt_timeout` passes and the
    /// slot is force-reset (§4.2).
    fn drain_and_save(&mut self, va: VaccelId, slot: usize) {
        let cmd = accel_mmio_base(slot) + accel_reg::CTRL_CMD;
        self.device.mmio_write(cmd, accel_reg::CMD_PREEMPT);
        let job = self.vaccel(va).job;
        self.record(HvEvent::Preempted { va, slot, job });
        let start = self.device.now();
        let deadline = start + self.preempt_timeout;
        loop {
            self.advance(ns_to_cycles(1000.0));
            if self.device.accel(slot).status() == CtrlStatus::Saved {
                self.vaccel_mut(va).run = VaccelRun::SavedInMemory;
                return self.record(HvEvent::Saved { va, slot, job, start });
            }
            if self.device.now() >= deadline {
                return self.force_reset(va, slot, 0, Some(start));
            }
        }
    }

    /// The one fallback under both ways a preemption fails (§4.2): resets
    /// `slot` through the VCU and records why. `drain` is `None` when the
    /// save was refused up front (`framed` bytes of state buffer do not
    /// resolve), or the start cycle of the drain that outlived
    /// `preempt_timeout`. The job's progress is lost; it restarts from its
    /// cached registers at its next slice.
    fn force_reset(&mut self, va: VaccelId, slot: usize, framed: u64, drain: Option<Cycle>) {
        self.device
            .mmio_write(VCU_BASE + vcu_reg::RESET_TABLE + slot as u64 * 8, 1);
        self.advance(ns_to_cycles(1000.0));
        let job = self.vaccel(va).job;
        self.record(match drain {
            None => HvEvent::SaveRefused { va, slot, job, framed },
            Some(start) => HvEvent::ForcedReset { va, slot, job, start },
        });
        let v = self.vaccel_mut(va);
        v.forced_resets += 1;
        v.run = VaccelRun::Fresh;
        v.pending_start = true;
    }

    /// Copies the physical slot's application register file into the
    /// vaccel's cached (shadow) registers. Called when a *completed* job
    /// is evicted from its slot: the next install resets the hardware, and
    /// the shadow is what the guest's post-completion MMIO reads return.
    /// Uses the side-effect-free peek, so no simulated time elapses.
    fn harvest_app_regs(&mut self, va: VaccelId, slot: usize) {
        let mut off = 0;
        while off < ACCEL_PAGE - accel_reg::APP_BASE {
            let value = self.device.accel(slot).peek_reg(off);
            if value != 0 || self.vaccel(va).app_regs.contains_key(&off) {
                self.vaccel_mut(va).cache_app_reg(off, value);
            }
            off += 8;
        }
    }

    /// Whether every page of `[state_buffer, state_buffer + framed_len)`
    /// resolves through the tenant's address space — the precondition for
    /// letting a drain+save stream state there.
    fn state_buffer_resolves(&self, va: VaccelId, framed_len: u64) -> bool {
        let v = self.vaccel(va);
        let vm = self.vm(v.vm);
        let start = v.state_buffer.raw();
        let mut off = 0;
        while off < framed_len {
            if vm.gva_to_hpa(Gva::new(start + off)).is_err() {
                return false;
            }
            off += PAGE_4K;
        }
        vm.gva_to_hpa(Gva::new(start + framed_len - 1)).is_ok()
    }

    /// Marks a vaccel's job complete. The vaccel *stays resident* on its
    /// physical accelerator (so the guest can still read result registers
    /// from hardware) until another virtual accelerator needs the slot.
    pub(super) fn retire(&mut self, va: VaccelId) {
        let v = self.vaccel_mut(va);
        // Guests may keep polling CTRL_STATUS after completion (the slot
        // still latches `Done` while the vaccel is resident); only the
        // first retire ends the job.
        let fresh = v.run != VaccelRun::Completed;
        v.run = VaccelRun::Completed;
        v.shadow_status = CtrlStatus::Done;
        let slot = v.slot;
        let job = v.job;
        self.slots[slot].sched.set_runnable(va.0 as u64, false);
        if fresh {
            self.record(HvEvent::Complete { job });
        }
    }

    /// Ensures `slot` has a scheduled vaccel and a slice deadline.
    pub(super) fn maybe_schedule(&mut self, slot: usize) {
        if self.slots[slot].current.is_some() || self.slots[slot].sched.is_empty() {
            return;
        }
        if let Some((key, len)) = self.slots[slot].sched.next_slice() {
            let va = VaccelId(key as u32);
            self.install(va);
            self.slots[slot].slice_ends = self.device.now() + len;
        }
    }

    /// Performs the end-of-slice decision for `slot`.
    pub(super) fn slice_boundary(&mut self, slot: usize) {
        self.record(HvEvent::SliceBoundary { slot });
        let current = self.slots[slot].current;
        // Completed jobs retire (but stay resident until displaced, so the
        // guest can read result registers from hardware).
        if let Some(va) = current {
            if self.device.accel(slot).status() == CtrlStatus::Done {
                self.retire(va);
            }
        }
        match self.slots[slot].sched.next_slice() {
            Some((key, len)) if Some(VaccelId(key as u32)) == current => {
                // Same vaccel keeps the accelerator: no preemption needed.
                self.slots[slot].slice_ends = self.device.now() + len;
            }
            Some((key, len)) => {
                self.preempt_slot(slot);
                self.install(VaccelId(key as u32));
                self.slots[slot].slice_ends = self.device.now() + len;
            }
            None => {
                self.preempt_slot(slot);
                self.slots[slot].slice_ends = self.device.now() + self.time_slice;
            }
        }
    }

    /// One watchdog window evaluation: diffs device-owned counters since
    /// the previous evaluation and raises starvation / IOTLB-thrash
    /// alerts. Reads only deterministic device state, so the alert stream
    /// is identical with metrics or tracing on or off and under parallel
    /// node stepping.
    pub(super) fn watchdog_tick(&mut self) {
        let now = self.device.now();
        let cfg = *self.watchdog.config();
        // The tick can fire before this hypervisor has advanced its
        // device in the current chunk, so the scope may still belong to
        // a sibling device on the node — claim it explicitly.
        metrics::set_device(self.device_id.0);
        // Per-slot root grants since the last window, computed into the
        // watchdog's reusable scratch buffer so a tick allocates nothing.
        let mut deltas = std::mem::take(&mut self.watchdog.scratch);
        deltas.clear();
        for s in 0..self.slots.len() {
            let cur = self.device.port_forwarded(s);
            deltas.push(cur - self.watchdog.last_forwarded[s]);
            self.watchdog.last_forwarded[s] = cur;
        }
        let active = self.slots.iter().filter(|slot| slot.current.is_some()).count();
        let total: u64 = deltas.iter().sum();
        if active >= 2 && total >= cfg.min_grants {
            let fair = total as f64 / active as f64;
            let threshold = cfg.starvation_share * fair;
            // One ascending pass raises starvation alerts and accumulates
            // the Jain fairness sums in the same addition order the old
            // two-pass code used, so the gauge stays bit-identical.
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for s in 0..self.slots.len() {
                let Some(va) = self.slots[s].current else {
                    continue;
                };
                let d = deltas[s] as f64;
                if d < threshold {
                    // Name the starved job, and — for share-linked jobs —
                    // the peer on the other end of the channel: a stalled
                    // consumer's alert names the starved producer.
                    let v = self.vaccel(va);
                    let job = (v.job != 0).then_some(v.job);
                    let peer_job = job.and_then(|_| self.peer_job(v.vm.0, true));
                    let (kind, slot, observed) = (AlertKind::Starvation, Some(s), d);
                    self.record(HvEvent::Alert { kind, slot, observed, threshold, job, peer_job });
                }
                sum += d;
                sum_sq += d.powi(2);
            }
            // Jain's fairness index over the active slots' window shares.
            if sum_sq > 0.0 {
                let jain = sum * sum / (active as f64 * sum_sq);
                metrics::set_gauge(metrics::FABRIC_FAIRNESS_JAIN, 0, jain);
            }
        }
        self.watchdog.scratch = deltas;
        // Device-wide IOTLB thrash (the Fig. 6 conflict-eviction storm).
        let (hits, spec, misses, conflicts) = self.device.host().iommu().tlb().stats();
        let lookups = hits + spec + misses;
        let (last_lookups, last_conflicts) = self.watchdog.last_iotlb;
        let dl = lookups - last_lookups;
        let dc = conflicts - last_conflicts;
        self.watchdog.last_iotlb = (lookups, conflicts);
        if dl >= cfg.min_lookups {
            let rate = dc as f64 / dl as f64;
            if rate > cfg.thrash_rate {
                let (kind, threshold) = (AlertKind::IotlbThrash, cfg.thrash_rate);
                let (slot, job, peer_job) = (None, None, None);
                self.record(HvEvent::Alert { kind, slot, observed: rate, threshold, job, peer_job });
            }
        }
        self.watchdog.next_eval = now + cfg.window;
    }
}
