//! Hypervisor live-update: `freeze` a running hypervisor into an
//! [`HvSnapshot`], `thaw` a brand-new instance around the device that kept
//! running underneath.
//!
//! The snapshot holds the model records themselves, so both directions
//! are moves and clones plus the export/restore calls of the three types
//! that keep derived state (`Vm`'s page tables, `SliceScheduler`,
//! `Watchdog`).

use super::shares::ShareTable;
use super::{iopt, Optimus, Slot};
use crate::alloc::FrameAllocator;
use crate::scheduler::SliceScheduler;
use crate::slicing::SlicingConfig;
use crate::snapshot::{HvSnapshot, SlotSnap, SnapshotError, VmSnap, WatchdogSnap};
use crate::vaccel::{VaccelId, VaccelRun};
use crate::vm::{Vm, VmId};
use crate::watchdog::Watchdog;
use optimus_fabric::platform::PlatformDevice;
use optimus_sim::journal;
use optimus_sim::spec;
use optimus_sim::trace::{self, Track};
use std::collections::BTreeMap;

impl<D: PlatformDevice> Optimus<D> {
    /// Journals `phase` for every job still in flight. `Frozen` and
    /// `Thawed` are transparent to the SLO derivation (no latency category
    /// is charged to them), so the accounting is identical with or without
    /// a mid-run live-update — they exist for the causal record alone.
    fn mark_in_flight(&self, phase: journal::Phase) {
        if journal::enabled() {
            let now = self.device.now();
            for v in self.vaccels.values() {
                if v.job != 0 && v.run != VaccelRun::Completed {
                    journal::phase(v.job, phase, now);
                }
            }
        }
    }

    /// Freezes this hypervisor into a versioned [`HvSnapshot`] and hands
    /// back the device it mediated. Pure software-state capture: no MMIO
    /// is issued, no cycle advances — the device keeps running (well,
    /// existing) underneath, exactly like hardware persisting across a
    /// host hypervisor live-update.
    pub fn freeze(self) -> (HvSnapshot, D) {
        self.mark_in_flight(journal::Phase::Frozen);
        trace::instant(Track::hypervisor(), "live_update.freeze", self.device.now(), &[]);
        let (next_share_handle, shares, retrievals) = self.shares.into_parts();
        let snap = HvSnapshot {
            device_id: self.device_id,
            passthrough: self.passthrough,
            slice_bytes: self.slicing.slice_bytes,
            iotlb_mitigation: self.slicing.iotlb_mitigation,
            time_slice: self.time_slice,
            trap: self.trap,
            preempt_timeout: self.preempt_timeout,
            next_slice: self.next_slice,
            next_vm_id: self.next_vm_id,
            next_vaccel_id: self.next_vaccel_id,
            next_job_id: self.next_job_id,
            alloc_cursor: self.frames.cursor(),
            stats: self.stats,
            vms: self
                .vms
                .values()
                .map(|vm| VmSnap {
                    id: vm.id().0,
                    name: vm.name().to_string(),
                    next_gva: vm.next_gva(),
                    pages: vm.export_pages(),
                })
                .collect(),
            vaccels: self.vaccels.into_values().collect(),
            slots: self
                .slots
                .iter()
                .map(|s| SlotSnap {
                    policy: s.sched.policy().clone(),
                    base_slice: s.sched.base_slice(),
                    members: s.sched.export_members(),
                    cursor: s.sched.cursor() as u64,
                    current: s.current.map(|v| v.0),
                    slice_ends: s.slice_ends,
                })
                .collect(),
            watchdog: WatchdogSnap {
                cfg: *self.watchdog.config(),
                next_eval: self.watchdog.next_eval,
                last_forwarded: self.watchdog.last_forwarded.clone(),
                last_iotlb: self.watchdog.last_iotlb,
                alerts: self.watchdog.alerts().to_vec(),
            },
            iopt: iopt::entries_of(&self.device),
            next_share_handle,
            shares,
            retrievals,
        };
        (snap, self.device)
    }

    /// Rebuilds a hypervisor from a snapshot around a persistent device.
    ///
    /// The device is the *same* device the snapshot was frozen from (or a
    /// bit-identical twin): its clock, accelerator datapaths, IOTLB, and
    /// host memory carry the non-snapshotted half of the world. The
    /// snapshot's IO page table is *verified against* — not written into —
    /// the device: the IOPT lives in host memory and persists, and
    /// re-installing it would invalidate live IOTLB entries.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::DeviceMismatch`] if the device's slot count differs
    /// from the snapshot's; [`SnapshotError::BadValue`] if the snapshot's
    /// records do not hang together ([`HvSnapshot::validate`]);
    /// [`SnapshotError::IoptMismatch`] if the device's IO page table
    /// differs from the snapshot's — the snapshot belongs to another run.
    pub fn thaw(snap: &HvSnapshot, device: D) -> Result<Self, SnapshotError> {
        snap.validate(device.num_accels())?;
        if iopt::entries_of(&device) != snap.iopt {
            return Err(SnapshotError::IoptMismatch);
        }
        if spec::enabled() {
            // The model persisted across the freeze (it is thread state,
            // not hypervisor state); every thawed entry must still agree
            // with it, or the update resurrected a stale translation.
            for e in &snap.iopt {
                spec::check_thaw(snap.device_id.0, e.iova, e.hpa);
            }
        }
        let mut vms: BTreeMap<u32, Vm> = snap
            .vms
            .iter()
            .map(|v| (v.id, Vm::restore(VmId(v.id), &v.name, v.next_gva, &v.pages)))
            .collect();
        // Retrieved spans are GVA mappings the plain page export above
        // does not carry (they point at *foreign* frames), so re-map them
        // at their recorded bases.
        for r in snap.retrieved_spans() {
            let vm = vms.get_mut(&r.vm).expect("validated: retriever VM is in the snapshot");
            vm.map_retrieved_at(r.gva, r.handle, &r.hpas, r.writable);
        }
        let slots = snap
            .slots
            .iter()
            .map(|s| Slot {
                sched: SliceScheduler::restore(
                    s.policy.clone(),
                    s.base_slice,
                    s.members.clone(),
                    s.cursor as usize,
                ),
                current: s.current.map(VaccelId),
                slice_ends: s.slice_ends,
            })
            .collect();
        let hv = Self {
            device,
            device_id: snap.device_id,
            passthrough: snap.passthrough,
            slicing: SlicingConfig {
                slice_bytes: snap.slice_bytes,
                iotlb_mitigation: snap.iotlb_mitigation,
            },
            time_slice: snap.time_slice,
            trap: snap.trap,
            preempt_timeout: snap.preempt_timeout,
            vms,
            vaccels: snap.vaccels.iter().map(|v| (v.id.0, v.clone())).collect(),
            next_vm_id: snap.next_vm_id,
            next_vaccel_id: snap.next_vaccel_id,
            next_job_id: snap.next_job_id,
            slots,
            frames: FrameAllocator::restore(snap.alloc_cursor),
            next_slice: snap.next_slice,
            stats: snap.stats,
            watchdog: Watchdog::restore(
                snap.watchdog.cfg,
                snap.watchdog.next_eval,
                snap.watchdog.last_forwarded.clone(),
                snap.watchdog.last_iotlb,
                snap.watchdog.alerts.clone(),
            ),
            shares: ShareTable::from_parts(
                snap.next_share_handle,
                snap.shares.clone(),
                snap.retrievals.clone(),
            ),
        };
        hv.mark_in_flight(journal::Phase::Thawed);
        trace::instant(Track::hypervisor(), "live_update.thaw", hv.device.now(), &[]);
        Ok(hv)
    }

    /// A full in-process live-update: freeze, serialize, decode, thaw a
    /// brand-new hypervisor instance around the persistent device. The
    /// round trip through bytes is deliberate — it proves the wire format
    /// carries everything, not just the in-memory structs.
    pub fn live_update(self) -> Self {
        let (snap, device) = self.freeze();
        let bytes = snap.to_bytes();
        let snap = HvSnapshot::from_bytes(&bytes).expect("snapshot round-trips through bytes");
        Self::thaw(&snap, device).expect("snapshot thaws onto its own device")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::{HvStats, OptimusConfig};
    use optimus_accel::registry::AccelKind;
    use optimus_fabric::mmio::accel_reg;
    use optimus_sim::time::{ms_to_cycles, Cycle};

    /// Drives two time-multiplexed tenants, optionally live-updating the
    /// hypervisor mid-run, and returns every observable endpoint.
    fn run_temporal_pair(interrupt: bool) -> (Vec<Vec<u8>>, HvStats, Cycle, u64) {
        use optimus_accel::hash::reg;
        let mut cfg = OptimusConfig::new(vec![AccelKind::Md5]);
        cfg.time_slice = ms_to_cycles(0.1);
        let mut hv = Optimus::new(cfg);
        let mut vas = Vec::new();
        let mut dsts = Vec::new();
        let mut datas = Vec::new();
        for i in 0..2u32 {
            let vm = hv.create_vm(&format!("t{i}"));
            let va = hv.create_vaccel(vm, 0);
            let data: Vec<u8> = (0..1_048_576u32).map(|j| (j ^ (i * 97)) as u8).collect();
            let mut g = hv.guest(va);
            let src = g.alloc_dma(data.len() as u64);
            let dst = g.alloc_dma(4096);
            let state = g.alloc_dma(4096);
            g.write_mem(src, &data);
            g.set_state_buffer(state);
            g.mmio_write(accel_reg::APP_BASE + reg::SRC, src.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::DST, dst.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::LINES, (data.len() / 64) as u64);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
            vas.push(va);
            dsts.push(dst);
            datas.push(data);
        }
        // Stop mid-slice: the slot is occupied, one tenant is preempted
        // with saved state, the other is running — the worst case for a
        // snapshot to carry.
        hv.run(ms_to_cycles(0.25));
        if interrupt {
            hv = hv.live_update();
        }
        for &va in &vas {
            assert!(hv.run_until_done(va, 400_000_000));
        }
        let digests = dsts
            .iter()
            .map(|&dst| {
                let mut out = vec![0u8; 16];
                hv.guest(vas[0]).read_mem(dst, &mut out);
                out
            })
            .collect();
        for (i, data) in datas.iter().enumerate() {
            let mut out = vec![0u8; 16];
            hv.guest(vas[i]).read_mem(dsts[i], &mut out);
            assert_eq!(out, optimus_algo::md5::md5(data).to_vec(), "tenant {i}");
        }
        (digests, hv.stats(), hv.now(), hv.device().port_forwarded(0))
    }

    #[test]
    fn live_update_mid_run_is_bit_identical() {
        // Fig. 8's save/restore plus the snapshot format: a hypervisor
        // frozen mid-run, serialized, decoded, and thawed around the same
        // device must be indistinguishable from one that never stopped —
        // same digests, same stats, same final cycle, same port traffic.
        let uninterrupted = run_temporal_pair(false);
        let resumed = run_temporal_pair(true);
        assert_eq!(uninterrupted, resumed);
    }
}
