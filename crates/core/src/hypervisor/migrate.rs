//! Tenant migration: detaching a tenant from one hypervisor and attaching
//! it to another.
//!
//! [`TenantState`] is everything that travels: the VM's address-space
//! layout, the [`VirtualAccel`] record itself, its scheduler account, the
//! share records it owns and the retrievals it held. Host frame
//! *contents* do not — the node copies them between the two devices'
//! memories after the attach.

use super::iopt::{self, Claim, Release};
use super::{CarriedRetrieval, Optimus, ShareRecord};
use crate::scheduler::MemberState;
use crate::vaccel::{VaccelId, VirtualAccel};
use crate::vm::{Vm, VmId};
use optimus_fabric::platform::PlatformDevice;
use optimus_mem::addr::{Gva, PageSize, PAGE_2M};
use optimus_mem::page_table::PageFlags;
use optimus_sim::metrics;
use optimus_sim::trace::{self, Track};

/// Why a tenant could not be detached from or attached to a hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// Pass-through devices have no slicing layer to detach from.
    Passthrough,
    /// Unknown (or already detached) virtual accelerator.
    NoSuchVaccel,
    /// The tenant's VM backs more than one virtual accelerator; migrating
    /// one would tear the shared address space out from under the others.
    VmShared,
    /// The tenant's home slot index does not exist on the target device
    /// (heterogeneous devices; a node's devices are homogeneous).
    SlotOutOfRange,
}

impl core::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MigrateError::Passthrough => write!(f, "pass-through devices cannot migrate tenants"),
            MigrateError::NoSuchVaccel => write!(f, "no such virtual accelerator"),
            MigrateError::VmShared => write!(f, "VM backs multiple virtual accelerators"),
            MigrateError::SlotOutOfRange => write!(f, "target device lacks the tenant's slot"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// A tenant detached from its source hypervisor, ready to attach
/// elsewhere: the VM's address-space layout, the vaccel record, its
/// scheduler account, and the IOPT granularity of every page. Host frame
/// *contents* are not here — they stay in the source device's memory
/// until the node copies them (`HostMemory::adopt_span`) after attach.
#[derive(Debug)]
pub struct TenantState {
    name: String,
    next_gva: u64,
    /// `(gva, source hpa)` for every 2 MB page, ascending by GVA.
    pages: Vec<(u64, u64)>,
    /// IOPT granularity each page was registered with, parallel to
    /// `pages` (replayed faithfully on the target).
    io_pages: Vec<PageSize>,
    /// The vaccel record as it left the source. Its `id`, `vm` and
    /// `slice` are the source's and are re-keyed at attach; everything
    /// else — the in-flight `job` id included, so one journal record spans
    /// both devices — carries over as is.
    pub(crate) vaccel: VirtualAccel,
    sched: MemberState,
    /// Share records this tenant owns (re-homed onto the target; HPAs are
    /// rewritten through the frame-copy map at attach).
    shares: Vec<ShareRecord>,
    /// Spans this tenant had retrieved from other tenants' shares. Torn
    /// down at detach; the node rebuilds them as mirrors on the target.
    pub(crate) retrievals: Vec<CarriedRetrieval>,
}

impl TenantState {
    /// The tenant's VM name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The physical slot the tenant ran on (and will run on again).
    pub fn slot(&self) -> usize {
        self.vaccel.slot
    }

    /// Bytes of guest memory that must move with the tenant.
    pub fn bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_2M
    }
}

impl<D: PlatformDevice> Optimus<D> {
    /// Detaches a tenant from this hypervisor for migration: preempts it
    /// off the physical accelerator through the ordinary Fig. 8 drain/save
    /// path (so its execution state lands in its own guest memory), scrubs
    /// the slot, removes its scheduler account, tears down its IOPT
    /// entries, and returns everything the target needs to rebuild it.
    ///
    /// Jobs that fail the drain deadline take the forced-reset fallback
    /// exactly as at a slice boundary: progress is lost and the job
    /// restarts from its cached registers on the target.
    pub fn detach_tenant(&mut self, va: VaccelId) -> Result<TenantState, MigrateError> {
        if self.passthrough {
            return Err(MigrateError::Passthrough);
        }
        let Some(v) = self.vaccels.get(&va.0) else {
            return Err(MigrateError::NoSuchVaccel);
        };
        let (vm_id, slot) = (v.vm, v.slot);
        if self.vaccels.values().any(|o| o.vm == vm_id && o.id != va) {
            return Err(MigrateError::VmShared);
        }
        // Off the hardware first: the save streams device state into the
        // tenant's own guest buffer, which travels with its memory.
        if self.slots[slot].current == Some(va) {
            self.preempt_slot(slot);
        }
        // Device-side detach: scrub the slot the tenant vacated (§4.1
        // isolation hygiene — the next occupant must see no residue).
        self.device.detach_slot(slot);
        let sched = self.slots[slot].sched.remove(va.0 as u64);
        let sched = sched.expect("vaccel registered in its slot's queue");
        let vaccel = self.vaccels.remove(&va.0).expect("checked above");
        let mut vm = self.vms.remove(&vm_id.0).expect("vaccel's VM exists");
        let w = self.window(&vaccel);
        // Tear down every span this tenant *retrieved* from other tenants'
        // shares — their frames are not the tenant's to copy, so the node
        // rebuilds them as mirrors on the target from the carried handles.
        let mut retrievals = Vec::new();
        let retrieved: Vec<u64> = vm.retrieved_spans().iter().map(|r| r.handle).collect();
        for handle in retrieved {
            let span = vm.unmap_retrieved(handle).expect("span is live");
            self.unmap_retrieved_iopt(w, &span, "migrated");
            // Same-device share: the record stays with the owner here, but
            // its retriever is leaving — mark it remote for the node.
            if let Some(rec) = self.shares.get_mut(handle) {
                rec.retriever_vm = None;
            }
            // Cross-device share: drop the local mirror state (the bump
            // allocator never reuses the abandoned mirror frames).
            self.shares.foreign.retain(|r| r.handle != handle);
            retrievals.push(CarriedRetrieval {
                handle,
                gva: span.base_gva,
                pages: span.hpas.len() as u64,
                writable: span.writable,
            });
        }
        // Re-home the share records this tenant owns. A stay-behind local
        // retriever keeps its mapping into the owner's old frames; those
        // frames become the retriever-side mirror of a cross-device share,
        // so record the mapping as a foreign retrieval here (which also
        // keeps it freeze/thaw-visible) and let the node register the sync.
        let mut shares = self.shares.take_owned_by(vm_id.0);
        for rec in &mut shares {
            if let Some(mirror) = rec.local_retrieval() {
                rec.retriever_vm = None;
                self.shares.foreign.push(mirror);
            }
        }
        // Tear down the tenant's slice of the IO page table, recording the
        // granularity each page was registered with so the target replays
        // it faithfully (Fig. 5/6 configurations register 4 KB entries).
        let pages = vm.export_pages();
        let mut io_pages = Vec::with_capacity(pages.len());
        for &(gva, _) in &pages {
            let gva = Gva::new(gva);
            let size = iopt::page_size(&self.device, w, gva);
            let size = size.expect("registered page has an IOPT entry");
            iopt::unmap_page(&mut self.device, w, gva, size, Release::Owned);
            io_pages.push(size);
        }
        metrics::set_device(self.device_id.0);
        let now = self.device.now();
        let args = [("va", va.0 as u64), ("slot", slot as u64)];
        trace::instant(Track::hypervisor(), "migrate.detach", now, &args);
        if vaccel.job != 0 {
            // Flow arrow across the migration gap, closed at attach.
            trace::flow_start(Track::vaccel(va.0), "job", now, vaccel.job);
        }
        Ok(TenantState {
            name: vm.name().to_string(),
            next_gva: vm.next_gva(),
            pages,
            io_pages,
            vaccel,
            sched,
            shares,
            retrievals,
        })
    }

    /// Attaches a detached tenant to this hypervisor: fresh (monotonic)
    /// ids, a fresh page-table slice, host frames re-allocated here (HPAs
    /// are per-device), the IOPT replayed at the new slice, and the
    /// scheduler account re-inserted with its occupancy intact. Returns
    /// the new vaccel id plus the `(source hpa, target hpa)` copy list the
    /// caller uses to move the frame bytes.
    ///
    /// The tenant resumes through the ordinary install path at its next
    /// slice (`preempt.restore` for a drained job). No simulated time is
    /// charged: the paper's migration cost is dominated by the copy, which
    /// the node models at its own layer.
    pub fn attach_tenant(
        &mut self,
        t: TenantState,
    ) -> Result<(VaccelId, Vec<(u64, u64)>), MigrateError> {
        if self.passthrough {
            return Err(MigrateError::Passthrough);
        }
        let slot = t.vaccel.slot;
        if slot >= self.slots.len() {
            return Err(MigrateError::SlotOutOfRange);
        }
        let vm_id = VmId(self.next_vm_id);
        self.next_vm_id += 1;
        let id = VaccelId(self.next_vaccel_id);
        self.next_vaccel_id += 1;
        let slice = self.next_slice;
        self.next_slice += 1;
        let vaccel = VirtualAccel { id, vm: vm_id, slice, ..t.vaccel };
        // Re-allocate backing frames on this device. Exported GVAs are
        // contiguous from the VM's base, so one contiguous grab suffices.
        let base = match t.pages.len() as u64 {
            0 => 0,
            n => self.frames.alloc_huge(n).raw(),
        };
        let targets = (0..).map(|i| base + i * PAGE_2M);
        let copies: Vec<(u64, u64)> = t.pages.iter().map(|&(_, src)| src).zip(targets).collect();
        let pages: Vec<(u64, u64)> =
            t.pages.iter().zip(&copies).map(|(&(gva, _), &(_, dst))| (gva, dst)).collect();
        // Replay the IO page table at the new slice, honoring each page's
        // original granularity.
        let w = self.window(&vaccel);
        for (&(gva, hpa), &size) in pages.iter().zip(&t.io_pages) {
            let gva = Gva::new(gva);
            iopt::map_page(&mut self.device, w, gva, hpa, size, PageFlags::rw(), Claim::Owned);
        }
        self.vms.insert(vm_id.0, Vm::restore(vm_id, &t.name, t.next_gva, &pages));
        // Re-home the share records this tenant owns: the backing frames
        // just moved, so every recorded HPA is rewritten through the copy
        // map. Retriever-side IOPT re-resolution is the node's job (the
        // retriever may live on another device entirely).
        let hpa_map: std::collections::HashMap<u64, u64> = copies.iter().copied().collect();
        for mut rec in t.shares {
            rec.owner_vm = vm_id.0;
            for h in rec.hpas.iter_mut() {
                *h = *hpa_map.get(h).expect("owner's shared pages were exported");
            }
            self.shares.insert(rec);
        }
        metrics::set_device(self.device_id.0);
        let now = self.device.now();
        let args = [("va", id.0 as u64), ("slot", slot as u64)];
        trace::instant(Track::hypervisor(), "migrate.attach", now, &args);
        if vaccel.job != 0 {
            trace::flow_end(Track::vaccel(id.0), "job", now, vaccel.job);
        }
        self.vaccels.insert(id.0, vaccel);
        self.slots[slot].sched.insert_member(MemberState { key: id.0 as u64, ..t.sched });
        Ok((id, copies))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::{OptimusConfig, TrapCost};
    use crate::vaccel::VaccelRun;
    use optimus_accel::registry::AccelKind;
    use optimus_cci::channel::SelectorPolicy;
    use optimus_fabric::mmio::accel_reg;
    use optimus_mem::addr::Hpa;
    use optimus_sim::time::ms_to_cycles;

    #[test]
    fn ids_survive_detach_without_recycling() {
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5]));
        let vm0 = hv.create_vm("t0");
        let va0 = hv.create_vaccel(vm0, 0);
        let t = hv.detach_tenant(va0).unwrap();
        assert_eq!(hv.vaccel_run(va0), None);
        // Ids minted after the detach must not alias the retired ones
        // (`vms.len()`-style allocation would hand va0 out again here).
        let vm1 = hv.create_vm("t1");
        let va1 = hv.create_vaccel(vm1, 0);
        assert_ne!(vm1, vm0);
        assert_ne!(va1, va0);
        // Re-attaching mints fresh ids too.
        let (va2, _) = hv.attach_tenant(t).unwrap();
        assert_ne!(va2, va0);
        assert_ne!(va2, va1);
        assert_eq!(hv.vaccel_run(va2), Some(VaccelRun::Fresh));
    }

    #[test]
    fn migrate_error_paths() {
        let mut pt =
            Optimus::new_passthrough(AccelKind::Md5, SelectorPolicy::Auto, TrapCost::Native);
        let vm = pt.create_vm("p");
        let va = pt.create_vaccel(vm, 0);
        assert_eq!(pt.detach_tenant(va).unwrap_err(), MigrateError::Passthrough);

        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5, AccelKind::Md5]));
        assert_eq!(
            hv.detach_tenant(VaccelId(9)).unwrap_err(),
            MigrateError::NoSuchVaccel
        );
        let shared = hv.create_vm("shared");
        let a = hv.create_vaccel(shared, 0);
        let _b = hv.create_vaccel(shared, 1);
        assert_eq!(hv.detach_tenant(a).unwrap_err(), MigrateError::VmShared);

        // A tenant from slot 1 cannot land on a single-slot device.
        let solo = hv.create_vm("solo");
        let c = hv.create_vaccel(solo, 1);
        let t = hv.detach_tenant(c).unwrap();
        let mut small = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5]));
        assert_eq!(small.attach_tenant(t).unwrap_err(), MigrateError::SlotOutOfRange);
    }

    #[test]
    fn detach_attach_moves_midflight_tenant_across_devices() {
        use optimus_accel::hash::reg;
        let mut cfg = OptimusConfig::new(vec![AccelKind::Md5]);
        cfg.time_slice = ms_to_cycles(0.1);
        let mut a = Optimus::new(cfg);
        let mut cfg = OptimusConfig::new(vec![AccelKind::Md5]);
        cfg.time_slice = ms_to_cycles(0.1);
        let mut b = Optimus::new(cfg);

        let vm = a.create_vm("mover");
        let va = a.create_vaccel(vm, 0);
        let data: Vec<u8> = (0..1_048_576u32).map(|i| (i * 31) as u8).collect();
        let (src, dst, state);
        {
            let mut g = a.guest(va);
            src = g.alloc_dma(data.len() as u64);
            dst = g.alloc_dma(4096);
            state = g.alloc_dma(4096);
            g.write_mem(src, &data);
            g.set_state_buffer(state);
            g.mmio_write(accel_reg::APP_BASE + reg::SRC, src.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::DST, dst.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::LINES, (data.len() / 64) as u64);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        }
        // Run partway so the job is genuinely mid-flight when detached.
        a.run(ms_to_cycles(0.05));
        assert!(!a.vaccel_completed(va));

        let t = a.detach_tenant(va).unwrap();
        assert_eq!(t.bytes(), 3 * PAGE_2M);
        let (va2, copies) = b.attach_tenant(t).unwrap();
        for &(s, d) in &copies {
            b.device_mut().host_mut().memory_mut().adopt_span(
                a.device().host().memory(),
                Hpa::new(s),
                Hpa::new(d),
                PAGE_2M,
            );
        }
        // The source forgot the tenant; the IOPT slice is torn down.
        assert_eq!(a.vaccel_run(va), None);
        assert_eq!(a.device().host().iommu().iopt().mapped_pages(), 0);

        assert!(b.run_until_done(va2, 400_000_000));
        let mut out = vec![0u8; 16];
        b.guest(va2).read_mem(dst, &mut out);
        assert_eq!(out, optimus_algo::md5::md5(&data).to_vec());
        assert_eq!(b.device().host().faulted_dmas(), 0);
    }
}
