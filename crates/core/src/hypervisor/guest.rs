//! The guest-visible surface: DMA allocation, the shadow-paging
//! hypercall, guest memory access, and the trapped BAR0 MMIO path. (The
//! memory-sharing hypercalls live with the handle table in
//! [`super::shares`].)

use super::iopt::{self, Claim};
use super::{Backing, HvEvent, Optimus};
use crate::vaccel::{VaccelId, VaccelRun, VirtualAccel};
use crate::vm::VmError;
use optimus_cci::params::host_costs;
use optimus_fabric::accelerator::CtrlStatus;
use optimus_fabric::mmio::{accel_mmio_base, accel_reg, ACCEL_PAGE};
use optimus_mem::addr::{Gva, Hpa, PageSize, PAGE_2M};
use optimus_mem::host::LineFiller;
use optimus_mem::page_table::PageFlags;
use optimus_sim::metrics;
use optimus_sim::spec;
use optimus_sim::time::ns_to_cycles;

/// The guest's view of its virtual accelerator: the paper's guest driver
/// plus userspace library, with every access charged its software cost.
pub struct GuestCtx<'a> {
    pub(super) hv: &'a mut Optimus,
    pub(super) va: VaccelId,
}

impl GuestCtx<'_> {
    pub(super) fn v(&self) -> &VirtualAccel {
        self.hv.vaccel(self.va)
    }

    /// Allocates and DMA-registers a guest buffer of `bytes` (rounded up
    /// to 2 MB pages). Returns the region's base GVA.
    ///
    /// Every page is registered with the hypervisor through the
    /// shadow-paging hypercall: validate (GVA, GPA), pin, and install the
    /// IOVA→HPA mapping.
    pub fn alloc_dma(&mut self, bytes: u64) -> Gva {
        self.alloc_dma_with(bytes, Backing::Normal)
    }

    /// [`alloc_dma`](Self::alloc_dma) with a chosen IO page granularity
    /// and a lazily synthesized backing whose line generator needs the
    /// region's own addresses (e.g. linked lists with absolute next
    /// pointers). Transient reads fill only the lines they touch.
    pub fn alloc_dma_lazy_lines_sized(
        &mut self,
        bytes: u64,
        io_page: PageSize,
        make: impl FnOnce(Gva, Hpa) -> LineFiller,
    ) -> Gva {
        let gva = self.alloc_dma_inner(bytes, Backing::Normal, io_page);
        let hpa = self.gva_to_hpa(gva).expect("fresh region maps");
        let len = bytes.div_ceil(PAGE_2M).max(1) * PAGE_2M;
        let line = make(gva, hpa);
        self.hv.device.host_mut().memory_mut().add_lazy_region_lines(hpa, len, line);
        gva
    }

    /// [`alloc_dma`](Self::alloc_dma) but registered with 4 KB IO page
    /// table entries (the Fig. 5/6 small-page configurations).
    pub fn alloc_dma_4k(&mut self, bytes: u64, backing: Backing) -> Gva {
        self.alloc_dma_inner(bytes, backing, PageSize::Small)
    }

    /// [`alloc_dma`](Self::alloc_dma) with explicit host backing (scratch
    /// regions for bulk benchmark output).
    pub fn alloc_dma_with(&mut self, bytes: u64, backing: Backing) -> Gva {
        self.alloc_dma_inner(bytes, backing, PageSize::Huge)
    }

    fn alloc_dma_inner(&mut self, bytes: u64, backing: Backing, io_page: PageSize) -> Gva {
        let pages = bytes.div_ceil(PAGE_2M).max(1);
        let vm_id = self.v().vm;
        let vm = self.hv.vms.get_mut(&vm_id.0).expect("no such VM");
        let gva = vm.alloc_region(pages, &mut self.hv.frames);
        if self.v().dma_base.raw() == 0 {
            // First allocation: the guest library reserves the 64 GB slice
            // and reports its base through the BAR2 register (itself a
            // trapped MMIO write; no BAR0 offset, recorded as offset 0).
            self.hv.anchor_dma_base(self.va, gva);
        }
        // Host backing for the region.
        let hpa_base = self.gva_to_hpa(gva).expect("fresh region maps");
        let memory = self.hv.device.host_mut().memory_mut();
        match backing {
            Backing::Normal => {}
            Backing::Scratch => memory.add_scratch_region(hpa_base, pages * PAGE_2M),
        }
        // Register every page (guest driver behaviour: make pages
        // FPGA-accessible as they are allocated).
        for i in 0..pages {
            let page_gva = Gva::new(gva.raw() + i * PAGE_2M);
            self.register_page_sized(page_gva, io_page);
        }
        gva
    }

    /// The shadow-paging hypercall for one 2 MB page: the guest reports
    /// (GVA, GPA); the hypervisor validates, pins, and maps IOVA → HPA.
    /// `Small` splits the page into 512 4 KB IOPT entries (the paper's
    /// 4 KB-page comparison configuration).
    ///
    /// # Panics
    ///
    /// Panics if the guest's claim fails validation (a driver bug).
    fn register_page_sized(&mut self, gva: Gva, io_page: PageSize) {
        let vm = self.hv.vm(self.v().vm);
        let gpa = vm.gva_to_gpa(gva).expect("registering an unmapped page");
        let hpa = vm.validate_hypercall(gva, gpa).expect("hypercall validation failed");
        let w = self.hv.window(self.v());
        let flags = PageFlags::rw();
        iopt::map_page(&mut self.hv.device, w, gva, hpa.raw(), io_page, flags, Claim::Owned);
        self.hv.record(HvEvent::PagesPinned(1));
        self.hypercall_cost(("gva", gva.raw()));
    }

    /// Charges one trapped-hypercall round trip, flight-recorded with its
    /// identifying argument (the page's GVA, or the share handle as `key`).
    pub(super) fn hypercall_cost(&mut self, arg: (&'static str, u64)) {
        let cycles = ns_to_cycles(host_costs::HYPERCALL_NS);
        metrics::set_device(self.hv.device_id.0);
        self.hv.record(HvEvent::Hypercall { va: self.va, arg, cycles });
        self.hv.advance(cycles);
    }

    /// Writes guest memory (CPU-side access through the two-stage tables).
    pub fn write_mem(&mut self, gva: Gva, data: &[u8]) {
        let vm_id = self.v().vm;
        let mut off = 0usize;
        while off < data.len() {
            let cur = Gva::new(gva.raw() + off as u64);
            let hpa = self.hv.vm(vm_id).gva_to_hpa(cur).expect("guest write to unmapped memory");
            let in_page = (PAGE_2M - cur.page_offset(PAGE_2M)) as usize;
            let take = in_page.min(data.len() - off);
            spec::check_cpu(self.hv.device_id.0, hpa.raw(), take as u64, vm_id.0, true);
            let memory = self.hv.device.host_mut().memory_mut();
            memory.write(hpa, &data[off..off + take]);
            off += take;
        }
    }

    /// Reads guest memory.
    pub fn read_mem(&mut self, gva: Gva, buf: &mut [u8]) {
        let vm_id = self.v().vm;
        let mut off = 0usize;
        while off < buf.len() {
            let cur = Gva::new(gva.raw() + off as u64);
            let hpa = self.hv.vm(vm_id).gva_to_hpa(cur).expect("guest read of unmapped memory");
            let in_page = (PAGE_2M - cur.page_offset(PAGE_2M)) as usize;
            let take = in_page.min(buf.len() - off);
            spec::check_cpu(self.hv.device_id.0, hpa.raw(), take as u64, vm_id.0, false);
            self.hv.device.host().memory().read(hpa, &mut buf[off..off + take]);
            off += take;
        }
    }

    /// Sets the guest's preemption state buffer (BAR0 `CTRL_STATE_ADDR`;
    /// trapped and virtualized).
    pub fn set_state_buffer(&mut self, gva: Gva) {
        self.mmio_write(accel_reg::CTRL_STATE_ADDR, gva.raw());
    }

    /// Forwards a write to the resident vaccel's physical register file
    /// at BAR-page offset `offset`, refinement-checked: the slot must be
    /// bound to this guest's VM.
    fn forward_mmio(&mut self, offset: u64, value: u64) {
        let v = self.v();
        let (slot, vm) = (v.slot, v.vm.0);
        let addr = accel_mmio_base(slot) + offset;
        spec::check_mmio_write(self.hv.device_id.0, slot, vm, addr);
        self.hv.device.mmio_write(addr, value);
    }

    /// Guest MMIO write to its BAR0 (page-relative offset).
    ///
    /// Control registers are emulated; application registers are cached
    /// and, when the vaccel is scheduled, forwarded.
    pub fn mmio_write(&mut self, offset: u64, value: u64) {
        let va = self.va;
        self.hv.trap_cost(va, offset);
        // Master-abort offsets past the vaccel's own 4 KB BAR page. Rebasing
        // such an offset (`accel_mmio_base(slot) + offset`) lands in the
        // *neighbour's* MMIO page — and a cached out-of-page app register
        // would replay there on every install. Drop it at the trap.
        if offset >= ACCEL_PAGE {
            self.hv.record(HvEvent::MmioDiscarded);
            return;
        }
        match offset {
            accel_reg::CTRL_CMD => {
                if value == accel_reg::CMD_START {
                    let v = self.hv.vaccel_mut(va);
                    let was_completed = v.run == VaccelRun::Completed;
                    v.pending_start = true;
                    v.shadow_status = CtrlStatus::Running;
                    if was_completed {
                        v.run = VaccelRun::Fresh;
                    }
                    // A fresh submission (first start, or a restart after
                    // the previous job completed) mints a new job id.
                    if self.hv.vaccel(va).job == 0 || was_completed {
                        let job = self.hv.mint_job();
                        self.hv.vaccel_mut(va).job = job;
                        self.hv.record(HvEvent::Submit { va, job });
                        // Share handoff: a consumer reading a span it
                        // retrieved links its job to the producer's.
                        let vm = self.v().vm.0;
                        if let Some(producer) = self.hv.peer_job(vm, false) {
                            self.hv.record(HvEvent::Linked { va, consumer: job, producer });
                        }
                    }
                    let slot = self.v().slot;
                    self.hv.slots[slot].sched.set_runnable(va.0 as u64, true);
                    if self.hv.is_scheduled(va) {
                        let v = self.hv.vaccel_mut(va);
                        v.pending_start = false;
                        let job = v.job;
                        // The vaccel is already resident: the start
                        // forwards straight to hardware, so the install
                        // phase is just this posted write.
                        let start = self.hv.device.now();
                        self.forward_mmio(accel_reg::CTRL_CMD, accel_reg::CMD_START);
                        // The start is a posted fabric write. On a restart
                        // (resident, already-retired vaccel) the slot still
                        // latches the previous job's `Done`, so completion
                        // checks between here and delivery would retire the
                        // new job before it runs. Let it land, as
                        // `install` does for its register replay.
                        self.hv.advance(ns_to_cycles(500.0));
                        self.hv.record(HvEvent::Started { job, start });
                    }
                }
                // CMD_PREEMPT / CMD_RESUME are privileged: guests cannot
                // drive the preemption machinery (silently dropped, as the
                // hypervisor "hides the hardware status", §4.2).
            }
            accel_reg::CTRL_STATE_ADDR => {
                self.hv.vaccel_mut(va).state_buffer = Gva::new(value);
                if self.hv.is_scheduled(va) {
                    self.forward_mmio(accel_reg::CTRL_STATE_ADDR, value);
                }
            }
            off if off >= accel_reg::APP_BASE => {
                self.hv.vaccel_mut(va).cache_app_reg(off - accel_reg::APP_BASE, value);
                if self.hv.is_scheduled(va) {
                    self.forward_mmio(off, value);
                }
            }
            _ => {}
        }
    }

    /// Guest MMIO read from its BAR0.
    pub fn mmio_read(&mut self, offset: u64) -> u64 {
        let va = self.va;
        self.hv.trap_cost(va, offset);
        // See `mmio_write`: out-of-page offsets would read the neighbour's
        // registers once rebased. Master-abort them as all-zero reads.
        if offset >= ACCEL_PAGE {
            self.hv.record(HvEvent::MmioDiscarded);
            return 0;
        }
        match offset {
            accel_reg::CTRL_STATUS => {
                if self.hv.is_scheduled(self.va) {
                    let slot = self.v().slot;
                    let status = self.hv.device.mmio_read(accel_mmio_base(slot) + offset);
                    let decoded = CtrlStatus::from_u64(status);
                    if decoded == CtrlStatus::Done {
                        self.hv.retire(self.va);
                    }
                    // Hide hardware states the guest should not see.
                    match decoded {
                        CtrlStatus::Saving | CtrlStatus::Saved => CtrlStatus::Running as u64,
                        s => s as u64,
                    }
                } else {
                    self.hv.vaccel(self.va).shadow_status as u64
                }
            }
            off if off >= accel_reg::APP_BASE => {
                if self.hv.is_scheduled(self.va) {
                    let slot = self.v().slot;
                    self.hv.device.mmio_read(accel_mmio_base(slot) + off)
                } else {
                    self.hv.vaccel(self.va).cached_app_reg(off - accel_reg::APP_BASE)
                }
            }
            _ => 0,
        }
    }

    /// The backing HPA of a guest address (test observability).
    pub fn gva_to_hpa(&self, gva: Gva) -> Result<Hpa, VmError> {
        self.hv.vm(self.v().vm).gva_to_hpa(gva)
    }
}
