//! Virtual accelerator (mediated device) state.
//!
//! Each guest sees its accelerator as a PCIe device (BAR0 = accelerator
//! MMIO, BAR2 = hypervisor MMIO); the hypervisor backs each of these
//! devices with a [`VirtualAccel`] record: which VM owns it, which physical
//! accelerator it time-shares, its page-table slice, its cached application
//! registers (§4.2: accesses to application registers are postponed until
//! the virtual accelerator is scheduled), and its virtualized job status.

use crate::snapshot::{wire_enum, Reader, SnapshotError, Wire};
use crate::vm::VmId;
use optimus_fabric::accelerator::CtrlStatus;
use optimus_mem::addr::Gva;
use std::collections::BTreeMap;

/// Virtual accelerator identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VaccelId(pub u32);

/// Where the virtual accelerator's execution state currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VaccelRun {
    /// Never started; no saved state exists.
    Fresh,
    /// Currently occupying its physical accelerator.
    Scheduled,
    /// Preempted; state saved in its guest memory buffer.
    SavedInMemory,
    /// Job finished.
    Completed,
}

wire_enum!(VaccelRun, "run", 0 => VaccelRun::Fresh, 1 => VaccelRun::Scheduled,
    2 => VaccelRun::SavedInMemory, 3 => VaccelRun::Completed);

/// A virtual accelerator (one vfio-mdev instance in the real system). The
/// one record per vaccel: the hypervisor's table, a frozen `HvSnapshot`
/// and a migrating `TenantState` all hold this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualAccel {
    /// Identifier.
    pub id: VaccelId,
    /// Owning VM.
    pub vm: VmId,
    /// Physical accelerator slot this vaccel time-shares.
    pub slot: usize,
    /// Page-table slice index.
    pub slice: u64,
    /// Base GVA of the guest's registered DMA region (the BAR2 slice-base
    /// register value).
    pub dma_base: Gva,
    /// Guest-provided preemption state buffer.
    pub state_buffer: Gva,
    /// Cached application registers (offset → value), replayed at schedule
    /// time. Application registers are idempotent per §4.2.
    pub app_regs: BTreeMap<u64, u64>,
    /// Whether the guest has issued a start that is not yet forwarded.
    pub pending_start: bool,
    /// Execution placement.
    pub run: VaccelRun,
    /// Virtualized status reported to the guest while descheduled.
    pub shadow_status: CtrlStatus,
    /// Times this vaccel was forcibly reset after a preemption timeout.
    pub forced_resets: u64,
    /// The in-flight (or most recently completed) job id, 0 if no job
    /// was ever submitted. Minted at `CMD_START`, stable across
    /// migration and live-update; journal records key on it.
    pub job: u64,
}

impl VirtualAccel {
    /// Creates a fresh virtual accelerator.
    pub fn new(id: VaccelId, vm: VmId, slot: usize, slice: u64) -> Self {
        Self {
            id,
            vm,
            slot,
            slice,
            dma_base: Gva::new(0),
            state_buffer: Gva::new(0),
            app_regs: BTreeMap::new(),
            pending_start: false,
            run: VaccelRun::Fresh,
            shadow_status: CtrlStatus::Idle,
            forced_resets: 0,
            job: 0,
        }
    }

    /// Records a guest write to an application register.
    pub fn cache_app_reg(&mut self, offset: u64, value: u64) {
        self.app_regs.insert(offset, value);
    }

    /// The cached value of an application register.
    pub fn cached_app_reg(&self, offset: u64) -> u64 {
        self.app_regs.get(&offset).copied().unwrap_or(0)
    }
}

impl Wire for VirtualAccel {
    fn put(&self, w: &mut Vec<u8>) {
        self.id.0.put(w);
        self.vm.0.put(w);
        (self.slot as u32).put(w);
        self.slice.put(w);
        self.dma_base.raw().put(w);
        self.state_buffer.raw().put(w);
        self.app_regs.put(w);
        self.pending_start.put(w);
        self.run.put(w);
        self.shadow_status.put(w);
        self.forced_resets.put(w);
        self.job.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            id: VaccelId(Wire::get(r)?),
            vm: VmId(Wire::get(r)?),
            slot: u32::get(r)? as usize,
            slice: Wire::get(r)?,
            dma_base: Gva::new(Wire::get(r)?),
            state_buffer: Gva::new(Wire::get(r)?),
            app_regs: Wire::get(r)?,
            pending_start: Wire::get(r)?,
            run: Wire::get(r)?,
            shadow_status: Wire::get(r)?,
            forced_resets: Wire::get(r)?,
            job: Wire::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_register_cache() {
        let mut v = VirtualAccel::new(VaccelId(0), VmId(1), 2, 3);
        assert_eq!(v.cached_app_reg(0x10), 0);
        v.cache_app_reg(0x10, 99);
        assert_eq!(v.cached_app_reg(0x10), 99);
        v.cache_app_reg(0x10, 100);
        assert_eq!(v.cached_app_reg(0x10), 100);
        assert_eq!(v.app_regs.len(), 1);
    }

    #[test]
    fn fresh_vaccel_defaults() {
        let v = VirtualAccel::new(VaccelId(7), VmId(0), 0, 1);
        assert_eq!(v.run, VaccelRun::Fresh);
        assert_eq!(v.shadow_status, CtrlStatus::Idle);
        assert!(!v.pending_start);
    }
}
