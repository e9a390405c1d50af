//! The IO page table walker.
//!
//! The IOMMU gives the FPGA exactly one IO page table (§4.1), and every
//! path that changes it — the shadow-paging hypercall, share retrieval and
//! teardown, tenant detach and attach — goes through [`map_page`] and
//! [`unmap_page`]. They own the 2 MB → 512 × 4 KB granularity split and
//! pair each IOMMU update with its isolation-spec hook, so the model the
//! spec plane audits against cannot drift from the table the device walks.

use super::Optimus;
use crate::snapshot::IoptEntry;
use crate::vaccel::VirtualAccel;
use optimus_fabric::device::FpgaDevice;
use optimus_mem::addr::{Gva, Hpa, Iova, PageSize, PAGE_2M, PAGE_4K};
use optimus_mem::page_table::PageFlags;
use optimus_sim::spec;

/// One tenant's window onto the device's IO page table.
#[derive(Clone, Copy)]
pub(super) struct Window {
    device: u32,
    vm: u32,
    /// What the auditor adds to a GVA to form the IOVA: the tenant's slice
    /// offset, or 0 under pass-through (vIOMMU: the guest's own address
    /// space is the IO address space).
    offset: u64,
}

/// Whom a mapped page is claimed for in the isolation spec.
#[derive(Clone, Copy)]
pub(super) enum Claim {
    /// The tenant's own frame.
    Owned,
    /// A frame retrieved under share `handle`; `owner` is the sharing VM
    /// when it lives on this device (`None`: a node-managed mirror).
    Retrieved { handle: u64, owner: Option<u32> },
}

/// What an unmapped page stops being in the isolation spec.
#[derive(Clone, Copy)]
pub(super) enum Release {
    /// The tenant's own page.
    Owned,
    /// An entitlement to `hpa` under share `handle`, ended because the
    /// span was `how` ∈ relinquished / reclaimed / migrated.
    Retrieved { handle: u64, hpa: u64, how: &'static str },
}

impl Optimus {
    /// `v`'s window onto this device's IO page table.
    pub(super) fn window(&self, v: &VirtualAccel) -> Window {
        let offset = match self.passthrough {
            true => 0,
            false => self.slicing.offset_for(v.slice, v.dma_base),
        };
        Window { device: self.device_id.0, vm: v.vm.0, offset }
    }
}

/// The IOPT entries one guest 2 MB page occupies at `size`: how many, and
/// the bytes each covers.
fn entries(size: PageSize) -> (u64, u64) {
    match size {
        PageSize::Huge => (1, PAGE_2M),
        PageSize::Small => (PAGE_2M / PAGE_4K, PAGE_4K),
    }
}

/// Installs the guest 2 MB page at `gva`, backed by `hpa`, in `w`'s slice
/// at granularity `size`, and claims it in the spec model.
pub(super) fn map_page(
    device: &mut FpgaDevice,
    w: Window,
    gva: Gva,
    hpa: u64,
    size: PageSize,
    flags: PageFlags,
    claim: Claim,
) {
    let iova = gva.raw().wrapping_add(w.offset);
    let (count, len) = entries(size);
    let iommu = device.host_mut().iommu_mut();
    let audited = spec::enabled();
    for k in 0..count {
        let (iova, hpa) = (iova + k * len, hpa + k * len);
        iommu.map(Iova::new(iova), Hpa::new(hpa), size, flags).expect("fresh IOVA slice");
        if audited {
            match claim {
                Claim::Owned => spec::map_page(w.device, iova, hpa, len, flags.write, w.vm),
                Claim::Retrieved { handle, owner } => {
                    spec::retrieve_page(w.device, iova, hpa, len, flags.write, w.vm, owner, handle)
                }
            }
        }
    }
}

/// Removes the guest 2 MB page at `gva` from `w`'s slice (registered at
/// granularity `size`). The IOMMU unmap invalidates IOTLB entries —
/// speculative ones included — so a stale pointer faults from here on.
pub(super) fn unmap_page(
    device: &mut FpgaDevice,
    w: Window,
    gva: Gva,
    size: PageSize,
    release: Release,
) {
    let iova = gva.raw().wrapping_add(w.offset);
    let (count, len) = entries(size);
    let iommu = device.host_mut().iommu_mut();
    let audited = spec::enabled();
    for k in 0..count {
        let iova = iova + k * len;
        iommu.unmap(Iova::new(iova)).expect("page was IOPT-mapped");
        if audited {
            match release {
                Release::Owned => spec::unmap_page(w.device, iova),
                Release::Retrieved { handle, hpa, how } => {
                    spec::relinquish_page(w.device, iova, hpa + k * len, w.vm, handle, how)
                }
            }
        }
    }
}

/// The granularity the page at `gva` is registered with in `w`'s slice.
pub(super) fn page_size(device: &FpgaDevice, w: Window, gva: Gva) -> Option<PageSize> {
    device.host().iommu().iopt().mapping_size(gva.raw().wrapping_add(w.offset))
}

/// The device's whole IO page table, ascending by IOVA — what `freeze`
/// records and `thaw` verifies against.
pub(super) fn entries_of(device: &FpgaDevice) -> Vec<IoptEntry> {
    let mappings = device.host().iommu().iopt().mappings();
    mappings
        .into_iter()
        .map(|(iova, hpa, size, flags)| IoptEntry {
            iova,
            hpa,
            small: size == PageSize::Small,
            write: flags.write,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::OptimusConfig;
    use optimus_accel::registry::AccelKind;

    #[test]
    fn map_then_unmap_at_both_granularities_leaves_the_table_as_found() {
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5]));
        let vm = hv.create_vm("t");
        let va = hv.create_vaccel(vm, 0);
        // Something already in the table, so "as found" is not "empty".
        let base = hv.guest(va).alloc_dma(PAGE_2M);
        let found = entries_of(&hv.device);
        assert_eq!(found.len(), 1);
        let w = hv.window(hv.vaccel(va));
        let hpa = 1 << 40;
        for (i, (size, added)) in [(PageSize::Huge, 1), (PageSize::Small, 512)].into_iter().enumerate() {
            let gva = Gva::new(base.raw() + (i as u64 + 1) * PAGE_2M);
            assert_eq!(page_size(&hv.device, w, gva), None);
            map_page(&mut hv.device, w, gva, hpa, size, PageFlags::rw(), Claim::Owned);
            assert_eq!(page_size(&hv.device, w, gva), Some(size));
            let mapped = entries_of(&hv.device);
            assert_eq!(mapped.len(), found.len() + added);
            // The split is contiguous on both sides: the last entry maps
            // the page's last `len` bytes.
            let last = mapped.last().expect("entries were added");
            let len = PAGE_2M / added as u64;
            assert_eq!(last.iova - mapped[1].iova, PAGE_2M - len);
            assert_eq!((last.hpa, last.small), (hpa + PAGE_2M - len, size == PageSize::Small));
            unmap_page(&mut hv.device, w, gva, size, Release::Owned);
            assert_eq!(entries_of(&hv.device), found);
        }
    }
}
