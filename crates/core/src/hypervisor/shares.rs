//! Cross-tenant shared memory: the FF-A-style handle table and its four
//! hypercalls (`mem_share` / `mem_retrieve` / `mem_relinquish` /
//! `mem_reclaim`).
//!
//! [`ShareTable`] is the hypervisor's whole share state: the records of
//! every span an owner on this device has offered, the handle counter, and
//! the retriever-side mirrors of spans owned on *other* devices. It holds
//! the lifecycle rules; mapping a retrieved span into the peer's address
//! space and IOPT slice goes through the walker in [`super::iopt`].

use super::iopt::{self, Claim, Release};
use super::{GuestCtx, Optimus};
use crate::snapshot::{wire_enum, Reader, SnapshotError, Wire};
use crate::vaccel::VaccelId;
use crate::vm::RetrievedSpan;
use optimus_fabric::platform::{DeviceId, PlatformDevice};
use optimus_mem::addr::{Gva, PageSize, PAGE_2M};
use optimus_mem::page_table::PageFlags;
use std::collections::BTreeMap;

/// Lifecycle state of a shared-memory handle (FF-A-style).
///
/// `Shared → Retrieved → Relinquished` is the cooperative path;
/// `Reclaimed` is terminal (the owner took the span back — from
/// `Retrieved` that force-revokes the peer's mapping). A relinquished
/// handle is *not* re-retrievable: the owner must reclaim and share again,
/// so a stale handle can never silently resurrect a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareState {
    /// Offered by the owner; the named peer may retrieve it.
    Shared,
    /// Mapped into the peer's address space and IOPT.
    Retrieved,
    /// The peer gave the span back; its mappings are torn down.
    Relinquished,
    /// The owner took the span back; the handle is dead.
    Reclaimed,
}

wire_enum!(ShareState, "share state", 0 => ShareState::Shared, 1 => ShareState::Retrieved,
    2 => ShareState::Relinquished, 3 => ShareState::Reclaimed);

/// One entry in the hypervisor's share-handle table. Lives on the
/// hypervisor hosting the *owner*; cross-device retrievals are tracked on
/// the retriever's hypervisor as [`RetrievalState`] mirrors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareRecord {
    /// The guest-visible handle (embeds the issuing device's tag, so
    /// handles stay unique when records migrate between devices).
    pub handle: u64,
    /// Owning VM (id on the hosting hypervisor; rewritten on migration).
    pub owner_vm: u32,
    /// Name of the VM allowed to retrieve (names survive migration; ids
    /// do not).
    pub peer: String,
    /// Owner-side base GVA of the span.
    pub gva: u64,
    /// Owner-side backing HPA of each 2 MB page, in GVA order (rewritten
    /// when the owner migrates).
    pub hpas: Vec<u64>,
    /// Whether the peer may write.
    pub writable: bool,
    /// Lifecycle state.
    pub state: ShareState,
    /// The retriever's VM id when retrieved on this same hypervisor;
    /// `None` while `Retrieved` means the peer mapped it from another
    /// device (the node holds the mirror linkage).
    pub retriever_vm: Option<u32>,
    /// The retriever-side base GVA (meaningful once retrieved).
    pub retriever_gva: u64,
}

impl ShareRecord {
    /// The retriever's side of this record while a VM on this same
    /// hypervisor holds the span: what `thaw` maps back into that VM, and
    /// what a migrating owner leaves behind as the retriever's mirror.
    pub(crate) fn local_retrieval(&self) -> Option<RetrievalState> {
        let vm = self.retriever_vm.filter(|_| self.state == ShareState::Retrieved)?;
        Some(RetrievalState {
            handle: self.handle,
            vm,
            gva: self.retriever_gva,
            hpas: self.hpas.clone(),
            writable: self.writable,
        })
    }
}

impl Wire for ShareRecord {
    fn put(&self, w: &mut Vec<u8>) {
        self.handle.put(w);
        self.owner_vm.put(w);
        self.peer.put(w);
        self.gva.put(w);
        self.hpas.put(w);
        self.writable.put(w);
        self.state.put(w);
        self.retriever_vm.put(w);
        self.retriever_gva.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            handle: Wire::get(r)?,
            owner_vm: Wire::get(r)?,
            peer: Wire::get(r)?,
            gva: Wire::get(r)?,
            hpas: Wire::get(r)?,
            writable: Wire::get(r)?,
            state: Wire::get(r)?,
            retriever_vm: Wire::get(r)?,
            retriever_gva: Wire::get(r)?,
        })
    }
}

/// Retriever-side state for a handle whose [`ShareRecord`] lives on
/// *another* hypervisor: the local VM mapped node-managed mirror frames.
/// Tracked so detach and freeze/thaw can rebuild the mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrievalState {
    /// The share handle.
    pub handle: u64,
    /// Local retriever VM id.
    pub vm: u32,
    /// Base GVA the mirror is mapped at.
    pub gva: u64,
    /// Mirror frame HPA per 2 MB page (allocated on this device).
    pub hpas: Vec<u64>,
    /// Whether the owner granted write permission.
    pub writable: bool,
}

impl Wire for RetrievalState {
    fn put(&self, w: &mut Vec<u8>) {
        self.handle.put(w);
        self.vm.put(w);
        self.gva.put(w);
        self.hpas.put(w);
        self.writable.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            handle: Wire::get(r)?,
            vm: Wire::get(r)?,
            gva: Wire::get(r)?,
            hpas: Wire::get(r)?,
            writable: Wire::get(r)?,
        })
    }
}

/// A retrieval the detached tenant held, carried in
/// [`TenantState`](super::TenantState) so the node can rebuild the mapping
/// (as a mirror) on the target device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarriedRetrieval {
    /// The share handle.
    pub handle: u64,
    /// Base GVA the span was (and must again be) mapped at.
    pub gva: u64,
    /// Span length in 2 MB pages.
    pub pages: u64,
    /// Whether the owner granted write permission.
    pub writable: bool,
}

/// Why a shared-memory hypercall was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareError {
    /// The handle does not exist on this hypervisor.
    NoSuchHandle,
    /// The caller is not the share's named peer.
    NotPeer,
    /// The caller does not own the share.
    NotOwner,
    /// The caller is not the share's current retriever.
    NotRetriever,
    /// The operation is illegal in the handle's current lifecycle state
    /// (e.g. retrieving a relinquished handle).
    BadState,
    /// The span to share is not fully mapped in the owner's address space.
    Unmapped,
    /// Pass-through devices have no slicing layer to install a peer
    /// mapping into.
    Passthrough,
    /// The retriever lives on another device; the operation must go
    /// through the node layer.
    RemotePeer,
}

impl core::fmt::Display for ShareError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShareError::NoSuchHandle => write!(f, "no such share handle"),
            ShareError::NotPeer => write!(f, "caller is not the share's named peer"),
            ShareError::NotOwner => write!(f, "caller does not own the share"),
            ShareError::NotRetriever => write!(f, "caller is not the current retriever"),
            ShareError::BadState => write!(f, "operation illegal in the handle's current state"),
            ShareError::Unmapped => write!(f, "span not fully mapped in the owner's address space"),
            ShareError::Passthrough => write!(f, "pass-through devices cannot share memory"),
            ShareError::RemotePeer => write!(f, "retriever is on another device; use the node API"),
        }
    }
}

impl std::error::Error for ShareError {}

/// The hypervisor's share state and the handle lifecycle.
pub(super) struct ShareTable {
    /// Shares whose *owner* lives on this hypervisor, by handle.
    records: BTreeMap<u64, ShareRecord>,
    /// Monotonic per-device handle counter (combined with the device tag
    /// at mint time; 0 is never a valid handle).
    next_handle: u64,
    /// Retrievals whose share record lives on another device (mirrors).
    pub(super) foreign: Vec<RetrievalState>,
}

impl ShareTable {
    /// Rebuilds a table from its snapshotted parts (an empty table starts
    /// its counter at 1).
    pub(super) fn from_parts(
        next_handle: u64,
        records: Vec<ShareRecord>,
        foreign: Vec<RetrievalState>,
    ) -> Self {
        let records = records.into_iter().map(|r| (r.handle, r)).collect();
        Self { records, next_handle, foreign }
    }

    /// The handle counter, the records ascending by handle, the mirrors.
    pub(super) fn into_parts(self) -> (u64, Vec<ShareRecord>, Vec<RetrievalState>) {
        (self.next_handle, self.records.into_values().collect(), self.foreign)
    }

    pub(super) fn get(&self, handle: u64) -> Option<&ShareRecord> {
        self.records.get(&handle)
    }

    pub(super) fn get_mut(&mut self, handle: u64) -> Option<&mut ShareRecord> {
        self.records.get_mut(&handle)
    }

    /// The records `vm` owns, ascending by handle.
    pub(super) fn owned_by(&self, vm: u32) -> impl Iterator<Item = &ShareRecord> {
        self.records.values().filter(move |r| r.owner_vm == vm)
    }

    /// Removes and returns the records `vm` owns (its migration).
    pub(super) fn take_owned_by(&mut self, vm: u32) -> Vec<ShareRecord> {
        let handles: Vec<u64> = self.owned_by(vm).map(|r| r.handle).collect();
        handles.iter().filter_map(|h| self.records.remove(h)).collect()
    }

    /// Files a record under its handle: a fresh offer, or one that
    /// migrated here with its owner.
    pub(super) fn insert(&mut self, rec: ShareRecord) {
        self.records.insert(rec.handle, rec);
    }

    /// Mints a fresh share handle. The device tag in the top bits keeps
    /// handles unique across a node's devices even after records migrate.
    fn mint_handle(&mut self, device: DeviceId) -> u64 {
        let h = ((device.0 as u64 + 1) << 32) | self.next_handle;
        self.next_handle += 1;
        h
    }

    /// `mem_retrieve`'s admission: only the named peer, only from `Shared`
    /// — a relinquished handle is dead, not dormant.
    fn admit(&self, handle: u64, peer: &str) -> Result<&ShareRecord, ShareError> {
        let rec = self.get(handle).ok_or(ShareError::NoSuchHandle)?;
        if peer != rec.peer {
            return Err(ShareError::NotPeer);
        }
        if rec.state != ShareState::Shared {
            return Err(ShareError::BadState);
        }
        Ok(rec)
    }

    /// `mem_relinquish`: only the current co-resident retriever, only from
    /// `Retrieved`.
    fn relinquish(&mut self, handle: u64, vm: u32) -> Result<(), ShareError> {
        let rec = self.get_mut(handle).ok_or(ShareError::NoSuchHandle)?;
        if rec.state != ShareState::Retrieved {
            return Err(ShareError::BadState);
        }
        match rec.retriever_vm {
            Some(r) if r == vm => rec.state = ShareState::Relinquished,
            Some(_) => return Err(ShareError::NotRetriever),
            None => return Err(ShareError::RemotePeer),
        }
        Ok(())
    }

    /// `mem_reclaim`: only the owner, from any live state; terminal.
    /// Returns the co-resident retriever whose mapping must now be
    /// revoked, if the handle was still retrieved.
    fn reclaim(&mut self, handle: u64, vm: u32) -> Result<Option<u32>, ShareError> {
        let rec = self.get_mut(handle).ok_or(ShareError::NoSuchHandle)?;
        if rec.owner_vm != vm {
            return Err(ShareError::NotOwner);
        }
        let revoke = match rec.state {
            ShareState::Reclaimed => return Err(ShareError::BadState),
            // Cross-device retrievers hold their mappings on another
            // hypervisor; only the node can reach them.
            ShareState::Retrieved => Some(rec.retriever_vm.ok_or(ShareError::RemotePeer)?),
            ShareState::Shared | ShareState::Relinquished => None,
        };
        rec.state = ShareState::Reclaimed;
        Ok(revoke)
    }

    /// The job on the other end of a live channel `vm` is party to, given
    /// each VM's job: the owner of a span `vm` retrieved (the producer a
    /// consumer's journal record links to) or — with `either_end`, for
    /// alert attribution — the retriever of a span `vm` shared.
    fn peer_job(
        &self,
        vm: u32,
        either_end: bool,
        vm_job: impl Fn(u32) -> Option<u64>,
    ) -> Option<u64> {
        let mut live = self.records.values().filter(|r| r.state == ShareState::Retrieved);
        live.find_map(|rec| {
            if rec.retriever_vm == Some(vm) {
                vm_job(rec.owner_vm)
            } else if either_end && rec.owner_vm == vm {
                rec.retriever_vm.and_then(&vm_job)
            } else {
                None
            }
        })
    }
}

impl<D: PlatformDevice> Optimus<D> {
    /// The share record for `handle`, if its owner lives here.
    pub fn share_record(&self, handle: u64) -> Option<&ShareRecord> {
        self.shares.get(handle)
    }

    /// Mutable access to a share record (node-level lifecycle updates).
    pub(crate) fn share_record_mut(&mut self, handle: u64) -> Option<&mut ShareRecord> {
        self.shares.get_mut(handle)
    }

    /// The lifecycle state of `handle`, if its owner lives here.
    pub fn share_state(&self, handle: u64) -> Option<ShareState> {
        self.shares.get(handle).map(|r| r.state)
    }

    /// The share records `vm` owns, ascending by handle.
    pub(crate) fn shares_owned_by(&self, vm: u32) -> impl Iterator<Item = &ShareRecord> {
        self.shares.owned_by(vm)
    }

    /// [`ShareTable::peer_job`] over this hypervisor's vaccels.
    pub(super) fn peer_job(&self, vm: u32, either_end: bool) -> Option<u64> {
        self.shares.peer_job(vm, either_end, |vm| self.vm_job(vm))
    }

    /// Maps a retrieved span (`hpas`, one frame per 2 MB page) into `va`'s
    /// VM — at `at_gva`, or in fresh GVA space — and into its IOPT slice,
    /// claimed under `handle` from `owner` (`None`: node-managed mirror
    /// frames). A guest whose first DMA-visible region this is gets its
    /// IOVA window anchored here, exactly like `alloc_dma` would.
    fn map_retrieved(
        &mut self,
        va: VaccelId,
        handle: u64,
        at_gva: Option<u64>,
        hpas: &[u64],
        writable: bool,
        owner: Option<u32>,
    ) -> Gva {
        let vm_id = self.vaccel(va).vm;
        let vm = self.vms.get_mut(&vm_id.0).expect("vaccel's VM exists");
        let gva = match at_gva {
            Some(base) => {
                vm.map_retrieved_at(base, handle, hpas, writable);
                Gva::new(base)
            }
            None => vm.map_retrieved(handle, hpas, writable),
        };
        if self.vaccel(va).dma_base.raw() == 0 {
            self.anchor_dma_base(va, gva);
        }
        let w = self.window(self.vaccel(va));
        let flags = if writable { PageFlags::rw() } else { PageFlags::ro() };
        let claim = Claim::Retrieved { handle, owner };
        for (i, &hpa) in hpas.iter().enumerate() {
            let page = Gva::new(gva.raw() + i as u64 * PAGE_2M);
            iopt::map_page(&mut self.device, w, page, hpa, PageSize::Huge, flags, claim);
        }
        self.stats.pinned_pages += hpas.len() as u64;
        gva
    }

    /// Tears down one retrieved span's IOPT entries in `w`'s slice and
    /// ends its spec entitlements (`how` ∈ relinquished / reclaimed /
    /// migrated).
    pub(super) fn unmap_retrieved_iopt(
        &mut self,
        w: iopt::Window,
        span: &RetrievedSpan,
        how: &'static str,
    ) {
        for (i, &hpa) in span.hpas.iter().enumerate() {
            let page = Gva::new(span.base_gva + i as u64 * PAGE_2M);
            let release = Release::Retrieved { handle: span.handle, hpa, how };
            iopt::unmap_page(&mut self.device, w, page, PageSize::Huge, release);
        }
    }

    /// Drops `vm`'s retrieved span for `handle`: the GVA mapping, the IOPT
    /// entries and the spec entitlements.
    fn drop_retrieved(&mut self, vm: u32, handle: u64, how: &'static str) {
        let span = self
            .vms
            .get_mut(&vm)
            .and_then(|vm| vm.unmap_retrieved(handle))
            .expect("retrieved span is mapped");
        let v = self.vaccels.values().find(|v| v.vm.0 == vm);
        let w = self.window(v.expect("retriever VM backs a vaccel"));
        self.unmap_retrieved_iopt(w, &span, how);
    }

    /// Node-side: maps `pages` freshly allocated mirror frames for a
    /// cross-device retrieval into `va`'s VM at a chosen GVA (`None` =
    /// allocate fresh GVA space), installs the IOPT entries, claims the
    /// frames for the retriever in the spec model, and records the
    /// [`RetrievalState`]. Returns the base GVA and the mirror HPAs.
    pub(crate) fn attach_foreign_retrieval(
        &mut self,
        va: VaccelId,
        handle: u64,
        at_gva: Option<u64>,
        pages: u64,
        writable: bool,
    ) -> (Gva, Vec<u64>) {
        let mirror_base = self.frames.alloc_huge(pages).raw();
        let hpas: Vec<u64> = (0..pages).map(|i| mirror_base + i * PAGE_2M).collect();
        let gva = self.map_retrieved(va, handle, at_gva, &hpas, writable, None);
        let vm = self.vaccel(va).vm.0;
        let state = RetrievalState { handle, vm, gva: gva.raw(), hpas: hpas.clone(), writable };
        self.shares.foreign.push(state);
        (gva, hpas)
    }

    /// Node-side: tears down the local mirror for a cross-device retrieval
    /// (`how` ∈ relinquished / reclaimed / migrated). Returns the removed
    /// state so the caller can update the owner-side record and registry.
    pub(crate) fn detach_foreign_retrieval(
        &mut self,
        handle: u64,
        how: &'static str,
    ) -> Option<RetrievalState> {
        let i = self.shares.foreign.iter().position(|r| r.handle == handle)?;
        let r = self.shares.foreign.remove(i);
        self.drop_retrieved(r.vm, handle, how);
        Some(r)
    }
}

impl<D: PlatformDevice> GuestCtx<'_, D> {
    /// `mem_share`: offers `bytes` of this guest's memory at `gva`
    /// (2 MB-page granular) to the tenant named `peer`, with `writable`
    /// as the permission ceiling the retriever gets. Returns the share
    /// handle. The span stays mapped and usable by the owner; nothing
    /// changes in any IOPT until the peer retrieves.
    pub fn mem_share(
        &mut self,
        gva: Gva,
        bytes: u64,
        peer: &str,
        writable: bool,
    ) -> Result<u64, ShareError> {
        if self.hv.passthrough {
            return Err(ShareError::Passthrough);
        }
        let vm = self.hv.vm(self.v().vm);
        let owner_vm = vm.id().0;
        let hpas = (0..bytes.div_ceil(PAGE_2M).max(1))
            .map(|i| vm.gva_to_hpa(Gva::new(gva.raw() + i * PAGE_2M)).map(|hpa| hpa.raw()))
            .collect::<Result<_, _>>()
            .map_err(|_| ShareError::Unmapped)?;
        let handle = self.hv.shares.mint_handle(self.hv.device_id);
        self.hv.shares.insert(ShareRecord {
            handle,
            owner_vm,
            peer: peer.to_string(),
            gva: gva.raw(),
            hpas,
            writable,
            state: ShareState::Shared,
            retriever_vm: None,
            retriever_gva: 0,
        });
        self.hypercall_cost(("key", handle));
        Ok(handle)
    }

    /// `mem_retrieve`: maps a span previously shared *with this tenant*
    /// into its GVA space and installs the translations in its IOPT slice.
    /// Returns the base GVA of the retrieved span. Only the named peer may
    /// retrieve, only while the handle is in the `Shared` state.
    pub fn mem_retrieve(&mut self, handle: u64) -> Result<Gva, ShareError> {
        if self.hv.passthrough {
            return Err(ShareError::Passthrough);
        }
        let vm = self.v().vm;
        let rec = self.hv.shares.admit(handle, self.hv.vm(vm).name())?;
        let (hpas, writable, owner) = (rec.hpas.clone(), rec.writable, rec.owner_vm);
        let gva = self.hv.map_retrieved(self.va, handle, None, &hpas, writable, Some(owner));
        let rec = self.hv.shares.get_mut(handle).expect("admitted above");
        rec.state = ShareState::Retrieved;
        rec.retriever_vm = Some(vm.0);
        rec.retriever_gva = gva.raw();
        // A consumer with a job already in flight links to the producer
        // right here (jobs submitted later link at their own start).
        if let Some(producer) = self.hv.vm_job(owner) {
            self.hv.job_linked(self.va, self.v().job, producer, self.hv.device.now());
        }
        self.hypercall_cost(("key", handle));
        Ok(gva)
    }

    /// `mem_relinquish`: the retriever gives the span back. Its GVA
    /// mapping and IOPT entries are torn down (speculative IOTLB state
    /// included — this is an unmap in every way that matters) and the
    /// handle transitions to `Relinquished`: dead for the retriever,
    /// reclaimable by the owner.
    pub fn mem_relinquish(&mut self, handle: u64) -> Result<(), ShareError> {
        if self.hv.passthrough {
            return Err(ShareError::Passthrough);
        }
        let vm = self.v().vm.0;
        self.hv.shares.relinquish(handle, vm)?;
        self.hv.drop_retrieved(vm, handle, "relinquished");
        self.hypercall_cost(("key", handle));
        Ok(())
    }

    /// `mem_reclaim`: the owner takes the span back for good. A still-
    /// retrieved handle is force-revoked (the peer's mappings die under
    /// it); a shared-but-never-retrieved or relinquished handle just
    /// closes. Terminal: a reclaimed handle can never be retrieved again.
    pub fn mem_reclaim(&mut self, handle: u64) -> Result<(), ShareError> {
        if self.hv.passthrough {
            return Err(ShareError::Passthrough);
        }
        if let Some(retriever) = self.hv.shares.reclaim(handle, self.v().vm.0)? {
            self.hv.drop_retrieved(retriever, handle, "reclaimed");
        }
        self.hypercall_cost(("key", handle));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::OptimusConfig;
    use optimus_accel::registry::AccelKind;

    /// Two tenants on one device, a shared span, the full handle walk.
    fn share_pair() -> (Optimus, VaccelId, VaccelId) {
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5, AccelKind::Md5]));
        let vm_a = hv.create_vm("owner");
        let vm_b = hv.create_vm("peer");
        let va_a = hv.create_vaccel(vm_a, 0);
        let va_b = hv.create_vaccel(vm_b, 1);
        (hv, va_a, va_b)
    }

    #[test]
    fn share_retrieve_is_zero_copy_and_relinquish_kills_the_mapping() {
        let (mut hv, va_a, va_b) = share_pair();
        let (span, handle);
        {
            let mut g = hv.guest(va_a);
            span = g.alloc_dma(PAGE_2M);
            g.write_mem(span, &[0x5A; 4096]);
            handle = g.mem_share(span, PAGE_2M, "peer", false).expect("share");
        }
        assert_eq!(hv.share_state(handle), Some(ShareState::Shared));
        let got = hv.guest(va_b).mem_retrieve(handle).expect("retrieve");
        assert_eq!(hv.share_state(handle), Some(ShareState::Retrieved));
        // Zero-copy: the retriever's GVA resolves to the owner's frame.
        let owner_hpa = hv.guest(va_a).gva_to_hpa(span).unwrap();
        let peer_hpa = hv.guest(va_b).gva_to_hpa(got).unwrap();
        assert_eq!(owner_hpa, peer_hpa);
        let mut seen = vec![0u8; 4096];
        hv.guest(va_b).read_mem(got, &mut seen);
        assert_eq!(seen, vec![0x5A; 4096]);
        hv.guest(va_b).mem_relinquish(handle).expect("relinquish");
        assert_eq!(hv.share_state(handle), Some(ShareState::Relinquished));
        assert!(hv.guest(va_b).gva_to_hpa(got).is_err(), "mapping survived relinquish");
        // A relinquished handle is dead, not dormant.
        assert_eq!(hv.guest(va_b).mem_retrieve(handle), Err(ShareError::BadState));
        hv.guest(va_a).mem_reclaim(handle).expect("reclaim");
        assert_eq!(hv.share_state(handle), Some(ShareState::Reclaimed));
        assert_eq!(hv.guest(va_a).mem_reclaim(handle), Err(ShareError::BadState));
    }

    #[test]
    fn share_enforces_peer_owner_and_state() {
        let (mut hv, va_a, va_b) = share_pair();
        let span = hv.guest(va_a).alloc_dma(PAGE_2M);
        // Sharing an unmapped span is refused.
        assert_eq!(
            hv.guest(va_a).mem_share(Gva::new(0xdead_beef), PAGE_2M, "peer", true),
            Err(ShareError::Unmapped)
        );
        let handle = hv.guest(va_a).mem_share(span, PAGE_2M, "nobody", true).unwrap();
        // va_b is named "peer", not "nobody".
        assert_eq!(hv.guest(va_b).mem_retrieve(handle), Err(ShareError::NotPeer));
        // Unknown handles and foreign reclaims are refused.
        assert_eq!(hv.guest(va_b).mem_retrieve(0x999), Err(ShareError::NoSuchHandle));
        assert_eq!(hv.guest(va_b).mem_reclaim(handle), Err(ShareError::NotOwner));
        // Relinquish before retrieve is a state error.
        assert_eq!(hv.guest(va_b).mem_relinquish(handle), Err(ShareError::BadState));
        // The owner can reclaim an unretrieved share.
        hv.guest(va_a).mem_reclaim(handle).expect("reclaim unretrieved");
        assert_eq!(hv.share_state(handle), Some(ShareState::Reclaimed));
    }

    #[test]
    fn reclaim_force_revokes_a_live_retriever() {
        let (mut hv, va_a, va_b) = share_pair();
        let span = hv.guest(va_a).alloc_dma(PAGE_2M);
        let handle = hv.guest(va_a).mem_share(span, PAGE_2M, "peer", true).unwrap();
        let got = hv.guest(va_b).mem_retrieve(handle).unwrap();
        assert!(hv.guest(va_b).gva_to_hpa(got).is_ok());
        hv.guest(va_a).mem_reclaim(handle).expect("force reclaim");
        assert_eq!(hv.share_state(handle), Some(ShareState::Reclaimed));
        assert!(hv.guest(va_b).gva_to_hpa(got).is_err(), "peer mapping survived reclaim");
    }

    #[test]
    fn share_state_survives_live_update() {
        let (mut hv, va_a, va_b) = share_pair();
        let span = hv.guest(va_a).alloc_dma(PAGE_2M);
        hv.guest(va_a).write_mem(span, &[0x42; 512]);
        let handle = hv.guest(va_a).mem_share(span, PAGE_2M, "peer", false).unwrap();
        let got = hv.guest(va_b).mem_retrieve(handle).unwrap();
        let mut hv = hv.live_update();
        assert_eq!(hv.share_state(handle), Some(ShareState::Retrieved));
        // The retrieved mapping was rebuilt at the same GVA, still aimed
        // at the owner's frame.
        let mut seen = vec![0u8; 512];
        hv.guest(va_b).read_mem(got, &mut seen);
        assert_eq!(seen, vec![0x42; 512]);
        hv.guest(va_b).mem_relinquish(handle).expect("relinquish after thaw");
        assert_eq!(hv.share_state(handle), Some(ShareState::Relinquished));
    }
}
