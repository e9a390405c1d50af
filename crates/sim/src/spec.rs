//! The executable isolation specification: a high-level model of *who may
//! touch which host physical address*, checked against every memory access
//! the simulator actually performs.
//!
//! Modeled on refinement-based page-table verification (hvisor-pt): the
//! model's state is deliberately tiny — three relations per device —
//! and is updated **only** from the hypercall/MMIO/migration history the
//! hypervisor layer reports:
//!
//! * `iopt`: IOVA span → (HPA span, writable, acting VM), installed by the
//!   shadow-paging hypercall (or a share retrieval) and torn down at
//!   detach/relinquish;
//! * `frames`: HPA span → an *entitlement set*: the owning VM plus any
//!   live retrievers holding a share handle over the span with per-handle
//!   permissions, plus the history of entitlements that have ended
//!   (relinquished / reclaimed / migrated). Ownership persists after IOPT
//!   teardown (the frame allocator is a bump allocator and never reuses
//!   HPAs), so CPU accesses, migration copies, and post-mortem provenance
//!   stay checkable;
//! * `slots`: physical slot → VM currently allowed to drive DMA through
//!   it, bound at install and released when the preemption drain/save (or
//!   forced reset) completes.
//!
//! The low-level simulator then reports every host-memory access — CCI DMA
//! reads/writes (including the translation-fault path), MMIO delivery,
//! guest-visible MMIO register-file writes, CPU-side guest reads/writes,
//! `adopt_span` migration copies, and live-update thaw verification — and
//! each is checked against the model **in both directions**: an access the
//! simulator performs must be permitted by the model, and an access the
//! simulator *refuses* (a translation fault) must be refused by the model
//! too. Any divergence is recorded as a [`Violation`], never panicked, so
//! differential tests can assert `violation_count() == 0` (or probe the
//! harness itself). Violations against frames that ever carried a share
//! handle embed the frame's full ownership history, so a wild DMA probing
//! a relinquished handle names the handle, the peer, and how the
//! entitlement ended.
//!
//! # Gating and determinism
//!
//! Like the flight recorder ([`crate::trace`]) the plane is off by default
//! and enabled with `OPTIMUS_SPEC=1` (accepted values:
//! [`crate::plane::env_gate`]). Every hook self-gates on one thread-local
//! read, the model is write-only from the simulated layers, and nothing
//! here ever feeds back into simulation state or timing — a differential
//! test proves fingerprints are byte-identical with the spec plane on vs
//! off.
//!
//! State is thread-local. A node worker stepping a device receives that
//! device's model in a [`crate::plane::Chunk`] before a parallel span and
//! hands it back — with the violations the span recorded — after, merged
//! in device-index order like every other plane.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Retained violation cap; the total count keeps incrementing past it.
pub const MAX_RETAINED: usize = 64;

/// One refinement divergence: the simulator and the model disagreed about
/// an access (or about a model update's precondition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Device the access belonged to.
    pub device: u32,
    /// Stable machine-readable class, e.g. `dma_cross_tenant`.
    pub kind: &'static str,
    /// Human-readable specifics (addresses, tenants, slots, and — for
    /// frames that ever carried a share handle — the ownership history).
    pub detail: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IoptSpan {
    len: u64,
    hpa: u64,
    write: bool,
    owner: u32,
}

/// One live (or ended) share entitlement over a frame: `vm` may access the
/// span through share `handle`, read-only unless `write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entitlement {
    vm: u32,
    handle: u64,
    write: bool,
}

impl Entitlement {
    fn perm(&self) -> &'static str {
        if self.write { "rw" } else { "ro" }
    }
}

/// An HPA span's entitlement set: the owner, every live retriever, and the
/// history of entitlements that have ended (and how).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FrameEntry {
    len: u64,
    owner: u32,
    shared: Vec<Entitlement>,
    history: Vec<(Entitlement, &'static str)>,
}

impl FrameEntry {
    fn new(len: u64, owner: u32) -> Self {
        Self { len, owner, shared: Vec::new(), history: Vec::new() }
    }

    /// Whether `vm` may access the span (owner always; retrievers per
    /// their handle's permission).
    fn allows(&self, vm: u32, write: bool) -> bool {
        vm == self.owner
            || self.shared.iter().any(|e| e.vm == vm && (!write || e.write))
    }

    /// The frame's full ownership history, for violation details.
    fn provenance(&self) -> String {
        let mut s = format!("owner=vm {}", self.owner);
        for e in &self.shared {
            s.push_str(&format!(
                "; live handle {:#x} -> vm {} ({})",
                e.handle,
                e.vm,
                e.perm()
            ));
        }
        for (e, how) in &self.history {
            s.push_str(&format!(
                "; {how} handle {:#x} -> vm {} ({})",
                e.handle,
                e.vm,
                e.perm()
            ));
        }
        s
    }
}

/// The per-device model state (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceModel {
    iopt: BTreeMap<u64, IoptSpan>,
    frames: BTreeMap<u64, FrameEntry>,
    slots: Vec<Option<u32>>,
}

impl DeviceModel {
    fn iopt_at(&self, iova: u64) -> Option<(u64, IoptSpan)> {
        let (&base, &span) = self.iopt.range(..=iova).next_back()?;
        (iova.wrapping_sub(base) < span.len).then_some((base, span))
    }

    fn frame_at(&self, hpa: u64) -> Option<(u64, &FrameEntry)> {
        let (&base, entry) = self.frames.range(..=hpa).next_back()?;
        (hpa.wrapping_sub(base) < entry.len).then_some((base, entry))
    }

    fn frame_base(&self, hpa: u64) -> Option<u64> {
        self.frame_at(hpa).map(|(base, _)| base)
    }

    fn slot_owner(&self, slot: usize) -> Option<u32> {
        self.slots.get(slot).copied().flatten()
    }
}

/// A device's model in transit between threads, with the violations
/// recorded since the last drain (the spec leg of [`crate::plane::Chunk`]).
#[derive(Debug)]
pub(crate) struct DeviceChunk {
    device: u32,
    /// `None` if the device has no model yet (the receiving thread starts
    /// it fresh via `or_default`).
    model: Option<DeviceModel>,
    count: u64,
    violations: Vec<Violation>,
}

#[derive(Default)]
struct SpecState {
    devices: BTreeMap<u32, DeviceModel>,
    violations: Vec<Violation>,
    count: u64,
}

struct Tls {
    enabled: Cell<bool>,
    state: RefCell<SpecState>,
}

thread_local! {
    static TLS: Tls = Tls {
        enabled: Cell::new(crate::plane::env_gate("OPTIMUS_SPEC", false)),
        state: RefCell::new(SpecState::default()),
    };
}

/// Whether this thread is checking accesses against the model.
#[inline]
pub fn enabled() -> bool {
    TLS.with(|t| t.enabled.get())
}

/// Overrides the `OPTIMUS_SPEC` gate for this thread (tests, node workers
/// propagating the main thread's state).
pub fn set_enabled(on: bool) {
    TLS.with(|t| t.enabled.set(on));
}

/// Clears the model and all recorded violations on this thread.
pub fn reset() {
    TLS.with(|t| *t.state.borrow_mut() = SpecState::default());
}

/// Total violations recorded on this thread (including past the retention
/// cap).
pub fn violation_count() -> u64 {
    TLS.with(|t| t.state.borrow().count)
}

/// The retained violations, oldest first (capped at [`MAX_RETAINED`]).
pub fn violations() -> Vec<Violation> {
    TLS.with(|t| t.state.borrow().violations.clone())
}

fn record(s: &mut SpecState, device: u32, kind: &'static str, detail: String) {
    s.count += 1;
    if s.violations.len() < MAX_RETAINED {
        s.violations.push(Violation { device, kind, detail });
    }
}

/// The gate every model update and access check goes through: runs `f`
/// against the model when this thread is checking, and costs a single
/// thread-local read when it is not.
#[inline]
fn hook(f: impl FnOnce(&mut SpecState)) {
    TLS.with(|t| {
        if t.enabled.get() {
            f(&mut t.state.borrow_mut());
        }
    });
}

// ---- Model updates (history events) ---------------------------------------

/// A shadow-paging hypercall installed `iova..iova+len` → `hpa..hpa+len`
/// for `vm`. Also claims the HPA span for `vm`; a claim overlapping a
/// *different* VM's live frames is itself a violation (the bump allocator
/// must never hand the same frame to two tenants).
#[inline]
pub fn map_page(device: u32, iova: u64, hpa: u64, len: u64, write: bool, vm: u32) {
    hook(|s| {
        let conflict = s
            .devices
            .entry(device)
            .or_default()
            .frame_at(hpa)
            .filter(|(_, e)| e.owner != vm)
            .map(|(_, e)| e.owner);
        if let Some(owner) = conflict {
            record(
                s,
                device,
                "hpa_reallocated",
                format!("hpa {hpa:#x} claimed by vm {vm} but owned by vm {owner}"),
            );
            return;
        }
        let m = s.devices.entry(device).or_default();
        m.iopt.insert(iova, IoptSpan { len, hpa, write, owner: vm });
        m.frames.entry(hpa).or_insert_with(|| FrameEntry::new(len, vm));
    });
}

/// Detach tore down the IOPT span at `iova`. Frame ownership persists (the
/// node still copies the frames out during migration).
#[inline]
pub fn unmap_page(device: u32, iova: u64) {
    hook(|s| {
        let m = s.devices.entry(device).or_default();
        if m.iopt.remove(&iova).is_none() {
            record(
                s,
                device,
                "unmap_unknown",
                format!("unmap of iova {iova:#x} the model never saw mapped"),
            );
        }
    });
}

/// A `mem_retrieve` installed `iova..iova+len` → `hpa..hpa+len` into
/// `retriever`'s IOPT under share `handle`.
///
/// With `owner = Some(o)` the span must already be an owned frame of `o`
/// (the same-device case: the retriever maps the owner's frames in place).
/// With `owner = None` the span is a freshly allocated cross-device mirror
/// frame, claimed for the retriever (the node keeps it in sync with the
/// owner's authoritative copy). Either way the retriever gains a live
/// entitlement carrying the handle and permission, and the IOPT span acts
/// on the retriever's behalf so its slot may DMA through it.
#[inline]
pub fn retrieve_page(
    device: u32,
    iova: u64,
    hpa: u64,
    len: u64,
    write: bool,
    retriever: u32,
    owner: Option<u32>,
    handle: u64,
) {
    hook(|s| {
        let m = s.devices.entry(device).or_default();
        let base = match owner {
            Some(o) => match m.frame_at(hpa) {
                Some((base, e)) if e.owner == o => base,
                other => {
                    let found = other.map(|(_, e)| e.owner);
                    record(
                        s,
                        device,
                        "share_bad_owner",
                        format!(
                            "handle {handle:#x}: retrieve of hpa {hpa:#x} expected owner vm \
                             {o}, model has {found:?}"
                        ),
                    );
                    return;
                }
            },
            None => {
                m.frames.entry(hpa).or_insert_with(|| FrameEntry::new(len, retriever));
                hpa
            }
        };
        let m = s.devices.entry(device).or_default();
        m.iopt.insert(iova, IoptSpan { len, hpa, write, owner: retriever });
        if let Some(e) = m.frames.get_mut(&base) {
            e.shared.push(Entitlement { vm: retriever, handle, write });
        }
    });
}

/// A retrieved span was torn down: `mem_relinquish`, an owner-forced
/// `mem_reclaim`, or the retriever migrating away (`how` names which).
/// Removes the IOPT span, ends the live entitlement, and appends it to the
/// frame's history so later violations carry the full provenance.
#[inline]
pub fn relinquish_page(device: u32, iova: u64, hpa: u64, vm: u32, handle: u64, how: &'static str) {
    hook(|s| {
        let m = s.devices.entry(device).or_default();
        let missing_iopt = m.iopt.remove(&iova).is_none();
        let ended = match m.frame_base(hpa) {
            Some(base) => {
                let e = m.frames.get_mut(&base).expect("frame_base hit");
                match e.shared.iter().position(|en| en.vm == vm && en.handle == handle) {
                    Some(i) => {
                        let en = e.shared.remove(i);
                        e.history.push((en, how));
                        true
                    }
                    None => false,
                }
            }
            None => false,
        };
        if missing_iopt {
            record(
                s,
                device,
                "unmap_unknown",
                format!("relinquish of iova {iova:#x} the model never saw mapped"),
            );
        }
        if !ended {
            record(
                s,
                device,
                "relinquish_unknown",
                format!(
                    "handle {handle:#x}: vm {vm} relinquished hpa {hpa:#x} without a live \
                     entitlement"
                ),
            );
        }
    });
}

/// The hypervisor installed `vm`'s virtual accelerator onto `slot`: DMAs
/// from that slot now act on `vm`'s behalf.
#[inline]
pub fn bind_slot(device: u32, slot: usize, vm: u32) {
    hook(|s| {
        let m = s.devices.entry(device).or_default();
        if m.slots.len() <= slot {
            m.slots.resize(slot + 1, None);
        }
        m.slots[slot] = Some(vm);
    });
}

/// The slot's occupant finished its drain/save (or was force-reset): no
/// tenant may issue DMA through it until the next install.
#[inline]
pub fn unbind_slot(device: u32, slot: usize) {
    hook(|s| {
        let m = s.devices.entry(device).or_default();
        if m.slots.len() <= slot {
            m.slots.resize(slot + 1, None);
        }
        m.slots[slot] = None;
    });
}

// ---- Access checks --------------------------------------------------------

/// A DMA from `slot` translated to `hpa` and touched host memory: the
/// model must map the IOVA to exactly that HPA, with sufficient
/// permission, and the span's acting VM must be the VM bound to the slot.
/// When the target HPA is a frame the model knows (e.g. a probe of a
/// relinquished share span), the detail embeds its ownership history.
#[inline]
pub fn check_dma(device: u32, slot: u32, iova: u64, hpa: u64, write: bool) {
    hook(|s| {
        let verdict: Option<(&'static str, String)> = (|| {
            let Some(m) = s.devices.get(&device) else {
                return Some(("dma_unmodeled_device", format!("iova {iova:#x} slot {slot}")));
            };
            let Some((base, span)) = m.iopt_at(iova) else {
                let mut detail =
                    format!("slot {slot} reached iova {iova:#x} the model has no mapping for");
                if let Some((_, e)) = m.frame_at(hpa) {
                    detail.push_str(&format!("; hpa {hpa:#x} ownership: {}", e.provenance()));
                }
                return Some(("dma_unmapped", detail));
            };
            let model_hpa = span.hpa + (iova - base);
            if model_hpa != hpa {
                return Some((
                    "dma_wrong_hpa",
                    format!("iova {iova:#x}: simulator used hpa {hpa:#x}, model says {model_hpa:#x}"),
                ));
            }
            if write && !span.write {
                return Some(("dma_perm", format!("write to read-only iova {iova:#x}")));
            }
            match m.slot_owner(slot as usize) {
                Some(vm) if vm == span.owner => None,
                Some(vm) => {
                    let mut detail = format!(
                        "slot {slot} (vm {vm}) touched iova {iova:#x} owned by vm {owner}",
                        owner = span.owner
                    );
                    if let Some((_, e)) = m.frame_at(hpa) {
                        detail.push_str(&format!("; hpa {hpa:#x} ownership: {}", e.provenance()));
                    }
                    Some(("dma_cross_tenant", detail))
                }
                None => Some((
                    "dma_unbound_slot",
                    format!("unbound slot {slot} issued DMA to iova {iova:#x}"),
                )),
            }
        })();
        if let Some((kind, detail)) = verdict {
            record(s, device, kind, detail);
        }
    });
}

/// The IOMMU refused a DMA (translation fault). Refinement runs both ways:
/// if the model *would* have permitted the access, the simulator dropped
/// legal traffic.
#[inline]
pub fn check_dma_fault(device: u32, slot: u32, iova: u64, write: bool) {
    hook(|s| {
        let Some(m) = s.devices.get(&device) else { return };
        if let Some((_, span)) = m.iopt_at(iova) {
            if (!write || span.write) && m.slot_owner(slot as usize) == Some(span.owner) {
                record(
                    s,
                    device,
                    "dropped_legal_dma",
                    format!("slot {slot} faulted on iova {iova:#x} the model permits"),
                );
            }
        }
    });
}

/// An MMIO access was delivered to accelerator `slot`; `base`/`size` is
/// that slot's BAR page. Delivery outside the page is a containment
/// violation regardless of how the auditor's arithmetic got there.
#[inline]
pub fn check_mmio_deliver(device: u32, slot: usize, addr: u64, base: u64, size: u64) {
    hook(|s| {
        if addr.wrapping_sub(base) >= size {
            record(
                s,
                device,
                "mmio_out_of_page",
                format!("addr {addr:#x} delivered to slot {slot} page [{base:#x}, +{size:#x})"),
            );
        }
    });
}

/// A guest MMIO write's *effect* reached a physical register file: the
/// hypervisor forwarded `vm`'s write at `addr` into `slot`'s registers.
/// The slot must currently be bound to `vm` — forwarding another tenant's
/// cached or live write into a slot mutates a register file that tenant
/// does not own, even if delivery routing (page containment) was correct.
#[inline]
pub fn check_mmio_write(device: u32, slot: usize, vm: u32, addr: u64) {
    hook(|s| {
        let owner = s.devices.get(&device).and_then(|m| m.slot_owner(slot));
        if owner != Some(vm) {
            record(
                s,
                device,
                "mmio_foreign_regfile",
                format!(
                    "vm {vm} write at {addr:#x} forwarded into slot {slot} register file \
                     bound to {owner:?}"
                ),
            );
        }
    });
}

/// A CPU-side guest access (`write_mem`/`read_mem`) touched
/// `hpa..hpa+len` on behalf of `vm`: the whole span must be covered by
/// frames whose entitlement set admits `vm` (owner, or live retriever with
/// sufficient permission). Frames are claimed at the hypercall's
/// granularity (2 MB or 4 KB), so the check walks contiguous frames until
/// the span is covered rather than assuming one frame suffices.
#[inline]
pub fn check_cpu(device: u32, hpa: u64, len: u64, vm: u32, write: bool) {
    hook(|s| {
        let kind = if write { "cpu_write" } else { "cpu_read" };
        let verdict: Option<(&'static str, String)> = (|| {
            let Some(m) = s.devices.get(&device) else {
                return Some((
                    "cpu_unowned",
                    format!("{kind} of hpa {hpa:#x} on unmodeled device"),
                ));
            };
            let end = hpa + len;
            let mut cur = hpa;
            loop {
                match m.frame_at(cur) {
                    Some((base, e)) => {
                        if !e.allows(vm, write) {
                            return Some((
                                "cpu_cross_tenant",
                                format!("vm {vm} {kind} hpa {cur:#x}: {}", e.provenance()),
                            ));
                        }
                        let span_end = base + e.len;
                        if span_end >= end {
                            return None;
                        }
                        cur = span_end;
                    }
                    None => {
                        let k = if cur == hpa { "cpu_unowned" } else { "cpu_overrun" };
                        return Some((
                            k,
                            format!("vm {vm} {kind} [{hpa:#x}, +{len:#x}) uncovered at {cur:#x}"),
                        ));
                    }
                }
            }
        })();
        if let Some((kind, detail)) = verdict {
            record(s, device, kind, detail);
        }
    });
}

/// One migration frame copy: the source span must belong to the detached
/// tenant (`src_vm` on `src_device`), the destination span to the freshly
/// attached one (`dst_vm` on `dst_device`). Cross-device share syncs reuse
/// this check with each side's registered (device, vm) pair.
#[inline]
pub fn check_adopt(
    src_device: u32,
    src_hpa: u64,
    src_vm: u32,
    dst_device: u32,
    dst_hpa: u64,
    dst_vm: u32,
) {
    hook(|s| {
        let src_owner = s
            .devices
            .get(&src_device)
            .and_then(|m| m.frame_at(src_hpa))
            .map(|(_, e)| e.owner);
        if src_owner != Some(src_vm) {
            record(
                s,
                src_device,
                "adopt_src_mismatch",
                format!("migration read hpa {src_hpa:#x} owned by {src_owner:?}, not vm {src_vm}"),
            );
        }
        let dst_owner = s
            .devices
            .get(&dst_device)
            .and_then(|m| m.frame_at(dst_hpa))
            .map(|(_, e)| e.owner);
        if dst_owner != Some(dst_vm) {
            record(
                s,
                dst_device,
                "adopt_dst_mismatch",
                format!("migration wrote hpa {dst_hpa:#x} owned by {dst_owner:?}, not vm {dst_vm}"),
            );
        }
    });
}

/// Live-update thaw verified an IOPT entry against the persistent device:
/// the model (which also persisted across the freeze) must agree.
#[inline]
pub fn check_thaw(device: u32, iova: u64, hpa: u64) {
    hook(|s| {
        let modeled = s
            .devices
            .get(&device)
            .and_then(|m| m.iopt_at(iova))
            .map(|(base, span)| span.hpa + (iova - base));
        if modeled != Some(hpa) {
            record(
                s,
                device,
                "thaw_mismatch",
                format!("thawed iopt entry {iova:#x}→{hpa:#x}; model says {modeled:?}"),
            );
        }
    });
}

// ---- Parallel chunk plumbing ---------------------------------------------

/// Lifts `device`'s model and this thread's recorded violations out, for
/// the thread that steps the device next (or, after the span, for the
/// main thread to merge).
pub(crate) fn take_chunk(device: u32) -> DeviceChunk {
    TLS.with(|t| {
        let s = &mut *t.state.borrow_mut();
        DeviceChunk {
            device,
            model: s.devices.remove(&device),
            count: std::mem::take(&mut s.count),
            violations: std::mem::take(&mut s.violations),
        }
    })
}

/// Installs a chunk's model into this thread and appends its violations
/// (the retention cap applies to the merged list).
pub(crate) fn absorb_chunk(chunk: DeviceChunk) {
    TLS.with(|t| {
        let s = &mut *t.state.borrow_mut();
        if let Some(model) = chunk.model {
            s.devices.insert(chunk.device, model);
        }
        s.count += chunk.count;
        let room = MAX_RETAINED.saturating_sub(s.violations.len());
        s.violations.extend(chunk.violations.into_iter().take(room));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() {
        set_enabled(true);
        reset();
    }

    #[test]
    fn in_model_dma_passes_and_cross_tenant_dma_violates() {
        fresh();
        map_page(0, 0x10_0000, 0x20_0000, 0x1000, true, 7);
        bind_slot(0, 2, 7);
        check_dma(0, 2, 0x10_0040, 0x20_0040, true);
        assert_eq!(violation_count(), 0);
        // Another tenant's slot reaching the same span is a violation.
        bind_slot(0, 3, 9);
        check_dma(0, 3, 0x10_0040, 0x20_0040, false);
        assert_eq!(violation_count(), 1);
        assert_eq!(violations()[0].kind, "dma_cross_tenant");
    }

    #[test]
    fn wrong_hpa_and_unmapped_and_unbound_are_distinct_kinds() {
        fresh();
        map_page(0, 0x0, 0x1000, 0x1000, true, 1);
        bind_slot(0, 0, 1);
        check_dma(0, 0, 0x40, 0x2040, false);
        check_dma(0, 0, 0x9999_0000, 0x0, false);
        unbind_slot(0, 0);
        check_dma(0, 0, 0x40, 0x1040, false);
        let kinds: Vec<_> = violations().iter().map(|v| v.kind).collect();
        assert_eq!(kinds, ["dma_wrong_hpa", "dma_unmapped", "dma_unbound_slot"]);
    }

    #[test]
    fn fault_on_modeled_mapping_is_dropped_legal_dma() {
        fresh();
        map_page(0, 0x0, 0x1000, 0x1000, true, 1);
        bind_slot(0, 0, 1);
        // Fault on an unmapped iova agrees with the model: no violation.
        check_dma_fault(0, 0, 0xdead_0000, false);
        assert_eq!(violation_count(), 0);
        // Fault on a mapped, owned iova means the simulator dropped legal
        // traffic.
        check_dma_fault(0, 0, 0x80, false);
        assert_eq!(violations()[0].kind, "dropped_legal_dma");
    }

    #[test]
    fn unmap_keeps_frame_ownership_for_migration_copies() {
        fresh();
        map_page(0, 0x10_0000, 0x20_0000, 0x20_0000, true, 4);
        unmap_page(0, 0x10_0000);
        map_page(1, 0x30_0000, 0x50_0000, 0x20_0000, true, 0);
        check_adopt(0, 0x20_0000, 4, 1, 0x50_0000, 0);
        assert_eq!(violation_count(), 0);
        // Copying from a frame the detached tenant never owned is flagged.
        check_adopt(0, 0x9000_0000, 4, 1, 0x50_0000, 0);
        assert_eq!(violations()[0].kind, "adopt_src_mismatch");
    }

    #[test]
    fn hpa_reallocation_to_a_second_tenant_is_flagged() {
        fresh();
        map_page(0, 0x10_0000, 0x20_0000, 0x1000, true, 1);
        map_page(0, 0x90_0000, 0x20_0000, 0x1000, true, 2);
        assert_eq!(violations()[0].kind, "hpa_reallocated");
    }

    #[test]
    fn cpu_checks_walk_contiguous_frames() {
        fresh();
        // A 2 MB guest page registered as 512 contiguous 4 KB hypercalls.
        for k in 0..512u64 {
            map_page(0, 0x10_0000 + k * 0x1000, 0x20_0000 + k * 0x1000, 0x1000, true, 3);
        }
        // A CPU write spanning many frames is fine if all are owned.
        check_cpu(0, 0x20_0000, 0x20_0000, 3, true);
        assert_eq!(violation_count(), 0);
        // Running past the last owned frame is an overrun.
        check_cpu(0, 0x20_0000, 0x20_0000 + 0x1000, 3, true);
        assert_eq!(violations()[0].kind, "cpu_overrun");
        // Another tenant touching the span is cross-tenant.
        check_cpu(0, 0x20_0040, 0x40, 9, false);
        assert_eq!(violations()[1].kind, "cpu_cross_tenant");
        // A completely unowned address is distinct from an overrun.
        check_cpu(0, 0x9000_0000, 0x40, 3, false);
        assert_eq!(violations()[2].kind, "cpu_unowned");
    }

    #[test]
    fn mmio_page_containment() {
        fresh();
        check_mmio_deliver(0, 1, 0x12040, 0x12000, 0x1000);
        assert_eq!(violation_count(), 0);
        check_mmio_deliver(0, 1, 0x13000, 0x12000, 0x1000);
        assert_eq!(violations()[0].kind, "mmio_out_of_page");
        // Wrap-around below the base must not be accepted.
        check_mmio_deliver(0, 1, 0x11fff, 0x12000, 0x1000);
        assert_eq!(violation_count(), 2);
    }

    #[test]
    fn disabled_plane_checks_nothing() {
        set_enabled(false);
        reset();
        check_dma(0, 0, 0x40, 0x1040, false);
        unmap_page(0, 0x40);
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn violation_retention_caps_but_count_does_not() {
        fresh();
        for i in 0..(MAX_RETAINED as u64 + 10) {
            check_dma(0, 0, i * 64, 0, false);
        }
        assert_eq!(violations().len(), MAX_RETAINED);
        assert_eq!(violation_count(), MAX_RETAINED as u64 + 10);
    }

    // ---- Entitlement-set (shared-memory channel) tests ---------------------

    #[test]
    fn retrieved_span_admits_retriever_dma_and_cpu_per_permission() {
        fresh();
        // Owner vm 1 maps a frame; vm 2 retrieves it read-only at its own
        // IOVA through handle 0x5.
        map_page(0, 0x10_0000, 0x20_0000, 0x20_0000, true, 1);
        retrieve_page(0, 0x80_0000, 0x20_0000, 0x20_0000, false, 2, Some(1), 0x5);
        bind_slot(0, 0, 1);
        bind_slot(0, 1, 2);
        // Retriever reads through its own IOPT span: clean.
        check_dma(0, 1, 0x80_0040, 0x20_0040, false);
        check_cpu(0, 0x20_0040, 0x40, 2, false);
        assert_eq!(violation_count(), 0);
        // Retriever *writing* the ro span via CPU is cross-tenant, and the
        // detail carries the live-handle provenance.
        check_cpu(0, 0x20_0040, 0x40, 2, true);
        assert_eq!(violations()[0].kind, "cpu_cross_tenant");
        assert!(violations()[0].detail.contains("live handle 0x5 -> vm 2 (ro)"));
        // Retriever ro DMA write is refused at the IOPT permission.
        check_dma(0, 1, 0x80_0040, 0x20_0040, true);
        assert_eq!(violations()[1].kind, "dma_perm");
        // Owner keeps full access throughout.
        check_cpu(0, 0x20_0000, 0x1000, 1, true);
        assert_eq!(violation_count(), 2);
    }

    #[test]
    fn relinquished_handle_probe_carries_full_ownership_history() {
        fresh();
        map_page(0, 0x10_0000, 0x20_0000, 0x20_0000, true, 1);
        retrieve_page(0, 0x80_0000, 0x20_0000, 0x20_0000, true, 2, Some(1), 0x9);
        bind_slot(0, 1, 2);
        check_dma(0, 1, 0x80_0040, 0x20_0040, true);
        assert_eq!(violation_count(), 0);
        relinquish_page(0, 0x80_0000, 0x20_0000, 2, 0x9, "relinquished");
        // A stale access to the now-relinquished span must fault like an
        // unmap — and the violation names the ended entitlement.
        check_dma(0, 1, 0x80_0040, 0x20_0040, true);
        assert_eq!(violations()[0].kind, "dma_unmapped");
        assert!(violations()[0].detail.contains("owner=vm 1"));
        assert!(violations()[0].detail.contains("relinquished handle 0x9 -> vm 2 (rw)"));
        // The retriever's CPU access is also revoked.
        check_cpu(0, 0x20_0040, 0x40, 2, false);
        assert_eq!(violations()[1].kind, "cpu_cross_tenant");
        assert!(violations()[1].detail.contains("relinquished handle 0x9"));
        // A correctly-faulted probe agrees with the model: no
        // dropped_legal_dma for the torn-down iova.
        check_dma_fault(0, 1, 0x80_0040, true);
        assert_eq!(violation_count(), 2);
    }

    #[test]
    fn retrieve_of_foreign_frame_is_share_bad_owner() {
        fresh();
        map_page(0, 0x10_0000, 0x20_0000, 0x1000, true, 1);
        // Claiming vm 3 owns the span when vm 1 does is flagged, and no
        // IOPT span is installed.
        retrieve_page(0, 0x80_0000, 0x20_0000, 0x1000, false, 2, Some(3), 0x7);
        assert_eq!(violations()[0].kind, "share_bad_owner");
        bind_slot(0, 1, 2);
        check_dma(0, 1, 0x80_0040, 0x20_0040, false);
        assert_eq!(violations()[1].kind, "dma_unmapped");
    }

    #[test]
    fn cross_device_mirror_retrieve_claims_frame_for_retriever() {
        fresh();
        // owner=None: a mirror frame on the retriever's device.
        retrieve_page(1, 0x80_0000, 0x40_0000, 0x20_0000, true, 6, None, 0x11);
        bind_slot(1, 0, 6);
        check_dma(1, 0, 0x80_0040, 0x40_0040, true);
        check_cpu(1, 0x40_0000, 0x100, 6, true);
        assert_eq!(violation_count(), 0);
        // Sync copies adopt-check against the mirror's claimed vm.
        check_adopt(1, 0x40_0000, 6, 1, 0x40_0000, 6);
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn double_relinquish_is_flagged() {
        fresh();
        map_page(0, 0x10_0000, 0x20_0000, 0x1000, true, 1);
        retrieve_page(0, 0x80_0000, 0x20_0000, 0x1000, false, 2, Some(1), 0x2);
        relinquish_page(0, 0x80_0000, 0x20_0000, 2, 0x2, "relinquished");
        assert_eq!(violation_count(), 0);
        relinquish_page(0, 0x80_0000, 0x20_0000, 2, 0x2, "reclaimed");
        let kinds: Vec<_> = violations().iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&"unmap_unknown"));
        assert!(kinds.contains(&"relinquish_unknown"));
    }

    #[test]
    fn foreign_regfile_write_is_flagged_and_owned_write_is_not() {
        fresh();
        bind_slot(0, 2, 7);
        check_mmio_write(0, 2, 7, 0x2040);
        assert_eq!(violation_count(), 0);
        check_mmio_write(0, 2, 9, 0x2040);
        assert_eq!(violations()[0].kind, "mmio_foreign_regfile");
        unbind_slot(0, 2);
        check_mmio_write(0, 2, 7, 0x2040);
        assert_eq!(violation_count(), 2);
    }
}
