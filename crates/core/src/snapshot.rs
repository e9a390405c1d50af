//! Versioned hypervisor snapshots: the `HvSnapshot` live-update format.
//!
//! A snapshot captures every piece of *hypervisor software* state —
//! address-space layouts, virtual-accelerator records, scheduler queues and
//! cursors, watchdog baselines, stats, the id and slice counters, and the
//! IO page table contents. It deliberately captures nothing *device-local*:
//! the fabric clock, in-flight DMAs, accelerator datapath state, IOTLB
//! entries, and host DRAM all live on (or behind) the device, which
//! persists across a live-update exactly as the physical FPGA persists
//! across a host hypervisor restart (the Rust-Shyper model). Because the
//! simulator's software state is exhaustively enumerable, a freeze → thaw
//! hand-off is provably lossless: the resumed run's fingerprint is
//! bit-identical to an uninterrupted one (CI stage 7).
//!
//! # Wire format
//!
//! Little-endian, length-prefixed, no padding:
//!
//! * magic `u64` (`SNAPSHOT_MAGIC`), version `u32` (`SNAPSHOT_VERSION`);
//! * fixed header fields in declaration order;
//! * each `Vec` as a `u64` count followed by its elements;
//! * strings as UTF-8 bytes with a `u64` length prefix;
//! * `f64` as IEEE-754 bits; enums as documented `u8` discriminants;
//! * `Option` of an integer as a `u64`, `u64::MAX` standing for `None`.
//!
//! Every type that appears on the wire implements `Wire` — its encode
//! and its decode side by side, next to the type's definition — and the
//! snapshot carries the model records themselves (`VirtualAccel`,
//! `ShareRecord`, `RetrievalState`), so a new field is written three
//! times: definition, `put`, `get`.
//!
//! Version rules: the version bumps whenever the layout or any
//! discriminant changes meaning; decoders reject unknown versions rather
//! than guessing (`SnapshotError::UnsupportedVersion`). Fields are never
//! reordered or repurposed within a version.

use crate::alloc::FrameAllocator;
use crate::hypervisor::{HvStats, RetrievalState, ShareRecord, TrapCost};
use crate::scheduler::{MemberState, SchedPolicy};
use crate::vaccel::VirtualAccel;
use crate::watchdog::{IsolationAlert, WatchdogConfig};
use optimus_fabric::accelerator::CtrlStatus;
use optimus_fabric::platform::DeviceId;
use optimus_mem::addr::PAGE_2M;
use std::collections::BTreeMap;

/// First eight bytes of every snapshot (`b"OPTMHVSN"`, little-endian).
pub const SNAPSHOT_MAGIC: u64 = u64::from_le_bytes(*b"OPTMHVSN");

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Errors from decoding or thawing a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the structure did.
    Truncated,
    /// The magic number is wrong (not a snapshot).
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// A value decoded out of range, or a cross-reference between records
    /// does not resolve (names the field or wire type).
    BadValue(&'static str),
    /// Decoding finished with bytes left over.
    TrailingBytes,
    /// The device handed to `thaw` does not match the snapshot's shape
    /// (wrong number of physical slots).
    DeviceMismatch,
    /// The device's installed IO page table disagrees with the snapshot
    /// (the IOPT persists in host memory across a live-update; a mismatch
    /// means the snapshot and device are from different runs).
    IoptMismatch,
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not an HvSnapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::BadValue(field) => write!(f, "invalid value for {field}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::DeviceMismatch => {
                write!(f, "device shape does not match snapshot")
            }
            SnapshotError::IoptMismatch => {
                write!(f, "device IO page table does not match snapshot")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The decode cursor over a snapshot's bytes.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// A value's place in the wire format: its one encode and its one decode.
pub(crate) trait Wire: Sized {
    /// Appends the value's encoding.
    fn put(&self, w: &mut Vec<u8>);
    /// Decodes one value, validating every discriminant.
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns the width asked for")))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

/// A `u8`-discriminant enum's [`Wire`] impl from one table, so the two
/// directions cannot disagree; `$field` names it in `BadValue`.
macro_rules! wire_enum {
    ($ty:ty, $field:literal, $($n:literal => $v:path),+) => {
        impl $crate::snapshot::Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                w.push(match self { $($v => $n),+ });
            }
            fn get(
                r: &mut $crate::snapshot::Reader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                match <u8 as $crate::snapshot::Wire>::get(r)? {
                    $($n => Ok($v),)+
                    _ => Err($crate::snapshot::SnapshotError::BadValue($field)),
                }
            }
        }
    };
}
pub(crate) use wire_enum;

wire_enum!(CtrlStatus, "shadow_status", 0 => CtrlStatus::Idle, 1 => CtrlStatus::Running,
    2 => CtrlStatus::Saving, 3 => CtrlStatus::Saved, 4 => CtrlStatus::Done);

impl Wire for bool {
    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::BadValue("bool")),
        }
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut Vec<u8>) {
        self.to_bits().put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for String {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u64).put(w);
        w.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        String::from_utf8(Vec::get(r)?).map_err(|_| SnapshotError::BadValue("string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u64).put(w);
        self.iter().for_each(|x| x.put(w));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = u64::get(r)?;
        // A length can never exceed the bytes that remain; this bounds
        // allocations on corrupt input.
        if n > (r.buf.len() - r.pos) as u64 {
            return Err(SnapshotError::Truncated);
        }
        let mut v = Vec::with_capacity(n as usize);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u64).put(w);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// An optional integer is one `u64`, `u64::MAX` standing for `None`.
impl<T: Copy + Into<u64> + TryFrom<u64>> Wire for Option<T> {
    fn put(&self, w: &mut Vec<u8>) {
        self.map_or(u64::MAX, Into::into).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u64::get(r)? {
            u64::MAX => Ok(None),
            v => T::try_from(v).map(Some).map_err(|_| SnapshotError::BadValue("option")),
        }
    }
}

/// One VM's address-space state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmSnap {
    /// The VM id (monotonic, never recycled).
    pub id: u32,
    /// Human-readable VM name.
    pub name: String,
    /// The guest allocator's bump cursor.
    pub next_gva: u64,
    /// Every mapped 2 MB page as `(gva, hpa)`, ascending by GVA.
    pub pages: Vec<(u64, u64)>,
}

impl Wire for VmSnap {
    fn put(&self, w: &mut Vec<u8>) {
        self.id.put(w);
        self.name.put(w);
        self.next_gva.put(w);
        self.pages.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            id: Wire::get(r)?,
            name: Wire::get(r)?,
            next_gva: Wire::get(r)?,
            pages: Wire::get(r)?,
        })
    }
}

/// One physical slot's scheduler and residency.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSnap {
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Base slice length in cycles.
    pub base_slice: u64,
    /// Queue members in rotation order.
    pub members: Vec<MemberState>,
    /// Rotation cursor.
    pub cursor: u64,
    /// The vaccel occupying the physical accelerator, if any.
    pub current: Option<u32>,
    /// Absolute cycle at which the current slice expires.
    pub slice_ends: u64,
}

impl Wire for SlotSnap {
    fn put(&self, w: &mut Vec<u8>) {
        self.policy.put(w);
        self.base_slice.put(w);
        self.members.put(w);
        self.cursor.put(w);
        self.current.put(w);
        self.slice_ends.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            policy: Wire::get(r)?,
            base_slice: Wire::get(r)?,
            members: Wire::get(r)?,
            cursor: Wire::get(r)?,
            current: Wire::get(r)?,
            slice_ends: Wire::get(r)?,
        })
    }
}

/// Watchdog state: config, deadline, diff baselines, retained alerts.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogSnap {
    /// Resolved thresholds.
    pub cfg: WatchdogConfig,
    /// Next evaluation deadline (absolute cycle).
    pub next_eval: u64,
    /// Per-slot root-grant counts at the last evaluation.
    pub last_forwarded: Vec<u64>,
    /// (lookups, conflict evictions) at the last evaluation.
    pub last_iotlb: (u64, u64),
    /// Retained alert history.
    pub alerts: Vec<IsolationAlert>,
}

impl Wire for WatchdogSnap {
    fn put(&self, w: &mut Vec<u8>) {
        self.cfg.put(w);
        self.next_eval.put(w);
        self.last_forwarded.put(w);
        self.last_iotlb.put(w);
        self.alerts.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            cfg: Wire::get(r)?,
            next_eval: Wire::get(r)?,
            last_forwarded: Wire::get(r)?,
            last_iotlb: Wire::get(r)?,
            alerts: Wire::get(r)?,
        })
    }
}

/// One IO page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoptEntry {
    /// IO virtual address (slice-offset GVA).
    pub iova: u64,
    /// Host physical address.
    pub hpa: u64,
    /// 4 KB entry (`true`) or 2 MB entry (`false`).
    pub small: bool,
    /// Writable.
    pub write: bool,
}

impl Wire for IoptEntry {
    fn put(&self, w: &mut Vec<u8>) {
        self.iova.put(w);
        self.hpa.put(w);
        self.small.put(w);
        self.write.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            iova: Wire::get(r)?,
            hpa: Wire::get(r)?,
            small: Wire::get(r)?,
            write: Wire::get(r)?,
        })
    }
}

/// A complete hypervisor software snapshot (see the module docs for what
/// is deliberately *not* here).
#[derive(Debug, Clone, PartialEq)]
pub struct HvSnapshot {
    /// The device identity within its node.
    pub device_id: DeviceId,
    /// Pass-through (direct assignment) mode.
    pub passthrough: bool,
    /// Page-table-slicing stride in bytes.
    pub slice_bytes: u64,
    /// The 128 MB inter-slice IOTLB mitigation gap.
    pub iotlb_mitigation: bool,
    /// Temporal-multiplexing time slice.
    pub time_slice: u64,
    /// Guest MMIO cost model.
    pub trap: TrapCost,
    /// Preemption drain+save deadline.
    pub preempt_timeout: u64,
    /// Next page-table slice index to assign.
    pub next_slice: u64,
    /// Monotonic VM id counter.
    pub next_vm_id: u32,
    /// Monotonic vaccel id counter.
    pub next_vaccel_id: u32,
    /// Monotonic job id counter (low half; the device tag is re-derived
    /// from `device_id` at mint time).
    pub next_job_id: u64,
    /// Host frame allocator bump cursor.
    pub alloc_cursor: u64,
    /// Software-side counters (the device-integrity overlays are
    /// recomputed from the device on demand).
    pub stats: HvStats,
    /// All VMs, ascending by id.
    pub vms: Vec<VmSnap>,
    /// All virtual accelerators, ascending by id.
    pub vaccels: Vec<VirtualAccel>,
    /// All physical slots, in slot order.
    pub slots: Vec<SlotSnap>,
    /// Watchdog state.
    pub watchdog: WatchdogSnap,
    /// The IO page table, ascending by IOVA. Serialized for audit and
    /// verified against the (persistent) device on thaw.
    pub iopt: Vec<IoptEntry>,
    /// Monotonic share-handle counter (low half; the device tag is
    /// re-derived from `device_id`).
    pub next_share_handle: u64,
    /// Share records whose owner lives on this device, ascending by
    /// handle.
    pub shares: Vec<ShareRecord>,
    /// Foreign retrievals (local mirrors of remote-owned shares), in
    /// registration order.
    pub retrievals: Vec<RetrievalState>,
}

impl HvSnapshot {
    /// Serializes to the versioned wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let w = &mut Vec::with_capacity(4096);
        SNAPSHOT_MAGIC.put(w);
        SNAPSHOT_VERSION.put(w);
        self.device_id.0.put(w);
        self.passthrough.put(w);
        self.slice_bytes.put(w);
        self.iotlb_mitigation.put(w);
        self.time_slice.put(w);
        self.trap.put(w);
        self.preempt_timeout.put(w);
        self.next_slice.put(w);
        self.next_vm_id.put(w);
        self.next_vaccel_id.put(w);
        self.next_job_id.put(w);
        self.alloc_cursor.put(w);
        self.stats.put(w);
        self.vms.put(w);
        self.vaccels.put(w);
        self.slots.put(w);
        self.watchdog.put(w);
        self.iopt.put(w);
        self.next_share_handle.put(w);
        self.shares.put(w);
        self.retrievals.put(w);
        std::mem::take(w)
    }

    /// Decodes a snapshot, validating magic, version, and every
    /// discriminant. Cross-references between the decoded records are
    /// [`validate`](Self::validate)'s job.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let r = &mut Reader { buf: bytes, pos: 0 };
        if u64::get(r)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::get(r)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let snap = HvSnapshot {
            device_id: DeviceId(Wire::get(r)?),
            passthrough: Wire::get(r)?,
            slice_bytes: Wire::get(r)?,
            iotlb_mitigation: Wire::get(r)?,
            time_slice: Wire::get(r)?,
            trap: Wire::get(r)?,
            preempt_timeout: Wire::get(r)?,
            next_slice: Wire::get(r)?,
            next_vm_id: Wire::get(r)?,
            next_vaccel_id: Wire::get(r)?,
            next_job_id: Wire::get(r)?,
            alloc_cursor: Wire::get(r)?,
            stats: Wire::get(r)?,
            vms: Wire::get(r)?,
            vaccels: Wire::get(r)?,
            slots: Wire::get(r)?,
            watchdog: Wire::get(r)?,
            iopt: Wire::get(r)?,
            next_share_handle: Wire::get(r)?,
            shares: Wire::get(r)?,
            retrievals: Wire::get(r)?,
        };
        if r.pos != bytes.len() {
            return Err(SnapshotError::TrailingBytes);
        }
        Ok(snap)
    }

    /// Every retrieved span that is mapped into a VM on this device:
    /// same-device retrievals (held in the owner's record) and mirrors of
    /// remote-owned shares alike.
    pub(crate) fn retrieved_spans(&self) -> impl Iterator<Item = RetrievalState> + '_ {
        let local = self.shares.iter().filter_map(ShareRecord::local_retrieval);
        local.chain(self.retrievals.iter().cloned())
    }

    /// Checks every cross-reference `thaw` and the run loop after it index
    /// by, for a device with `slots` physical slots: a snapshot that
    /// decodes but does not hang together is a typed error here, not a
    /// panic (or a one-cycle-per-iteration crawl) later.
    pub fn validate(&self, slots: usize) -> Result<(), SnapshotError> {
        let ensure = |ok: bool, field| ok.then_some(()).ok_or(SnapshotError::BadValue(field));
        if self.slots.len() != slots {
            return Err(SnapshotError::DeviceMismatch);
        }
        ensure(FrameAllocator::holds_cursor(self.alloc_cursor), "alloc_cursor")?;
        ensure(self.watchdog.cfg.window != 0, "watchdog window")?;
        ensure(self.watchdog.last_forwarded.len() == slots, "watchdog last_forwarded")?;
        // The page tables take 2 MB-aligned 48-bit addresses, each once.
        let page = |a: u64| a % PAGE_2M == 0 && a < 1 << 48;
        ensure(self.vms.windows(2).all(|w| w[0].id < w[1].id), "vm id")?;
        for vm in &self.vms {
            let ascending = vm.pages.windows(2).all(|w| w[0].0 < w[1].0);
            let aligned = vm.pages.iter().all(|&(gva, hpa)| page(gva) && page(hpa));
            ensure(ascending && aligned, "vm pages")?;
        }
        let vm = |id: u32| self.vms.iter().find(|vm| vm.id == id);
        ensure(self.vaccels.windows(2).all(|w| w[0].id < w[1].id), "vaccel id")?;
        for v in &self.vaccels {
            ensure(v.slot < slots, "vaccel slot")?;
            ensure(vm(v.vm.0).is_some(), "vaccel vm")?;
        }
        let on_slot =
            |key: u64, slot| self.vaccels.iter().any(|v| v.id.0 as u64 == key && v.slot == slot);
        for (i, s) in self.slots.iter().enumerate() {
            ensure(s.current.is_none_or(|va| on_slot(va as u64, i)), "slot current")?;
            ensure(s.members.iter().all(|m| m.weight > 0 && on_slot(m.key, i)), "slot members")?;
        }
        // Retrieved spans are re-mapped into their VM at thaw and torn
        // down through that VM's vaccel: both must exist, and no page of
        // a span may collide with an owned page or another span.
        let mut claimed: Vec<(u32, u64)> = Vec::new();
        for span in self.retrieved_spans() {
            let home = vm(span.vm).filter(|_| self.vaccels.iter().any(|v| v.vm.0 == span.vm));
            let home = home.ok_or(SnapshotError::BadValue("retrieval vm"))?;
            for (i, &hpa) in span.hpas.iter().enumerate() {
                let gva = span.gva.wrapping_add(i as u64 * PAGE_2M);
                let fresh = home.pages.binary_search_by_key(&gva, |p| p.0).is_err()
                    && !claimed.contains(&(span.vm, gva));
                ensure(fresh && page(gva) && page(hpa), "retrieval span")?;
                claimed.push((span.vm, gva));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::ShareState;
    use crate::vaccel::{VaccelId, VaccelRun};
    use crate::vm::VmId;
    use crate::watchdog::AlertKind;
    use optimus_mem::addr::Gva;
    use optimus_sim::rng::Xoshiro256;
    use optimus_testkit::gens::Gen;
    use optimus_testkit::runner::check;
    use optimus_testkit::{prop_assert, prop_assert_eq};

    /// A snapshot with random contents in every field of every record type
    /// (0–3 elements per list). Not internally consistent — that is
    /// `validate`'s concern, not the wire's.
    fn arbitrary(rng: &mut Xoshiro256) -> HvSnapshot {
        fn list<T>(rng: &mut Xoshiro256, mut f: impl FnMut(&mut Xoshiro256) -> T) -> Vec<T> {
            (0..rng.gen_range(0..4)).map(|_| f(rng)).collect()
        }
        fn pick<T: Clone>(rng: &mut Xoshiro256, of: &[T]) -> T {
            of[rng.gen_range(0..of.len() as u64) as usize].clone()
        }
        // `u64::MAX` is the wire's `None`, so it is not a `Some` payload.
        fn opt(rng: &mut Xoshiro256) -> Option<u64> {
            rng.gen_bool(0.5).then(|| rng.gen_range(0..u64::MAX))
        }
        let flag = |rng: &mut Xoshiro256| rng.gen_bool(0.5);
        let word = |rng: &mut Xoshiro256| rng.next_u64();
        let name = |rng: &mut Xoshiro256| format!("tenant-{}-µ", rng.next_u32());
        HvSnapshot {
            device_id: DeviceId(rng.next_u32()),
            passthrough: flag(rng),
            slice_bytes: word(rng),
            iotlb_mitigation: flag(rng),
            time_slice: word(rng),
            trap: pick(rng, &[TrapCost::Native, TrapCost::Virtualized]),
            preempt_timeout: word(rng),
            next_slice: word(rng),
            next_vm_id: rng.next_u32(),
            next_vaccel_id: rng.next_u32(),
            next_job_id: word(rng),
            alloc_cursor: word(rng),
            stats: HvStats {
                traps: word(rng),
                pinned_pages: word(rng),
                discarded_mmio: word(rng),
                alerts_save_refused: word(rng),
                ..Default::default()
            },
            vms: list(rng, |rng| VmSnap {
                id: rng.next_u32(),
                name: name(rng),
                next_gva: word(rng),
                pages: list(rng, |rng| (word(rng), word(rng))),
            }),
            vaccels: list(rng, |rng| VirtualAccel {
                id: VaccelId(rng.next_u32()),
                vm: VmId(rng.next_u32()),
                slot: rng.next_u32() as usize,
                slice: word(rng),
                dma_base: Gva::new(word(rng)),
                state_buffer: Gva::new(word(rng)),
                app_regs: list(rng, |rng| (word(rng), word(rng))).into_iter().collect(),
                pending_start: flag(rng),
                run: pick(
                    rng,
                    &[
                        VaccelRun::Fresh,
                        VaccelRun::Scheduled,
                        VaccelRun::SavedInMemory,
                        VaccelRun::Completed,
                    ],
                ),
                shadow_status: CtrlStatus::from_u64(rng.gen_range(0..5)),
                forced_resets: word(rng),
                job: word(rng),
            }),
            slots: list(rng, |rng| SlotSnap {
                policy: pick(
                    rng,
                    &[SchedPolicy::RoundRobin, SchedPolicy::Weighted, SchedPolicy::Priority],
                ),
                base_slice: word(rng),
                members: list(rng, |rng| MemberState {
                    key: word(rng),
                    weight: rng.next_u32(),
                    priority: rng.next_u32(),
                    runnable: flag(rng),
                    occupied: word(rng),
                }),
                cursor: word(rng),
                current: flag(rng).then(|| rng.next_u32()),
                slice_ends: word(rng),
            }),
            watchdog: WatchdogSnap {
                cfg: WatchdogConfig {
                    window: word(rng),
                    starvation_share: rng.gen_f64(),
                    min_grants: word(rng),
                    thrash_rate: rng.gen_f64(),
                    min_lookups: word(rng),
                    max_alerts: rng.next_u32() as usize,
                },
                next_eval: word(rng),
                last_forwarded: list(rng, word),
                last_iotlb: (word(rng), word(rng)),
                alerts: list(rng, |rng| IsolationAlert {
                    kind: pick(
                        rng,
                        &[
                            AlertKind::Starvation,
                            AlertKind::IotlbThrash,
                            AlertKind::PreemptOverrun,
                            AlertKind::SaveRefused,
                        ],
                    ),
                    device: DeviceId(rng.next_u32()),
                    slot: flag(rng).then(|| rng.next_u32() as usize),
                    at: word(rng),
                    observed: rng.gen_f64() * 1e9,
                    threshold: rng.gen_f64(),
                    job: opt(rng),
                    peer_job: opt(rng),
                }),
            },
            iopt: list(rng, |rng| IoptEntry {
                iova: word(rng),
                hpa: word(rng),
                small: flag(rng),
                write: flag(rng),
            }),
            next_share_handle: word(rng),
            shares: list(rng, |rng| ShareRecord {
                handle: word(rng),
                owner_vm: rng.next_u32(),
                peer: name(rng),
                gva: word(rng),
                hpas: list(rng, word),
                writable: flag(rng),
                state: pick(
                    rng,
                    &[
                        ShareState::Shared,
                        ShareState::Retrieved,
                        ShareState::Relinquished,
                        ShareState::Reclaimed,
                    ],
                ),
                retriever_vm: flag(rng).then(|| rng.next_u32()),
                retriever_gva: word(rng),
            }),
            retrievals: list(rng, |rng| RetrievalState {
                handle: word(rng),
                vm: rng.next_u32(),
                gva: word(rng),
                hpas: list(rng, word),
                writable: flag(rng),
            }),
        }
    }

    /// Every record type round-trips through the wire, whatever it holds,
    /// and the encoding is canonical (decode → encode gives the bytes back).
    #[test]
    fn every_record_type_round_trips() {
        check("every_record_type_round_trips", &Gen::no_shrink(arbitrary), |snap| {
            let bytes = snap.to_bytes();
            let back = HvSnapshot::from_bytes(&bytes);
            prop_assert_eq!(back.as_ref(), Ok(snap));
            prop_assert!(back.unwrap().to_bytes() == bytes);
            Ok(())
        });
    }

    /// Any prefix of any snapshot is `Truncated` (or, inside the magic,
    /// `BadMagic`): lengths are checked against the bytes that remain.
    #[test]
    fn every_prefix_of_an_arbitrary_snapshot_is_truncated() {
        check("every_prefix_is_truncated", &Gen::no_shrink(arbitrary), |snap| {
            let bytes = snap.to_bytes();
            for cut in 0..bytes.len() {
                let err = HvSnapshot::from_bytes(&bytes[..cut]);
                prop_assert!(
                    matches!(err, Err(SnapshotError::Truncated | SnapshotError::BadMagic)),
                    "cut at {cut}: {err:?}"
                );
            }
            Ok(())
        });
    }

    fn sample() -> HvSnapshot {
        HvSnapshot {
            device_id: DeviceId(2),
            passthrough: false,
            slice_bytes: 64 << 30,
            iotlb_mitigation: true,
            time_slice: 4_000_000,
            trap: TrapCost::Virtualized,
            preempt_timeout: 400_000,
            next_slice: 3,
            next_vm_id: 5,
            next_vaccel_id: 7,
            next_job_id: 9,
            alloc_cursor: (1 << 32) + (4 << 21),
            stats: HvStats { traps: 11, hypercalls: 4, ..Default::default() },
            vms: vec![VmSnap {
                id: 4,
                name: "tenant-a".into(),
                next_gva: 0x7f00_0040_0000,
                pages: vec![(0x7f00_0000_0000, 1 << 32), (0x7f00_0020_0000, (1 << 32) + (1 << 21))],
            }],
            vaccels: vec![VirtualAccel {
                id: VaccelId(6),
                vm: VmId(4),
                slot: 1,
                slice: 2,
                dma_base: Gva::new(0x7f00_0000_0000),
                state_buffer: Gva::new(0x7f00_0020_0000),
                app_regs: BTreeMap::from([(0, 0x7f00_0000_0000), (16, 64)]),
                pending_start: false,
                run: VaccelRun::SavedInMemory,
                shadow_status: CtrlStatus::Running,
                forced_resets: 1,
                job: (3 << 32) | 8,
            }],
            slots: vec![
                SlotSnap {
                    policy: SchedPolicy::RoundRobin,
                    base_slice: 4_000_000,
                    members: vec![MemberState {
                        key: 6,
                        weight: 1,
                        priority: 0,
                        runnable: true,
                        occupied: 8_000_000,
                    }],
                    cursor: 0,
                    current: None,
                    slice_ends: 12_000_000,
                },
                SlotSnap {
                    policy: SchedPolicy::Weighted,
                    base_slice: 4_000_000,
                    members: vec![],
                    cursor: 0,
                    current: Some(6),
                    slice_ends: 0,
                },
            ],
            watchdog: WatchdogSnap {
                cfg: WatchdogConfig::default(),
                next_eval: 16_000_000,
                last_forwarded: vec![10, 20],
                last_iotlb: (100, 3),
                alerts: vec![IsolationAlert {
                    kind: AlertKind::Starvation,
                    device: DeviceId(2),
                    slot: Some(0),
                    at: 12_000_000,
                    observed: 0.01,
                    threshold: 0.05,
                    job: Some((3 << 32) | 8),
                    peer_job: None,
                }],
            },
            iopt: vec![
                IoptEntry { iova: 64 << 30, hpa: 1 << 32, small: false, write: true },
                IoptEntry { iova: (64 << 30) + 4096, hpa: (1 << 32) + 4096, small: true, write: true },
            ],
            next_share_handle: 4,
            shares: vec![ShareRecord {
                handle: (3 << 32) | 2,
                owner_vm: 4,
                peer: "tenant-b".into(),
                gva: 0x7f00_0000_0000,
                hpas: vec![1 << 32],
                writable: true,
                state: ShareState::Retrieved,
                retriever_vm: Some(9),
                retriever_gva: 0x7f00_0060_0000,
            }],
            retrievals: vec![RetrievalState {
                handle: (7 << 32) | 1,
                vm: 4,
                gva: 0x7f00_0080_0000,
                hpas: vec![(1 << 32) + (3 << 21)],
                writable: false,
            }],
        }
    }

    #[test]
    fn wire_round_trip_is_lossless() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = HvSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(HvSnapshot::from_bytes(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert_eq!(
            HvSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = HvSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            HvSnapshot::from_bytes(&bytes),
            Err(SnapshotError::TrailingBytes)
        );
    }

    #[test]
    fn bad_discriminants_rejected() {
        let snap = sample();
        let bytes = snap.to_bytes();
        // The trap byte sits right after magic+version+device_id+passthrough+
        // slice_bytes+iotlb_mitigation+time_slice.
        let trap_pos = 8 + 4 + 4 + 1 + 8 + 1 + 8;
        let mut bad = bytes.clone();
        bad[trap_pos] = 9;
        assert_eq!(
            HvSnapshot::from_bytes(&bad),
            Err(SnapshotError::BadValue("trap"))
        );
    }
}
