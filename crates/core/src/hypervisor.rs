//! The OPTIMUS hypervisor.
//!
//! [`Optimus`] follows the paper's mediated pass-through architecture
//! (§4): control-plane operations (MMIO) are trapped and emulated, while
//! the data plane (accelerator DMAs) bypasses software entirely, isolated
//! by page table slicing in the hardware monitor. The struct owns the
//! simulated FPGA device, the VMs, the virtual accelerators, and the
//! per-slot temporal schedulers; [`GuestCtx`] is the guest-visible surface
//! (the paper's guest driver + userspace library).
//!
//! Software costs are charged by advancing the device clock: a trapped
//! MMIO costs ≈ 2 µs, a native one ≈ 0.3 µs, a shadow-paging hypercall
//! ≈ 1.5 µs (see `optimus_cci::params::host_costs`). This is what makes the
//! control-plane cost of virtualization visible in the Fig. 1 comparison.

use crate::alloc::FrameAllocator;
use crate::scheduler::{MemberState, SchedPolicy, SliceScheduler};
use crate::slicing::SlicingConfig;
use crate::snapshot::{
    HvSnapshot, IoptEntry, RetrievalSnap, ShareSnap, SlotSnap, SnapshotError, VaccelSnap, VmSnap,
    WatchdogSnap,
};
use crate::vaccel::{VaccelId, VaccelRun, VirtualAccel};
use crate::vm::{Vm, VmError, VmId};
use crate::watchdog::{AlertKind, IsolationAlert, Watchdog, WatchdogConfig};
use optimus_accel::registry::{build_accelerator, AccelKind};
use optimus_cci::channel::SelectorPolicy;
use optimus_cci::params::host_costs;
use optimus_fabric::accelerator::CtrlStatus;
use optimus_fabric::device::FpgaDevice;
use optimus_fabric::mmio::{accel_mmio_base, accel_reg, vcu_reg, ACCEL_PAGE, VCU_BASE};
use optimus_fabric::platform::{DeviceId, FabricError, PlatformDevice};
use optimus_mem::addr::{Gva, Hpa, Iova, PageSize, PAGE_2M, PAGE_4K};
use optimus_mem::host::FrameFiller;
use optimus_mem::page_table::PageFlags;
use optimus_sim::journal;
use optimus_sim::metrics;
use optimus_sim::rng::derive_seed;
use optimus_sim::spec;
use optimus_sim::time::{ms_to_cycles, ns_to_cycles, Cycle};
use optimus_sim::trace::{self, Track};
use std::collections::BTreeMap;

/// The accelerator seed for physical slot `i`.
///
/// Uses SplitMix64 stream splitting rather than `base + i`: additive seeds
/// correlate the streams of adjacent slots (and of slots on adjacent node
/// devices, whose base seeds are themselves consecutive derivations).
fn slot_seed(base: u64, i: usize) -> u64 {
    derive_seed(base, i as u64)
}

/// MMIO cost model for guest accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapCost {
    /// Bare-metal latency (≈ 0.3 µs): the native baselines of Fig. 1.
    Native,
    /// Trap-and-emulate latency (≈ 2 µs): every virtualized configuration.
    Virtualized,
}

impl TrapCost {
    fn cycles(self) -> Cycle {
        match self {
            TrapCost::Native => ns_to_cycles(host_costs::MMIO_NATIVE_NS),
            TrapCost::Virtualized => ns_to_cycles(host_costs::MMIO_TRAPPED_NS),
        }
    }
}

/// How a guest DMA region is backed in the host memory model.
pub enum Backing {
    /// Ordinary zero-filled memory.
    Normal,
    /// Lazily synthesized content (huge deterministic datasets).
    Lazy(FrameFiller),
    /// Writes counted but discarded (bulk benchmark output).
    Scratch,
}

/// Hypervisor configuration.
pub struct OptimusConfig {
    /// Accelerator kinds to configure onto the FPGA (≤ 8).
    pub accels: Vec<AccelKind>,
    /// Multiplexer-tree arity (2 = the only arrangement that closes
    /// 400 MHz timing; others are for ablations).
    pub arity: usize,
    /// CCI-P channel selection policy.
    pub channel_policy: SelectorPolicy,
    /// Page-table-slicing layout.
    pub slicing: SlicingConfig,
    /// Temporal-multiplexing time slice in fabric cycles (default 10 ms).
    pub time_slice: Cycle,
    /// Temporal-multiplexing policy.
    pub sched_policy: SchedPolicy,
    /// Guest MMIO cost model.
    pub trap: TrapCost,
    /// Cycles to wait for `Saved` before forcibly resetting an accelerator
    /// that fails to cede (§4.2).
    pub preempt_timeout: Cycle,
    /// Seed for accelerator-internal randomness.
    pub seed: u64,
    /// Isolation-watchdog thresholds (window 0 = 4 × `time_slice`).
    pub watchdog: WatchdogConfig,
}

impl OptimusConfig {
    /// The paper's default configuration for a given accelerator mix.
    pub fn new(accels: Vec<AccelKind>) -> Self {
        Self {
            accels,
            arity: 2,
            channel_policy: SelectorPolicy::Auto,
            slicing: SlicingConfig::default(),
            time_slice: ms_to_cycles(10.0),
            sched_policy: SchedPolicy::RoundRobin,
            trap: TrapCost::Virtualized,
            preempt_timeout: ms_to_cycles(1.0),
            seed: 42,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Hypervisor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HvStats {
    /// Guest MMIO traps taken.
    pub traps: u64,
    /// Shadow-paging hypercalls processed.
    pub hypercalls: u64,
    /// Pages pinned for DMA.
    pub pinned_pages: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Actual preemptions issued (CMD_PREEMPT sent to a running job).
    pub preemptions: u64,
    /// Preemption timeouts that forced a reset.
    pub forced_resets: u64,
    /// Packets the device dropped at the shell/auditor layer.
    pub dropped_packets: u64,
    /// DMA responses the auditors discarded (failed identity audit).
    pub discarded_dma: u64,
    /// MMIO accesses the auditors discarded (outside the slice window).
    pub discarded_mmio: u64,
    /// Watchdog alerts: tenants starved of mux bandwidth.
    pub alerts_starvation: u64,
    /// Watchdog alerts: IOTLB conflict-eviction storms (Fig. 6 pathology).
    pub alerts_iotlb_thrash: u64,
    /// Watchdog alerts: preemptions that blew the Fig. 8 deadline.
    pub alerts_preempt_overrun: u64,
    /// Alerts: drain+saves refused because the guest state buffer did not
    /// resolve to mapped memory (slot force-reset instead).
    pub alerts_save_refused: u64,
}

impl HvStats {
    /// Adds `other`'s counters into `self` (node-level aggregation across
    /// devices).
    pub fn accumulate(&mut self, other: &HvStats) {
        self.traps += other.traps;
        self.hypercalls += other.hypercalls;
        self.pinned_pages += other.pinned_pages;
        self.context_switches += other.context_switches;
        self.preemptions += other.preemptions;
        self.forced_resets += other.forced_resets;
        self.dropped_packets += other.dropped_packets;
        self.discarded_dma += other.discarded_dma;
        self.discarded_mmio += other.discarded_mmio;
        self.alerts_starvation += other.alerts_starvation;
        self.alerts_iotlb_thrash += other.alerts_iotlb_thrash;
        self.alerts_preempt_overrun += other.alerts_preempt_overrun;
        self.alerts_save_refused += other.alerts_save_refused;
    }
}

struct Slot {
    sched: SliceScheduler,
    current: Option<VaccelId>,
    slice_ends: Cycle,
}

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

/// A retrieval the detached tenant held, carried in [`TenantState`] so the
/// node can rebuild the mapping (as a mirror) on the target device.
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

/// A tenant detached from its source hypervisor, ready to attach
/// elsewhere: the VM's address-space layout, the vaccel record, its
/// scheduler account, and the IOPT granularity of every page. Host frame
/// *contents* are not here — they stay in the source device's memory
/// until the node copies them (`HostMemory::adopt_span`) after attach.
#[derive(Debug)]
pub struct TenantState {
    pub(crate) name: String,
    pub(crate) next_gva: u64,
    /// `(gva, source hpa)` for every 2 MB page, ascending by GVA.
    pub(crate) pages: Vec<(u64, u64)>,
    /// IOPT granularity each page was registered with, parallel to
    /// `pages` (replayed faithfully on the target).
    pub(crate) io_pages: Vec<PageSize>,
    pub(crate) slot: usize,
    pub(crate) sched: MemberState,
    pub(crate) dma_base: Gva,
    pub(crate) state_buffer: Gva,
    pub(crate) app_regs: BTreeMap<u64, u64>,
    pub(crate) pending_start: bool,
    pub(crate) run: VaccelRun,
    pub(crate) shadow_status: CtrlStatus,
    pub(crate) forced_resets: u64,
    /// The in-flight job's id: the journal key travels with the tenant,
    /// so one record spans both devices.
    pub(crate) job: u64,
    /// Share records this tenant owns (re-homed onto the target; HPAs are
    /// rewritten through the frame-copy map at attach).
    pub(crate) shares: Vec<ShareRecord>,
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
        self.slot
    }

    /// Bytes of guest memory that must move with the tenant.
    pub fn bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_2M
    }
}

/// The hypervisor.
///
/// Generic over the device it mediates: production code uses the default
/// [`FpgaDevice`]; the node layer and tests only need the
/// [`PlatformDevice`] surface. Each hypervisor carries the [`DeviceId`]
/// it is known by within a node (`DeviceId(0)` standalone).
pub struct Optimus<D: PlatformDevice = FpgaDevice> {
    device: D,
    device_id: DeviceId,
    passthrough: bool,
    slicing: SlicingConfig,
    time_slice: Cycle,
    trap: TrapCost,
    preempt_timeout: Cycle,
    vms: BTreeMap<u32, Vm>,
    vaccels: BTreeMap<u32, VirtualAccel>,
    /// Monotonic id counters: detach/migrate removes entries, and recycled
    /// ids would alias live tenants in metrics, traces, and the auditor.
    next_vm_id: u32,
    next_vaccel_id: u32,
    /// Monotonic job-id counter (combined with the device tag at mint
    /// time, like share handles). Survives live-update; never recycled.
    next_job_id: u64,
    slots: Vec<Slot>,
    frames: FrameAllocator,
    next_slice: u64,
    stats: HvStats,
    watchdog: Watchdog,
    /// Handle table: shares whose *owner* lives on this hypervisor.
    pub(crate) shares: BTreeMap<u64, ShareRecord>,
    /// Monotonic per-device handle counter (combined with the device tag
    /// at mint time; 0 is never a valid handle).
    next_share_handle: u64,
    /// Retrievals whose share record lives on another device (mirrors).
    pub(crate) foreign_retrievals: Vec<RetrievalState>,
}

impl Optimus {
    /// Boots an OPTIMUS-configured FPGA and the hypervisor around it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (e.g. no accelerators);
    /// [`try_new`](Self::try_new) reports that as a typed error instead.
    pub fn new(config: OptimusConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("Optimus::new: {e}"))
    }

    /// Fallible variant of [`new`](Self::new), for callers (like a node
    /// constructing many devices) that need to report which device failed
    /// and why.
    pub fn try_new(config: OptimusConfig) -> Result<Self, FabricError> {
        let accels = config
            .accels
            .iter()
            .enumerate()
            .map(|(i, &k)| build_accelerator(k, slot_seed(config.seed, i)))
            .collect();
        let device = FpgaDevice::try_new_monitored(accels, config.arity, config.channel_policy)?;
        let slots = (0..config.accels.len())
            .map(|_| Slot {
                sched: SliceScheduler::new(config.sched_policy.clone(), config.time_slice),
                current: None,
                slice_ends: 0,
            })
            .collect();
        let watchdog = Watchdog::new(config.watchdog, config.accels.len(), config.time_slice);
        let mut hv = Self {
            device,
            device_id: DeviceId(0),
            passthrough: false,
            slicing: config.slicing,
            time_slice: config.time_slice,
            trap: config.trap,
            preempt_timeout: config.preempt_timeout,
            vms: BTreeMap::new(),
            vaccels: BTreeMap::new(),
            next_vm_id: 0,
            next_vaccel_id: 0,
            next_job_id: 1,
            slots,
            frames: FrameAllocator::new(),
            next_slice: 0,
            stats: HvStats::default(),
            watchdog,
            shares: BTreeMap::new(),
            next_share_handle: 1,
            foreign_retrievals: Vec::new(),
        };
        // Sanity-check the hardware: an OPTIMUS-compatible configuration
        // advertises itself through the VCU magic register.
        let magic = hv.device.mmio_read(VCU_BASE + vcu_reg::MAGIC);
        assert_eq!(magic, vcu_reg::MAGIC_VALUE, "incompatible FPGA configuration");
        Ok(hv)
    }

    /// Boots a pass-through (direct assignment + vIOMMU) baseline: one
    /// accelerator, no hardware monitor, IOVA = GVA.
    pub fn new_passthrough(kind: AccelKind, policy: SelectorPolicy, trap: TrapCost) -> Self {
        let device = FpgaDevice::new_passthrough(build_accelerator(kind, 42), policy);
        Self {
            device,
            device_id: DeviceId(0),
            passthrough: true,
            slicing: SlicingConfig::default(),
            time_slice: ms_to_cycles(10.0),
            trap,
            preempt_timeout: ms_to_cycles(1.0),
            vms: BTreeMap::new(),
            vaccels: BTreeMap::new(),
            next_vm_id: 0,
            next_vaccel_id: 0,
            next_job_id: 1,
            slots: vec![Slot {
                sched: SliceScheduler::new(SchedPolicy::RoundRobin, ms_to_cycles(10.0)),
                current: None,
                slice_ends: 0,
            }],
            frames: FrameAllocator::new(),
            next_slice: 0,
            stats: HvStats::default(),
            watchdog: Watchdog::new(WatchdogConfig::default(), 1, ms_to_cycles(10.0)),
            shares: BTreeMap::new(),
            next_share_handle: 1,
            foreign_retrievals: Vec::new(),
        }
    }
}

impl<D: PlatformDevice> Optimus<D> {
    /// The simulated device (read-only observation).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutable device access (benchmark harness instrumentation only).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// This hypervisor's device identity within its node.
    pub fn device_id(&self) -> DeviceId {
        self.device_id
    }

    /// Assigns the device identity (called by the node at construction).
    pub fn set_device_id(&mut self, id: DeviceId) {
        self.device_id = id;
    }

    /// The device's current fabric cycle.
    pub fn now(&self) -> Cycle {
        self.device.now()
    }

    /// Number of virtual accelerators created so far.
    pub fn num_vaccels(&self) -> usize {
        self.vaccels.len()
    }

    /// Number of physical accelerator slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of virtual accelerators resident on physical slot `slot`.
    pub fn slot_population(&self, slot: usize) -> usize {
        self.vaccels.values().filter(|v| v.slot == slot).count()
    }

    /// Live virtual accelerators on `slot`, ascending by id.
    pub fn vaccels_on_slot(&self, slot: usize) -> Vec<VaccelId> {
        self.vaccels
            .values()
            .filter(|v| v.slot == slot)
            .map(|v| v.id)
            .collect()
    }

    /// A vaccel's run state (`None` if the id is unknown or detached).
    pub fn vaccel_run(&self, va: VaccelId) -> Option<VaccelRun> {
        self.vaccels.get(&va.0).map(|v| v.run)
    }

    /// The VM backing a vaccel (`None` if unknown or detached). The node
    /// layer uses this to label migration copies for the isolation spec.
    pub fn vaccel_vm(&self, va: VaccelId) -> Option<VmId> {
        self.vaccels.get(&va.0).map(|v| v.vm)
    }

    fn vaccel(&self, va: VaccelId) -> &VirtualAccel {
        self.vaccels.get(&va.0).expect("no such virtual accelerator")
    }

    fn vaccel_mut(&mut self, va: VaccelId) -> &mut VirtualAccel {
        self.vaccels.get_mut(&va.0).expect("no such virtual accelerator")
    }

    fn vm(&self, id: VmId) -> &Vm {
        self.vms.get(&id.0).expect("no such VM")
    }

    /// Hypervisor statistics, including the device's isolation counters.
    pub fn stats(&self) -> HvStats {
        let mut s = self.stats;
        let integrity = self.device.integrity();
        s.dropped_packets = integrity.dropped_packets;
        s.discarded_dma = integrity.discarded_dma;
        // MMIO discards happen at two layers: the auditors (device
        // integrity) and the hypervisor's own trap handler, which
        // master-aborts guest offsets outside the vaccel's BAR page.
        s.discarded_mmio = integrity.discarded_mmio + self.stats.discarded_mmio;
        s
    }

    /// The earliest cycle at which this hypervisor must regain control:
    /// the nearest slice deadline while any slot is occupied, otherwise
    /// whatever the device reports through the `next_event` protocol
    /// (`None` = fully quiescent, free to run ahead).
    ///
    /// The node layer uses this to size lock-step chunks: devices never
    /// interact *during* `run` (only through guest ops between runs), so
    /// any chunking is state-identical — the horizon just bounds clock
    /// skew and keeps scheduling decisions inside their own chunk.
    pub fn next_sync_horizon(&self) -> Option<Cycle> {
        let slice = self
            .slots
            .iter()
            .filter(|s| s.current.is_some())
            .map(|s| s.slice_ends)
            .min();
        match slice {
            Some(t) => Some(t.max(self.device.now())),
            None => self.device.next_event(),
        }
    }

    /// Creates a VM. Ids are monotonic, never recycled: a detached VM's id
    /// stays retired so metrics and traces never alias tenants.
    pub fn create_vm(&mut self, name: &str) -> VmId {
        let id = VmId(self.next_vm_id);
        self.next_vm_id += 1;
        self.vms.insert(id.0, Vm::new(id, name));
        id
    }

    /// Creates a virtual accelerator for `vm` on physical slot `slot` with
    /// scheduling weight and priority (both meaningful only under the
    /// corresponding policies).
    ///
    /// # Panics
    ///
    /// Panics if the slot index is out of range.
    pub fn create_vaccel_with(
        &mut self,
        vm: VmId,
        slot: usize,
        weight: u32,
        priority: u32,
    ) -> VaccelId {
        assert!(slot < self.slots.len(), "no such physical accelerator");
        let id = VaccelId(self.next_vaccel_id);
        self.next_vaccel_id += 1;
        let slice = self.next_slice;
        self.next_slice += 1;
        self.vaccels.insert(id.0, VirtualAccel::new(id, vm, slot, slice));
        self.slots[slot].sched.add(id.0 as u64, weight, priority);
        id
    }

    /// Creates a virtual accelerator with default weight/priority.
    pub fn create_vaccel(&mut self, vm: VmId, slot: usize) -> VaccelId {
        self.create_vaccel_with(vm, slot, 1, 0)
    }

    /// The guest-side handle for a virtual accelerator.
    pub fn guest(&mut self, va: VaccelId) -> GuestCtx<'_, D> {
        GuestCtx { hv: self, va }
    }

    /// Occupancy accounting for a slot's run queue (§6.8).
    pub fn slot_occupancy(&self, slot: usize) -> Vec<(u64, Cycle)> {
        self.slots[slot].sched.occupancy()
    }

    /// Expected occupancy shares for a slot's policy (§6.8).
    pub fn slot_expected_shares(&self, slot: usize) -> Vec<(u64, f64)> {
        self.slots[slot].sched.expected_shares()
    }

    fn advance(&mut self, cycles: Cycle) {
        // Everything the device records while stepping (IOTLB, channels,
        // mux tree, auditors) lands under this hypervisor's device id.
        metrics::set_device(self.device_id.0);
        self.device.run(cycles);
    }

    /// Charges one trapped-MMIO round trip to `va` (flight-recorded as a
    /// `mmio_trap` span on the vaccel's track; `offset` is the BAR0
    /// register that trapped).
    fn trap_cost(&mut self, va: VaccelId, offset: u64) {
        self.stats.traps += 1;
        let c = self.trap.cycles();
        metrics::set_device(self.device_id.0);
        metrics::inc(metrics::HV_MMIO_TRAPS, va.0, 1);
        metrics::observe(metrics::HV_MMIO_TRAP_CYCLES, va.0, c);
        let now = self.device.now();
        trace::complete(Track::vaccel(va.0), "mmio_trap", now, c, &[("offset", offset)]);
        self.advance(c);
    }

    /// The one job-lifecycle emit: journals `phase` for `job` and draws the
    /// Perfetto flow-arrow edge that phase implies on `va`'s track — an
    /// arrow opens where the job leaves the hardware (`Saved`) or hands
    /// its output on (`Complete`) and closes where it rejoins (`Restored`)
    /// — so the journal and the trace cannot disagree about when. A
    /// vaccel that never started a job (`job == 0`) emits nothing.
    fn job_phase(&self, va: VaccelId, job: u64, phase: journal::Phase, ts: Cycle) {
        if job == 0 {
            return;
        }
        journal::phase(job, phase, ts);
        let track = Track::vaccel(va.0);
        match phase {
            journal::Phase::Saved | journal::Phase::Complete => {
                trace::flow_start(track, "job", ts, job)
            }
            journal::Phase::Restored => trace::flow_end(track, "job", ts, job),
            _ => {}
        }
    }

    /// [`job_phase`](Self::job_phase) for a share handoff: links
    /// `consumer` (running on `va`) to the `producer` whose output it
    /// reads, and closes the arrow the producer's completion opened.
    fn job_linked(&self, va: VaccelId, consumer: u64, producer: u64, ts: Cycle) {
        if consumer == 0 {
            return;
        }
        journal::link(consumer, producer, ts);
        trace::flow_end(Track::vaccel(va.0), "job", ts, producer);
    }

    /// Whether `va` is currently occupying its physical slot.
    fn is_scheduled(&self, va: VaccelId) -> bool {
        self.slots[self.vaccel(va).slot].current == Some(va)
    }

    /// Anchors the vaccel's IOVA window at its first DMA-visible region
    /// and charges the BAR2 report trap. An idle vaccel can be scheduled
    /// (and `install`ed) before its guest pins any memory, in which case
    /// the VCU offset table was programmed from a zero `dma_base` and
    /// every later DMA would translate outside the slice window — so if
    /// the vaccel is already on hardware, reprogram its slot's offset
    /// now that the real anchor is known.
    fn anchor_dma_base(&mut self, va: VaccelId, gva: Gva) {
        self.vaccel_mut(va).dma_base = gva;
        self.trap_cost(va, 0);
        if !self.passthrough && self.is_scheduled(va) {
            let v = self.vaccel(va);
            let (slot, slice, dma_base) = (v.slot, v.slice, v.dma_base);
            let offset = self.slicing.offset_for(slice, dma_base);
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
        // Clear the physical accelerator's previous occupant's state via
        // the VCU reset table ("to clear state for isolation purposes on a
        // VM context switch", §4.1). The outgoing vaccel's state — if it
        // matters — has already been saved to memory.
        if !self.passthrough {
            self.device
                .mmio_write(VCU_BASE + vcu_reg::RESET_TABLE + slot as u64 * 8, 1);
        }
        // Program the offset table with this vaccel's slice (skipped in
        // pass-through, where IOVA = GVA already).
        if !self.passthrough {
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
        // A restore closes the flow arrow the save opened: the job's span
        // resumes here after its off-hardware gap.
        let phase = match run {
            VaccelRun::SavedInMemory => journal::Phase::Restored,
            _ => journal::Phase::Installed,
        };
        self.job_phase(va, job, phase, install_start);
        self.device.mmio_write(base + accel_reg::CTRL_STATE_ADDR, state_buffer);
        // Move the cached register file out, replay it, and move it back:
        // installs happen on every context switch, so avoid re-collecting
        // the map into a fresh Vec each time.
        let regs = std::mem::take(&mut self.vaccel_mut(va).app_regs);
        for (&off, &val) in regs.iter() {
            self.device.mmio_write(base + accel_reg::APP_BASE + off, val);
        }
        self.vaccel_mut(va).app_regs = regs;
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
        self.job_phase(va, job, journal::Phase::Executing, self.device.now());
        let install_cycles = self.device.now() - install_start;
        metrics::inc(metrics::HV_INSTALLS, va.0, 1);
        metrics::observe(metrics::HV_INSTALL_CYCLES, va.0, install_cycles);
        // Register replay + reset + CMD_RESUME/CMD_START: the restore
        // half of the preemption machinery (a fresh start shows as
        // `preempt.install`, resuming saved state as `preempt.restore`).
        let name = match run {
            VaccelRun::SavedInMemory => "preempt.restore",
            _ => "preempt.install",
        };
        let track = Track::vaccel(va.0);
        trace::complete(track, name, install_start, install_cycles, &[("slot", slot as u64)]);
    }

    /// Preempts the vaccel currently on `slot` (if any), waiting for the
    /// drain + save and falling back to a forced reset on timeout.
    fn preempt_slot(&mut self, slot: usize) {
        let Some(va) = self.slots[slot].current else {
            return;
        };
        // Claim the scope before anything that steps the device (the
        // state-size MMIO read below drives the fabric until the response
        // returns): a migration-driven preempt arrives from outside the
        // run loop, where the ambient device scope may still belong to a
        // sibling device on the node.
        metrics::set_device(self.device_id.0);
        let base = accel_mmio_base(slot);
        // Fast path: a job that already completed needs no save — but its
        // result registers are about to be lost to the next install, so
        // harvest them into the vaccel's cached register file first (the
        // guest keeps reading results through the shadow after eviction).
        if self.device.accel_status(slot) == CtrlStatus::Done {
            self.harvest_app_regs(va, slot);
            self.retire(va);
            self.slots[slot].current = None;
            spec::unbind_slot(self.device_id.0, slot);
            return;
        }
        // Resolve the guest-provided state buffer before trusting the
        // drain+save path. The save stream is ordinary DMA: lines aimed at
        // an unmapped (or never-programmed) buffer master-abort at the
        // auditor window, the abort acks complete the save, and the
        // accelerator truthfully reports `Saved` for state that landed
        // nowhere — the later resume then streams back garbage. Refuse up
        // front and force-reset the slot instead: same outcome the
        // watchdog used to reach, without burning a preempt window and
        // without ever marking vanished state as saved.
        let state_len = self.device.mmio_read(base + accel_reg::CTRL_STATE_SIZE);
        let framed = (8 + state_len).div_ceil(64) * 64;
        if !self.state_buffer_resolves(va, framed) {
            self.device
                .mmio_write(VCU_BASE + vcu_reg::RESET_TABLE + slot as u64 * 8, 1);
            self.advance(ns_to_cycles(1000.0));
            self.stats.forced_resets += 1;
            metrics::inc(metrics::HV_FORCED_RESETS, slot as u32, 1);
            let job = self.vaccel(va).job;
            self.raise_alert(IsolationAlert {
                kind: AlertKind::SaveRefused,
                device: self.device_id,
                slot: Some(slot),
                at: self.device.now(),
                observed: framed as f64,
                threshold: 0.0,
                job: (job != 0).then_some(job),
                peer_job: None,
            });
            self.job_phase(va, job, journal::Phase::SaveRefused, self.device.now());
            let v = self.vaccel_mut(va);
            v.forced_resets += 1;
            v.run = VaccelRun::Fresh;
            v.pending_start = true;
            trace::instant(
                Track::vaccel(va.0),
                "preempt.save_refused",
                self.device.now(),
                &[("slot", slot as u64)],
            );
            self.slots[slot].current = None;
            spec::unbind_slot(self.device_id.0, slot);
            return;
        }
        self.device.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_PREEMPT);
        self.stats.preemptions += 1;
        let preempt_start = self.device.now();
        metrics::inc(metrics::HV_PREEMPTIONS, slot as u32, 1);
        let job = self.vaccel(va).job;
        self.job_phase(va, job, journal::Phase::Preempted, preempt_start);
        let track = Track::vaccel(va.0);
        // Drain phase: from CMD_PREEMPT until the accelerator reports it
        // started streaming state out.
        trace::begin(track, "preempt.drain", preempt_start, &[("slot", slot as u64)]);
        let mut saving_seen = false;
        let deadline = preempt_start + self.preempt_timeout;
        loop {
            self.advance(ns_to_cycles(1000.0));
            let status = self.device.accel_status(slot);
            if trace::enabled()
                && !saving_seen
                && matches!(status, CtrlStatus::Saving | CtrlStatus::Saved)
            {
                // Drain ended, save streaming began (observed at the
                // hypervisor's polling granularity; the fabric-side
                // `preempt.save` span on the accel track is cycle-exact).
                saving_seen = true;
                let now = self.device.now();
                trace::end(track, "preempt.drain", now);
                trace::begin(track, "preempt.save", now, &[]);
            }
            match status {
                CtrlStatus::Saved => {
                    self.vaccel_mut(va).run = VaccelRun::SavedInMemory;
                    metrics::observe(
                        metrics::HV_PREEMPT_CYCLES,
                        slot as u32,
                        self.device.now() - preempt_start,
                    );
                    let now = self.device.now();
                    let open = if saving_seen { "preempt.save" } else { "preempt.drain" };
                    trace::end(track, open, now);
                    // The job leaves the hardware here: the arrow this
                    // phase opens runs to the eventual restore (or
                    // migration target).
                    self.job_phase(va, job, journal::Phase::Saved, now);
                    break;
                }
                _ if self.device.now() >= deadline => {
                    // The accelerator failed to cede: force a reset (§4.2).
                    self.device
                        .mmio_write(VCU_BASE + vcu_reg::RESET_TABLE + slot as u64 * 8, 1);
                    self.advance(ns_to_cycles(1000.0));
                    self.stats.forced_resets += 1;
                    let duration = self.device.now() - preempt_start;
                    metrics::observe(metrics::HV_PREEMPT_CYCLES, slot as u32, duration);
                    metrics::inc(metrics::HV_FORCED_RESETS, slot as u32, 1);
                    self.raise_alert(IsolationAlert {
                        kind: AlertKind::PreemptOverrun,
                        device: self.device_id,
                        slot: Some(slot),
                        at: self.device.now(),
                        observed: duration as f64,
                        threshold: self.preempt_timeout as f64,
                        job: (job != 0).then_some(job),
                        peer_job: None,
                    });
                    let now = self.device.now();
                    self.job_phase(va, job, journal::Phase::ForcedReset, now);
                    let v = self.vaccel_mut(va);
                    v.forced_resets += 1;
                    // The job's progress is lost; it restarts from its
                    // cached registers at its next slice.
                    v.run = VaccelRun::Fresh;
                    v.pending_start = true;
                    let open = if saving_seen { "preempt.save" } else { "preempt.drain" };
                    trace::end(track, open, now);
                    trace::instant(track, "preempt.forced_reset", now, &[("slot", slot as u64)]);
                    break;
                }
                _ => {}
            }
        }
        self.slots[slot].current = None;
        spec::unbind_slot(self.device_id.0, slot);
    }

    /// Copies the physical slot's application register file into the
    /// vaccel's cached (shadow) registers. Called when a *completed* job
    /// is evicted from its slot: the next install resets the hardware, and
    /// the shadow is what the guest's post-completion MMIO reads return.
    /// Uses the side-effect-free peek, so no simulated time elapses.
    fn harvest_app_regs(&mut self, va: VaccelId, slot: usize) {
        let mut off = 0;
        while off < ACCEL_PAGE - accel_reg::APP_BASE {
            let value = self.device.peek_app_reg(slot, off);
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
    fn retire(&mut self, va: VaccelId) {
        let now = self.device.now();
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
            // Opens a flow arrow toward whoever consumes this job's output
            // through a share handoff (closed at the consumer's link).
            self.job_phase(va, job, journal::Phase::Complete, now);
        }
    }

    /// Ensures `slot` has a scheduled vaccel and a slice deadline.
    fn maybe_schedule(&mut self, slot: usize) {
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
    fn slice_boundary(&mut self, slot: usize) {
        self.stats.context_switches += 1;
        metrics::inc(metrics::HV_CONTEXT_SWITCHES, slot as u32, 1);
        // How far past the nominal deadline the boundary actually ran
        // (scheduling slop from the chunked advance loop).
        metrics::observe(
            metrics::HV_SLICE_OVERRUN_CYCLES,
            slot as u32,
            self.device.now().saturating_sub(self.slots[slot].slice_ends),
        );
        let now = self.device.now();
        trace::instant(Track::hypervisor(), "slice_boundary", now, &[("slot", slot as u64)]);
        let current = self.slots[slot].current;
        // Completed jobs retire (but stay resident until displaced, so the
        // guest can read result registers from hardware).
        if let Some(va) = current {
            if self.device.accel_status(slot) == CtrlStatus::Done {
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

    /// Runs the platform for `cycles` fabric cycles, performing temporal
    /// scheduling at slice boundaries.
    pub fn run(&mut self, cycles: Cycle) {
        let end = self.device.now() + cycles;
        while self.device.now() < end {
            // Evaluate overdue watchdog windows up front: slice boundaries
            // are not guaranteed to stop the loop anywhere near the
            // deadline (single-tenant slots produce none at all), so the
            // deadline itself must be honored as a stopping point.
            if self.device.now() >= self.watchdog.next_eval {
                self.watchdog_tick();
            }
            for slot in 0..self.slots.len() {
                self.maybe_schedule(slot);
            }
            let next_boundary = self
                .slots
                .iter()
                .filter(|s| s.current.is_some())
                .map(|s| s.slice_ends)
                .min()
                .unwrap_or(end)
                .min(self.watchdog.next_eval);
            let target = next_boundary.min(end).max(self.device.now() + 1);
            self.advance(target - self.device.now());
            if self.device.now() >= end {
                break;
            }
            for slot in 0..self.slots.len() {
                if self.slots[slot].current.is_some()
                    && self.slots[slot].slice_ends <= self.device.now()
                {
                    self.slice_boundary(slot);
                }
            }
            if self.device.now() >= self.watchdog.next_eval {
                self.watchdog_tick();
            }
        }
    }

    /// Isolation alerts raised so far (watchdog detections plus forced
    /// resets), oldest first, capped at the configured retention.
    pub fn alerts(&self) -> &[IsolationAlert] {
        self.watchdog.alerts()
    }

    /// Records an alert in the retained list, the `HvStats` counters, and
    /// the metrics plane.
    fn raise_alert(&mut self, alert: IsolationAlert) {
        match alert.kind {
            AlertKind::Starvation => self.stats.alerts_starvation += 1,
            AlertKind::IotlbThrash => self.stats.alerts_iotlb_thrash += 1,
            AlertKind::PreemptOverrun => self.stats.alerts_preempt_overrun += 1,
            AlertKind::SaveRefused => self.stats.alerts_save_refused += 1,
        }
        metrics::inc(metrics::HV_ISOLATION_ALERTS, alert.kind.metric_label(), 1);
        trace::instant(
            Track::hypervisor(),
            "isolation_alert",
            alert.at,
            &[
                ("kind", alert.kind.metric_label() as u64),
                ("slot", alert.slot.map_or(u64::MAX, |s| s as u64)),
            ],
        );
        self.watchdog.push(alert);
    }

    /// One watchdog window evaluation: diffs device-owned counters since
    /// the previous evaluation and raises starvation / IOTLB-thrash
    /// alerts. Reads only deterministic device state, so the alert stream
    /// is identical with metrics or tracing on or off and under parallel
    /// node stepping.
    fn watchdog_tick(&mut self) {
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
                if self.slots[s].current.is_none() {
                    continue;
                }
                let d = deltas[s] as f64;
                if d < threshold {
                    // Name the starved job, and — for share-linked jobs —
                    // the peer on the other end of the channel: a stalled
                    // consumer's alert names the starved producer.
                    let (job, peer_job) = self.slots[s]
                        .current
                        .map(|va| {
                            let v = self.vaccel(va);
                            let j = (v.job != 0).then_some(v.job);
                            (j, j.and_then(|_| self.peer_job_of_vm(v.vm.0)))
                        })
                        .unwrap_or((None, None));
                    self.raise_alert(IsolationAlert {
                        kind: AlertKind::Starvation,
                        device: self.device_id,
                        slot: Some(s),
                        at: now,
                        observed: d,
                        threshold,
                        job,
                        peer_job,
                    });
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
                self.raise_alert(IsolationAlert {
                    kind: AlertKind::IotlbThrash,
                    device: self.device_id,
                    slot: None,
                    at: now,
                    observed: rate,
                    threshold: cfg.thrash_rate,
                    job: None,
                    peer_job: None,
                });
            }
        }
        self.watchdog.next_eval = now + cfg.window;
    }

    /// Runs until the given vaccel's job completes (or `max_cycles` pass).
    /// Returns whether it completed.
    pub fn run_until_done(&mut self, va: VaccelId, max_cycles: Cycle) -> bool {
        let end = self.device.now() + max_cycles;
        while self.device.now() < end {
            if self.vaccel_completed(va) {
                return true;
            }
            let chunk = (end - self.device.now()).min(ms_to_cycles(0.05));
            self.run(chunk);
        }
        self.vaccel_completed(va)
    }

    /// Hypervisor-side (trap-free) completion check.
    pub fn vaccel_completed(&mut self, va: VaccelId) -> bool {
        if self.vaccel(va).run == VaccelRun::Completed {
            return true;
        }
        if self.is_scheduled(va) {
            let slot = self.vaccel(va).slot;
            if self.device.accel_status(slot) == CtrlStatus::Done {
                self.retire(va);
                return true;
            }
        }
        false
    }

    /// Mints a fresh share handle. The device tag in the top bits keeps
    /// handles unique across a node's devices even after records migrate.
    fn mint_handle(&mut self) -> u64 {
        let h = ((self.device_id.0 as u64 + 1) << 32) | self.next_share_handle;
        self.next_share_handle += 1;
        h
    }

    /// Mints a fresh job id. Same device-tag scheme as share handles, so
    /// job ids stay unique across a node's devices; 0 is never a valid
    /// job. Minting is unconditional simulation state — identical with
    /// the journal on or off.
    fn mint_job(&mut self) -> u64 {
        let id = ((self.device_id.0 as u64 + 1) << 32) | self.next_job_id;
        self.next_job_id += 1;
        id
    }

    /// The in-flight (or most recently completed) job of the vaccel owned
    /// by `vm`, if any. Tenants are single-vaccel VMs, so the first match
    /// is the only one.
    pub(crate) fn vm_job(&self, vm: u32) -> Option<u64> {
        self.vaccels.values().find(|v| v.vm.0 == vm && v.job != 0).map(|v| v.job)
    }

    /// The job id of `va` (node-layer journal attribution); `None` for an
    /// unknown vaccel, `Some(0)` for one that never started a job.
    pub(crate) fn vaccel_job(&self, va: VaccelId) -> Option<u64> {
        self.vaccels.get(&va.0).map(|v| v.job)
    }

    /// The producer feeding `vm` through a retrieved share span: the
    /// owner's job on the other end of the channel, used to link a
    /// consumer's journal record to the producer whose output it reads.
    fn peer_producer_job(&self, vm: u32) -> Option<u64> {
        self.shares.values().find_map(|rec| {
            if rec.state == ShareState::Retrieved && rec.retriever_vm == Some(vm) {
                self.vm_job(rec.owner_vm)
            } else {
                None
            }
        })
    }

    /// The share-channel peer of `vm`'s job, looking both ways: the owner
    /// of a span this VM retrieved, or the retriever of a span this VM
    /// shared. Used to attribute isolation alerts on share-linked jobs.
    fn peer_job_of_vm(&self, vm: u32) -> Option<u64> {
        for rec in self.shares.values() {
            if rec.state != ShareState::Retrieved {
                continue;
            }
            if rec.retriever_vm == Some(vm) {
                if let Some(j) = self.vm_job(rec.owner_vm) {
                    return Some(j);
                }
            } else if rec.owner_vm == vm {
                if let Some(j) = rec.retriever_vm.and_then(|r| self.vm_job(r)) {
                    return Some(j);
                }
            }
        }
        None
    }

    /// The share record for `handle`, if its owner lives here.
    pub fn share_record(&self, handle: u64) -> Option<&ShareRecord> {
        self.shares.get(&handle)
    }

    /// Mutable access to a share record (node-level lifecycle updates).
    pub(crate) fn share_record_mut(&mut self, handle: u64) -> Option<&mut ShareRecord> {
        self.shares.get_mut(&handle)
    }

    /// The name of VM `vm`, if it lives here.
    pub fn vm_name(&self, vm: u32) -> Option<&str> {
        self.vms.get(&vm).map(|v| v.name())
    }

    /// The lifecycle state of `handle`, if its owner lives here.
    pub fn share_state(&self, handle: u64) -> Option<ShareState> {
        self.shares.get(&handle).map(|r| r.state)
    }

    /// Tears down one retrieved span's IOPT entries and ends its spec
    /// entitlements (`how` ∈ relinquished / reclaimed / migrated). The
    /// IOMMU unmap invalidates IOTLB entries — including speculative ones —
    /// so a stale handle faults exactly like an unmap.
    fn teardown_retrieved_iopt(
        &mut self,
        vm: VmId,
        slice: u64,
        dma_base: Gva,
        span: &crate::vm::RetrievedSpan,
        how: &'static str,
    ) {
        for (i, &hpa) in span.hpas.iter().enumerate() {
            let gva = Gva::new(span.base_gva + i as u64 * PAGE_2M);
            let iova = self.slicing.gva_to_iova(slice, dma_base, gva);
            self.device
                .host_mut()
                .iommu_mut()
                .unmap(iova)
                .expect("retrieved span was IOPT-mapped");
            spec::relinquish_page(self.device_id.0, iova.raw(), hpa, vm.0, span.handle, how);
        }
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
        let vm_id = self.vaccel(va).vm;
        let mirror_base = self.frames.alloc_huge(pages).raw();
        let hpas: Vec<u64> = (0..pages).map(|i| mirror_base + i * PAGE_2M).collect();
        let gva = {
            let vm = self.vms.get_mut(&vm_id.0).expect("vaccel's VM exists");
            match at_gva {
                Some(base) => {
                    vm.map_retrieved_at(base, handle, &hpas, writable);
                    Gva::new(base)
                }
                None => vm.map_retrieved(handle, &hpas, writable),
            }
        };
        if self.vaccel(va).dma_base.raw() == 0 {
            self.anchor_dma_base(va, gva);
        }
        let v = self.vaccel(va);
        let (slice, dma_base) = (v.slice, v.dma_base);
        let flags = if writable { PageFlags::rw() } else { PageFlags::ro() };
        for (i, &hpa) in hpas.iter().enumerate() {
            let page_gva = Gva::new(gva.raw() + i as u64 * PAGE_2M);
            let iova = self.slicing.gva_to_iova(slice, dma_base, page_gva);
            self.device
                .host_mut()
                .iommu_mut()
                .map(iova, Hpa::new(hpa), PageSize::Huge, flags)
                .expect("fresh IOVA slice");
            spec::retrieve_page(
                self.device_id.0,
                iova.raw(),
                hpa,
                PAGE_2M,
                writable,
                vm_id.0,
                None,
                handle,
            );
        }
        self.stats.pinned_pages += pages;
        self.foreign_retrievals.push(RetrievalState {
            handle,
            vm: vm_id.0,
            gva: gva.raw(),
            hpas: hpas.clone(),
            writable,
        });
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
        let i = self.foreign_retrievals.iter().position(|r| r.handle == handle)?;
        let r = self.foreign_retrievals.remove(i);
        let vm_id = VmId(r.vm);
        let span = self
            .vms
            .get_mut(&r.vm)
            .and_then(|vm| vm.unmap_retrieved(handle))
            .expect("retrieval state tracks a live mapping");
        let v = self
            .vaccels
            .values()
            .find(|v| v.vm == vm_id)
            .expect("retriever VM backs a vaccel");
        let (slice, dma_base) = (v.slice, v.dma_base);
        self.teardown_retrieved_iopt(vm_id, slice, dma_base, &span, how);
        Some(r)
    }

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
        let vm_id = v.vm;
        let slot = v.slot;
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
        let sched = self
            .slots[slot]
            .sched
            .remove(va.0 as u64)
            .expect("vaccel registered in its slot's queue");
        let v = self.vaccels.remove(&va.0).expect("checked above");
        // Tear down every span this tenant *retrieved* from other tenants'
        // shares — their frames are not the tenant's to copy, so the node
        // rebuilds them as mirrors on the target from the carried handles.
        let mut retrievals = Vec::new();
        let retrieved_handles: Vec<u64> = self
            .vms
            .get(&vm_id.0)
            .expect("vaccel's VM exists")
            .retrieved_spans()
            .iter()
            .map(|r| r.handle)
            .collect();
        for handle in retrieved_handles {
            let span = self
                .vms
                .get_mut(&vm_id.0)
                .expect("vaccel's VM exists")
                .unmap_retrieved(handle)
                .expect("span is live");
            self.teardown_retrieved_iopt(vm_id, v.slice, v.dma_base, &span, "migrated");
            // Same-device share: the record stays with the owner here, but
            // its retriever is leaving — mark it remote for the node.
            if let Some(rec) = self.shares.get_mut(&handle) {
                rec.retriever_vm = None;
            }
            // Cross-device share: drop the local mirror state (the bump
            // allocator never reuses the abandoned mirror frames).
            self.foreign_retrievals.retain(|r| r.handle != handle);
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
        let mut shares = Vec::new();
        let owned: Vec<u64> = self
            .shares
            .values()
            .filter(|r| r.owner_vm == vm_id.0)
            .map(|r| r.handle)
            .collect();
        for handle in owned {
            let mut rec = self.shares.remove(&handle).expect("collected above");
            if rec.state == ShareState::Retrieved {
                if let Some(r) = rec.retriever_vm.take() {
                    self.foreign_retrievals.push(RetrievalState {
                        handle,
                        vm: r,
                        gva: rec.retriever_gva,
                        hpas: rec.hpas.clone(),
                        writable: rec.writable,
                    });
                }
            }
            shares.push(rec);
        }
        let vm = self.vms.remove(&vm_id.0).expect("vaccel's VM exists");
        let pages = vm.export_pages();
        // Tear down the tenant's slice of the IO page table, recording the
        // granularity each page was registered with so the target replays
        // it faithfully (Fig. 5/6 configurations register 4 KB entries).
        let installed: std::collections::HashMap<u64, PageSize> = self
            .device
            .host()
            .iommu()
            .iopt()
            .mappings()
            .into_iter()
            .map(|(iova, _, size, _)| (iova, size))
            .collect();
        let mut io_pages = Vec::with_capacity(pages.len());
        for &(gva, _) in &pages {
            let iova = self.slicing.gva_to_iova(v.slice, v.dma_base, Gva::new(gva));
            let size = *installed.get(&iova.raw()).expect("registered page has an IOPT entry");
            match size {
                PageSize::Huge => {
                    self.device
                        .host_mut()
                        .iommu_mut()
                        .unmap(iova)
                        .expect("tenant page was IOPT-mapped");
                    spec::unmap_page(self.device_id.0, iova.raw());
                }
                PageSize::Small => {
                    for k in 0..(PAGE_2M / PAGE_4K) {
                        self.device
                            .host_mut()
                            .iommu_mut()
                            .unmap(Iova::new(iova.raw() + k * PAGE_4K))
                            .expect("tenant page was IOPT-mapped");
                        spec::unmap_page(self.device_id.0, iova.raw() + k * PAGE_4K);
                    }
                }
            }
            io_pages.push(size);
        }
        metrics::set_device(self.device_id.0);
        trace::instant(
            Track::hypervisor(),
            "migrate.detach",
            self.device.now(),
            &[("va", va.0 as u64), ("slot", slot as u64)],
        );
        if v.job != 0 {
            // Flow arrow across the migration gap, closed at attach.
            trace::flow_start(Track::vaccel(va.0), "job", self.device.now(), v.job);
        }
        Ok(TenantState {
            name: vm.name().to_string(),
            next_gva: vm.next_gva(),
            pages,
            io_pages,
            slot,
            sched,
            dma_base: v.dma_base,
            state_buffer: v.state_buffer,
            app_regs: v.app_regs,
            pending_start: v.pending_start,
            run: v.run,
            shadow_status: v.shadow_status,
            forced_resets: v.forced_resets,
            job: v.job,
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
        if t.slot >= self.slots.len() {
            return Err(MigrateError::SlotOutOfRange);
        }
        let vm_id = VmId(self.next_vm_id);
        self.next_vm_id += 1;
        let id = VaccelId(self.next_vaccel_id);
        self.next_vaccel_id += 1;
        let slice = self.next_slice;
        self.next_slice += 1;
        // Re-allocate backing frames on this device. Exported GVAs are
        // contiguous from the VM's base, so one contiguous grab suffices.
        let copies: Vec<(u64, u64)> = if t.pages.is_empty() {
            Vec::new()
        } else {
            let base = self.frames.alloc_huge(t.pages.len() as u64).raw();
            t.pages
                .iter()
                .enumerate()
                .map(|(i, &(_, src))| (src, base + i as u64 * PAGE_2M))
                .collect()
        };
        let pages: Vec<(u64, u64)> = t
            .pages
            .iter()
            .zip(&copies)
            .map(|(&(gva, _), &(_, dst))| (gva, dst))
            .collect();
        let vm = Vm::restore(vm_id, &t.name, t.next_gva, &pages);
        // Replay the IO page table at the new slice, honoring each page's
        // original granularity.
        for (&(gva, hpa), &size) in pages.iter().zip(&t.io_pages) {
            let iova = self.slicing.gva_to_iova(slice, t.dma_base, Gva::new(gva));
            match size {
                PageSize::Huge => {
                    self.device
                        .host_mut()
                        .iommu_mut()
                        .map(iova, Hpa::new(hpa), PageSize::Huge, PageFlags::rw())
                        .expect("fresh IOVA slice");
                    spec::map_page(self.device_id.0, iova.raw(), hpa, PAGE_2M, true, vm_id.0);
                }
                PageSize::Small => {
                    for k in 0..(PAGE_2M / PAGE_4K) {
                        self.device
                            .host_mut()
                            .iommu_mut()
                            .map(
                                Iova::new(iova.raw() + k * PAGE_4K),
                                Hpa::new(hpa + k * PAGE_4K),
                                PageSize::Small,
                                PageFlags::rw(),
                            )
                            .expect("fresh IOVA slice");
                        spec::map_page(
                            self.device_id.0,
                            iova.raw() + k * PAGE_4K,
                            hpa + k * PAGE_4K,
                            PAGE_4K,
                            true,
                            vm_id.0,
                        );
                    }
                }
            }
        }
        self.vms.insert(vm_id.0, vm);
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
            self.shares.insert(rec.handle, rec);
        }
        let mut v = VirtualAccel::new(id, vm_id, t.slot, slice);
        v.dma_base = t.dma_base;
        v.state_buffer = t.state_buffer;
        v.app_regs = t.app_regs;
        v.pending_start = t.pending_start;
        v.run = t.run;
        v.shadow_status = t.shadow_status;
        v.forced_resets = t.forced_resets;
        v.job = t.job;
        self.vaccels.insert(id.0, v);
        self.slots[t.slot]
            .sched
            .insert_member(MemberState { key: id.0 as u64, ..t.sched });
        metrics::set_device(self.device_id.0);
        trace::instant(
            Track::hypervisor(),
            "migrate.attach",
            self.device.now(),
            &[("va", id.0 as u64), ("slot", t.slot as u64)],
        );
        if t.job != 0 {
            trace::flow_end(Track::vaccel(id.0), "job", self.device.now(), t.job);
        }
        Ok((id, copies))
    }

    /// Freezes this hypervisor into a versioned [`HvSnapshot`] and hands
    /// back the device it mediated. Pure software-state capture: no MMIO
    /// is issued, no cycle advances — the device keeps running (well,
    /// existing) underneath, exactly like hardware persisting across a
    /// host hypervisor live-update.
    pub fn freeze(self) -> (HvSnapshot, D) {
        if journal::enabled() {
            // Mark every in-flight job frozen. The phase is transparent to
            // the SLO derivation (no latency category is charged to it),
            // so the accounting is identical with or without a mid-run
            // live-update — it exists for the causal record alone.
            let now = self.device.now();
            for v in self.vaccels.values() {
                if v.job != 0 && v.run != VaccelRun::Completed {
                    journal::phase(v.job, journal::Phase::Frozen, now);
                }
            }
        }
        trace::instant(Track::hypervisor(), "live_update.freeze", self.device.now(), &[]);
        let iopt = self
            .device
            .host()
            .iommu()
            .iopt()
            .mappings()
            .into_iter()
            .map(|(iova, hpa, size, flags)| IoptEntry {
                iova,
                hpa,
                small: size == PageSize::Small,
                write: flags.write,
            })
            .collect();
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
            vaccels: self
                .vaccels
                .values()
                .map(|v| VaccelSnap {
                    id: v.id.0,
                    vm: v.vm.0,
                    slot: v.slot as u32,
                    slice: v.slice,
                    dma_base: v.dma_base.raw(),
                    state_buffer: v.state_buffer.raw(),
                    app_regs: v.app_regs.iter().map(|(&k, &val)| (k, val)).collect(),
                    pending_start: v.pending_start,
                    run: v.run,
                    shadow_status: v.shadow_status,
                    forced_resets: v.forced_resets,
                    job: v.job,
                })
                .collect(),
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
            iopt,
            next_share_handle: self.next_share_handle,
            shares: self
                .shares
                .values()
                .map(|r| ShareSnap {
                    handle: r.handle,
                    owner_vm: r.owner_vm,
                    peer: r.peer.clone(),
                    gva: r.gva,
                    hpas: r.hpas.clone(),
                    writable: r.writable,
                    state: match r.state {
                        ShareState::Shared => 0,
                        ShareState::Retrieved => 1,
                        ShareState::Relinquished => 2,
                        ShareState::Reclaimed => 3,
                    },
                    retriever_vm: r.retriever_vm,
                    retriever_gva: r.retriever_gva,
                })
                .collect(),
            retrievals: self
                .foreign_retrievals
                .iter()
                .map(|r| RetrievalSnap {
                    handle: r.handle,
                    vm: r.vm,
                    gva: r.gva,
                    hpas: r.hpas.clone(),
                    writable: r.writable,
                })
                .collect(),
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
    /// from the snapshot's; [`SnapshotError::IoptMismatch`] if its IO page
    /// table does — either means the snapshot belongs to a different run.
    pub fn thaw(snap: &HvSnapshot, device: D) -> Result<Self, SnapshotError> {
        if device.num_accels() != snap.slots.len() {
            return Err(SnapshotError::DeviceMismatch);
        }
        let current: Vec<IoptEntry> = device
            .host()
            .iommu()
            .iopt()
            .mappings()
            .into_iter()
            .map(|(iova, hpa, size, flags)| IoptEntry {
                iova,
                hpa,
                small: size == PageSize::Small,
                write: flags.write,
            })
            .collect();
        if current != snap.iopt {
            return Err(SnapshotError::IoptMismatch);
        }
        if spec::enabled() {
            // The model persisted across the freeze (it is thread state,
            // not hypervisor state); every thawed entry must still agree
            // with it, or the update resurrected a stale translation.
            for e in &current {
                spec::check_thaw(snap.device_id.0, e.iova, e.hpa);
            }
        }
        let mut vms: BTreeMap<u32, Vm> = snap
            .vms
            .iter()
            .map(|v| (v.id, Vm::restore(VmId(v.id), &v.name, v.next_gva, &v.pages)))
            .collect();
        // Rebuild share-handle state. Retrieved spans are GVA mappings the
        // plain page export above does not carry (they point at *foreign*
        // frames), so re-map them at their recorded bases.
        let mut shares = BTreeMap::new();
        for s in &snap.shares {
            let state = match s.state {
                0 => ShareState::Shared,
                1 => ShareState::Retrieved,
                2 => ShareState::Relinquished,
                _ => ShareState::Reclaimed,
            };
            if state == ShareState::Retrieved {
                if let Some(r) = s.retriever_vm {
                    vms.get_mut(&r)
                        .expect("retriever VM is in the snapshot")
                        .map_retrieved_at(s.retriever_gva, s.handle, &s.hpas, s.writable);
                }
            }
            shares.insert(
                s.handle,
                ShareRecord {
                    handle: s.handle,
                    owner_vm: s.owner_vm,
                    peer: s.peer.clone(),
                    gva: s.gva,
                    hpas: s.hpas.clone(),
                    writable: s.writable,
                    state,
                    retriever_vm: s.retriever_vm,
                    retriever_gva: s.retriever_gva,
                },
            );
        }
        let foreign_retrievals: Vec<RetrievalState> = snap
            .retrievals
            .iter()
            .map(|r| {
                vms.get_mut(&r.vm)
                    .expect("mirror VM is in the snapshot")
                    .map_retrieved_at(r.gva, r.handle, &r.hpas, r.writable);
                RetrievalState {
                    handle: r.handle,
                    vm: r.vm,
                    gva: r.gva,
                    hpas: r.hpas.clone(),
                    writable: r.writable,
                }
            })
            .collect();
        let vaccels = snap
            .vaccels
            .iter()
            .map(|s| {
                let mut v =
                    VirtualAccel::new(VaccelId(s.id), VmId(s.vm), s.slot as usize, s.slice);
                v.dma_base = Gva::new(s.dma_base);
                v.state_buffer = Gva::new(s.state_buffer);
                v.app_regs = s.app_regs.iter().copied().collect();
                v.pending_start = s.pending_start;
                v.run = s.run;
                v.shadow_status = s.shadow_status;
                v.forced_resets = s.forced_resets;
                v.job = s.job;
                (s.id, v)
            })
            .collect();
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
            vaccels,
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
            shares,
            next_share_handle: snap.next_share_handle,
            foreign_retrievals,
        };
        if journal::enabled() {
            // Mirror of the freeze-side `Frozen` marks (equally
            // transparent to the SLO derivation).
            let now = hv.device.now();
            for v in hv.vaccels.values() {
                if v.job != 0 && v.run != VaccelRun::Completed {
                    journal::phase(v.job, journal::Phase::Thawed, now);
                }
            }
        }
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

/// The guest's view of its virtual accelerator: the paper's guest driver
/// plus userspace library, with every access charged its software cost.
pub struct GuestCtx<'a, D: PlatformDevice = FpgaDevice> {
    hv: &'a mut Optimus<D>,
    va: VaccelId,
}

impl<D: PlatformDevice> GuestCtx<'_, D> {
    fn v(&self) -> &VirtualAccel {
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

    /// [`alloc_dma`](Self::alloc_dma) with a lazily synthesized backing
    /// whose filler needs the region's own addresses (e.g. linked lists
    /// with absolute next pointers).
    pub fn alloc_dma_lazy_with(
        &mut self,
        bytes: u64,
        make: impl FnOnce(Gva, Hpa) -> FrameFiller,
    ) -> Gva {
        self.alloc_dma_lazy_sized(bytes, PageSize::Huge, make)
    }

    /// [`alloc_dma_lazy_with`](Self::alloc_dma_lazy_with) with a chosen IO
    /// page granularity.
    pub fn alloc_dma_lazy_sized(
        &mut self,
        bytes: u64,
        io_page: PageSize,
        make: impl FnOnce(Gva, Hpa) -> FrameFiller,
    ) -> Gva {
        // Two-phase: allocate normally, then attach the lazy region.
        let gva = self.alloc_dma_inner(bytes, Backing::Normal, io_page);
        let hpa = self
            .gva_to_hpa(gva)
            .expect("fresh region maps");
        let pages = bytes.div_ceil(PAGE_2M).max(1);
        let filler = make(gva, hpa);
        self.hv
            .device
            .host_mut()
            .memory_mut()
            .add_lazy_region(hpa, pages * PAGE_2M, filler);
        gva
    }

    /// [`alloc_dma_lazy_sized`](Self::alloc_dma_lazy_sized) for generators
    /// that can synthesize a single 64-byte line: transient reads then fill
    /// only the lines they touch instead of the whole 4 KB frame, which is
    /// the difference between 2 and 128 permutation evaluations per pointer
    /// chase in the LinkedList workloads.
    pub fn alloc_dma_lazy_lines_sized(
        &mut self,
        bytes: u64,
        io_page: PageSize,
        make: impl FnOnce(Gva, Hpa) -> optimus_mem::host::LineFiller,
    ) -> Gva {
        let gva = self.alloc_dma_inner(bytes, Backing::Normal, io_page);
        let hpa = self
            .gva_to_hpa(gva)
            .expect("fresh region maps");
        let pages = bytes.div_ceil(PAGE_2M).max(1);
        let line = make(gva, hpa);
        self.hv
            .device
            .host_mut()
            .memory_mut()
            .add_lazy_region_lines(hpa, pages * PAGE_2M, line);
        gva
    }

    /// [`alloc_dma`](Self::alloc_dma) but registered with 4 KB IO page
    /// table entries (the Fig. 5/6 small-page configurations).
    pub fn alloc_dma_4k(&mut self, bytes: u64, backing: Backing) -> Gva {
        self.alloc_dma_inner(bytes, backing, PageSize::Small)
    }

    /// [`alloc_dma`](Self::alloc_dma) with explicit host backing (lazy or
    /// scratch regions for huge benchmark datasets).
    pub fn alloc_dma_with(&mut self, bytes: u64, backing: Backing) -> Gva {
        self.alloc_dma_inner(bytes, backing, PageSize::Huge)
    }

    fn alloc_dma_inner(&mut self, bytes: u64, backing: Backing, io_page: PageSize) -> Gva {
        let pages = bytes.div_ceil(PAGE_2M).max(1);
        let vm_id = self.v().vm;
        let gva = self
            .hv
            .vms
            .get_mut(&vm_id.0)
            .expect("no such VM")
            .alloc_region(pages, &mut self.hv.frames);
        if self.v().dma_base.raw() == 0 {
            // First allocation: the guest library reserves the 64 GB slice
            // and reports its base through the BAR2 register (itself a
            // trapped MMIO write; no BAR0 offset, recorded as offset 0).
            let va = self.va;
            self.hv.anchor_dma_base(va, gva);
        }
        // Host backing for the region.
        let hpa_base = self.hv.vm(vm_id)
            .gva_to_hpa(gva)
            .expect("fresh region maps");
        match backing {
            Backing::Normal => {}
            Backing::Lazy(filler) => {
                self.hv
                    .device
                    .host_mut()
                    .memory_mut()
                    .add_lazy_region(hpa_base, pages * PAGE_2M, filler);
            }
            Backing::Scratch => {
                self.hv
                    .device
                    .host_mut()
                    .memory_mut()
                    .add_scratch_region(hpa_base, pages * PAGE_2M);
            }
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
    ///
    /// # Panics
    ///
    /// Panics if the guest's claim fails validation (a driver bug).
    pub fn register_page(&mut self, gva: Gva) {
        self.register_page_sized(gva, PageSize::Huge)
    }

    /// [`register_page`](Self::register_page) with a chosen IO page table
    /// granularity: `Small` splits the 2 MB guest page into 512 4 KB IOPT
    /// entries (the paper's 4 KB-page comparison configuration).
    pub fn register_page_sized(&mut self, gva: Gva, io_page: PageSize) {
        let vm_id = self.v().vm;
        let gpa = self.hv.vm(vm_id)
            .gva_to_gpa(gva)
            .expect("registering an unmapped page");
        let hpa = self.hv.vm(vm_id)
            .validate_hypercall(gva, gpa)
            .expect("hypercall validation failed");
        let iova = if self.hv.passthrough {
            // vIOMMU: the guest's own address space is the IO address space.
            optimus_mem::addr::Iova::new(gva.raw())
        } else {
            let v = self.v();
            self.hv.slicing.gva_to_iova(v.slice, v.dma_base, gva)
        };
        match io_page {
            PageSize::Huge => {
                self.hv
                    .device
                    .host_mut()
                    .iommu_mut()
                    .map(iova, hpa, PageSize::Huge, PageFlags::rw())
                    .expect("fresh IOVA slice");
            }
            PageSize::Small => {
                for k in 0..(PAGE_2M / 4096) {
                    self.hv
                        .device
                        .host_mut()
                        .iommu_mut()
                        .map(
                            optimus_mem::addr::Iova::new(iova.raw() + k * 4096),
                            Hpa::new(hpa.raw() + k * 4096),
                            PageSize::Small,
                            PageFlags::rw(),
                        )
                        .expect("fresh IOVA slice");
                }
            }
        }
        if spec::enabled() {
            let dev = self.hv.device_id.0;
            match io_page {
                PageSize::Huge => {
                    spec::map_page(dev, iova.raw(), hpa.raw(), PAGE_2M, true, vm_id.0)
                }
                PageSize::Small => {
                    for k in 0..(PAGE_2M / PAGE_4K) {
                        spec::map_page(
                            dev,
                            iova.raw() + k * PAGE_4K,
                            hpa.raw() + k * PAGE_4K,
                            PAGE_4K,
                            true,
                            vm_id.0,
                        );
                    }
                }
            }
        }
        self.hv.stats.hypercalls += 1;
        self.hv.stats.pinned_pages += 1;
        let c = ns_to_cycles(host_costs::HYPERCALL_NS);
        metrics::set_device(self.hv.device_id.0);
        metrics::inc(metrics::HV_HYPERCALLS, self.va.0, 1);
        let (track, now) = (Track::vaccel(self.va.0), self.hv.device.now());
        trace::complete(track, "hypercall", now, c, &[("gva", gva.raw())]);
        self.hv.advance(c);
    }

    /// Charges one trapped-hypercall round trip (shared by the FF-A-style
    /// memory-sharing family below, mirroring `register_page_sized`).
    fn hypercall_cost(&mut self, key: u64) {
        self.hv.stats.hypercalls += 1;
        let c = ns_to_cycles(host_costs::HYPERCALL_NS);
        metrics::set_device(self.hv.device_id.0);
        metrics::inc(metrics::HV_HYPERCALLS, self.va.0, 1);
        let (track, now) = (Track::vaccel(self.va.0), self.hv.device.now());
        trace::complete(track, "hypercall", now, c, &[("key", key)]);
        self.hv.advance(c);
    }

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
        let vm_id = self.v().vm;
        let pages = bytes.div_ceil(PAGE_2M).max(1);
        let mut hpas = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let hpa = self
                .hv
                .vm(vm_id)
                .gva_to_hpa(Gva::new(gva.raw() + i * PAGE_2M))
                .map_err(|_| ShareError::Unmapped)?;
            hpas.push(hpa.raw());
        }
        let handle = self.hv.mint_handle();
        self.hv.shares.insert(
            handle,
            ShareRecord {
                handle,
                owner_vm: vm_id.0,
                peer: peer.to_string(),
                gva: gva.raw(),
                hpas,
                writable,
                state: ShareState::Shared,
                retriever_vm: None,
                retriever_gva: 0,
            },
        );
        self.hypercall_cost(handle);
        Ok(handle)
    }

    /// `mem_retrieve`: maps a span previously shared *with this tenant*
    /// into its GVA space and installs the translations in its IOPT slice.
    /// Returns the base GVA of the retrieved span. Only the named peer may
    /// retrieve, only while the handle is in the `Shared` state — a
    /// relinquished handle is dead, not dormant.
    pub fn mem_retrieve(&mut self, handle: u64) -> Result<Gva, ShareError> {
        if self.hv.passthrough {
            return Err(ShareError::Passthrough);
        }
        let vm_id = self.v().vm;
        let (hpas, writable, owner_vm) = {
            let rec = self.hv.shares.get(&handle).ok_or(ShareError::NoSuchHandle)?;
            if self.hv.vm(vm_id).name() != rec.peer {
                return Err(ShareError::NotPeer);
            }
            if rec.state != ShareState::Shared {
                return Err(ShareError::BadState);
            }
            (rec.hpas.clone(), rec.writable, rec.owner_vm)
        };
        let gva = self
            .hv
            .vms
            .get_mut(&vm_id.0)
            .expect("guest ctx VM exists")
            .map_retrieved(handle, &hpas, writable);
        // First DMA-visible region of this guest: anchor its IOVA window,
        // exactly like `alloc_dma` would.
        if self.v().dma_base.raw() == 0 {
            let va = self.va;
            self.hv.anchor_dma_base(va, gva);
        }
        let (slice, dma_base) = {
            let v = self.v();
            (v.slice, v.dma_base)
        };
        let flags = if writable { PageFlags::rw() } else { PageFlags::ro() };
        for (i, &hpa) in hpas.iter().enumerate() {
            let page_gva = Gva::new(gva.raw() + i as u64 * PAGE_2M);
            let iova = self.hv.slicing.gva_to_iova(slice, dma_base, page_gva);
            self.hv
                .device
                .host_mut()
                .iommu_mut()
                .map(iova, Hpa::new(hpa), PageSize::Huge, flags)
                .expect("fresh IOVA slice");
            spec::retrieve_page(
                self.hv.device_id.0,
                iova.raw(),
                hpa,
                PAGE_2M,
                writable,
                vm_id.0,
                Some(owner_vm),
                handle,
            );
        }
        self.hv.stats.pinned_pages += hpas.len() as u64;
        let rec = self.hv.shares.get_mut(&handle).expect("checked above");
        rec.state = ShareState::Retrieved;
        rec.retriever_vm = Some(vm_id.0);
        rec.retriever_gva = gva.raw();
        // A consumer with a job already in flight links to the producer
        // right here (jobs submitted later link at their own start).
        if let Some(producer) = self.hv.vm_job(owner_vm) {
            self.hv.job_linked(self.va, self.v().job, producer, self.hv.device.now());
        }
        self.hypercall_cost(handle);
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
        let vm_id = self.v().vm;
        {
            let rec = self.hv.shares.get(&handle).ok_or(ShareError::NoSuchHandle)?;
            if rec.state != ShareState::Retrieved {
                return Err(ShareError::BadState);
            }
            match rec.retriever_vm {
                Some(r) if r == vm_id.0 => {}
                Some(_) => return Err(ShareError::NotRetriever),
                None => return Err(ShareError::RemotePeer),
            }
        }
        let span = self
            .hv
            .vms
            .get_mut(&vm_id.0)
            .expect("guest ctx VM exists")
            .unmap_retrieved(handle)
            .expect("retrieved span is mapped");
        let (slice, dma_base) = {
            let v = self.v();
            (v.slice, v.dma_base)
        };
        self.hv
            .teardown_retrieved_iopt(VmId(vm_id.0), slice, dma_base, &span, "relinquished");
        self.hv.shares.get_mut(&handle).expect("checked above").state =
            ShareState::Relinquished;
        self.hypercall_cost(handle);
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
        let vm_id = self.v().vm;
        let (state, retriever_vm) = {
            let rec = self.hv.shares.get(&handle).ok_or(ShareError::NoSuchHandle)?;
            if rec.owner_vm != vm_id.0 {
                return Err(ShareError::NotOwner);
            }
            (rec.state, rec.retriever_vm)
        };
        match state {
            ShareState::Reclaimed => return Err(ShareError::BadState),
            ShareState::Retrieved => {
                // Cross-device retrievers hold their mappings on another
                // hypervisor; only the node can reach them.
                let Some(r) = retriever_vm else {
                    return Err(ShareError::RemotePeer);
                };
                let span = self
                    .hv
                    .vms
                    .get_mut(&r)
                    .expect("retriever VM exists")
                    .unmap_retrieved(handle)
                    .expect("retrieved span is mapped");
                let (slice, dma_base) = {
                    let rv = self
                        .hv
                        .vaccels
                        .values()
                        .find(|v| v.vm.0 == r)
                        .expect("retriever VM backs a vaccel");
                    (rv.slice, rv.dma_base)
                };
                self.hv
                    .teardown_retrieved_iopt(VmId(r), slice, dma_base, &span, "reclaimed");
            }
            ShareState::Shared | ShareState::Relinquished => {}
        }
        self.hv.shares.get_mut(&handle).expect("checked above").state = ShareState::Reclaimed;
        self.hypercall_cost(handle);
        Ok(())
    }

    /// Writes guest memory (CPU-side access through the two-stage tables).
    pub fn write_mem(&mut self, gva: Gva, data: &[u8]) {
        let vm_id = self.v().vm;
        let mut off = 0usize;
        while off < data.len() {
            let cur = Gva::new(gva.raw() + off as u64);
            let hpa = self.hv.vm(vm_id)
                .gva_to_hpa(cur)
                .expect("guest write to unmapped memory");
            let in_page = (PAGE_2M - cur.page_offset(PAGE_2M)) as usize;
            let take = in_page.min(data.len() - off);
            spec::check_cpu(self.hv.device_id.0, hpa.raw(), take as u64, vm_id.0, true);
            self.hv
                .device
                .host_mut()
                .memory_mut()
                .write(hpa, &data[off..off + take]);
            off += take;
        }
    }

    /// Reads guest memory.
    pub fn read_mem(&mut self, gva: Gva, buf: &mut [u8]) {
        let vm_id = self.v().vm;
        let mut off = 0usize;
        while off < buf.len() {
            let cur = Gva::new(gva.raw() + off as u64);
            let hpa = self.hv.vm(vm_id)
                .gva_to_hpa(cur)
                .expect("guest read of unmapped memory");
            let in_page = (PAGE_2M - cur.page_offset(PAGE_2M)) as usize;
            let take = in_page.min(buf.len() - off);
            spec::check_cpu(self.hv.device_id.0, hpa.raw(), take as u64, vm_id.0, false);
            let hv: &Optimus<D> = self.hv;
            hv.device.host().memory().read(hpa, &mut buf[off..off + take]);
            off += take;
        }
    }

    /// Sets the guest's preemption state buffer (BAR0 `CTRL_STATE_ADDR`;
    /// trapped and virtualized).
    pub fn set_state_buffer(&mut self, gva: Gva) {
        let va = self.va;
        self.hv.trap_cost(va, accel_reg::CTRL_STATE_ADDR);
        let va = self.va;
        self.hv.vaccel_mut(va).state_buffer = gva;
        if self.hv.is_scheduled(self.va) {
            self.forward_mmio(accel_reg::CTRL_STATE_ADDR, gva.raw());
        }
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
            self.hv.stats.discarded_mmio += 1;
            return;
        }
        match offset {
            accel_reg::CTRL_CMD => {
                if value == accel_reg::CMD_START {
                    let va = self.va;
                    let was_completed;
                    {
                        let v = self.hv.vaccel_mut(va);
                        was_completed = v.run == VaccelRun::Completed;
                        v.pending_start = true;
                        v.shadow_status = CtrlStatus::Running;
                        if v.run == VaccelRun::Completed {
                            v.run = VaccelRun::Fresh;
                        }
                    }
                    // A fresh submission (first start, or a restart after
                    // the previous job completed) mints a new job id.
                    if self.hv.vaccel(va).job == 0 || was_completed {
                        let job = self.hv.mint_job();
                        self.hv.vaccel_mut(va).job = job;
                        let now = self.hv.device.now();
                        let vm = self.hv.vaccel(va).vm;
                        if journal::enabled() {
                            let payload =
                                self.hv.vm(vm).export_pages().len() as u64 * PAGE_2M;
                            let tenant = self.hv.vm(vm).name().to_string();
                            journal::submit(
                                job,
                                &tenant,
                                va.0,
                                self.hv.device_id.0,
                                payload,
                                now,
                            );
                        }
                        // Share handoff: a consumer reading a span it
                        // retrieved links its job to the producer's.
                        if let Some(p) = self.hv.peer_producer_job(vm.0) {
                            self.hv.job_linked(va, job, p, now);
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
                        self.hv.job_phase(va, job, journal::Phase::Installed, self.hv.device.now());
                        self.forward_mmio(accel_reg::CTRL_CMD, accel_reg::CMD_START);
                        // The start is a posted fabric write. On a restart
                        // (resident, already-retired vaccel) the slot still
                        // latches the previous job's `Done`, so completion
                        // checks between here and delivery would retire the
                        // new job before it runs. Let it land, as
                        // `install` does for its register replay.
                        self.hv.advance(ns_to_cycles(500.0));
                        self.hv.job_phase(va, job, journal::Phase::Executing, self.hv.device.now());
                    }
                }
                // CMD_PREEMPT / CMD_RESUME are privileged: guests cannot
                // drive the preemption machinery (silently dropped, as the
                // hypervisor "hides the hardware status", §4.2).
            }
            accel_reg::CTRL_STATE_ADDR => {
                let va = self.va;
                self.hv.vaccel_mut(va).state_buffer = Gva::new(value);
                if self.hv.is_scheduled(self.va) {
                    self.forward_mmio(accel_reg::CTRL_STATE_ADDR, value);
                }
            }
            off if off >= accel_reg::APP_BASE => {
                let rel = off - accel_reg::APP_BASE;
                let va = self.va;
                self.hv.vaccel_mut(va).cache_app_reg(rel, value);
                if self.hv.is_scheduled(self.va) {
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
            self.hv.stats.discarded_mmio += 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn md5_of_guest_buffer(hv: &mut Optimus, va: VaccelId, data: &[u8]) -> Vec<u8> {
        use optimus_accel::hash::reg;
        let src;
        let dst;
        {
            let mut g = hv.guest(va);
            src = g.alloc_dma(data.len() as u64);
            dst = g.alloc_dma(4096);
            g.write_mem(src, data);
            g.mmio_write(accel_reg::APP_BASE + reg::SRC, src.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::DST, dst.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::LINES, (data.len() / 64) as u64);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        }
        assert!(hv.run_until_done(va, 100_000_000), "job never finished");
        let mut out = vec![0u8; 16];
        hv.guest(va).read_mem(dst, &mut out);
        out
    }

    #[test]
    fn single_vm_md5_end_to_end() {
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5]));
        let vm = hv.create_vm("vm0");
        let va = hv.create_vaccel(vm, 0);
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 13) as u8).collect();
        let digest = md5_of_guest_buffer(&mut hv, va, &data);
        assert_eq!(digest, optimus_algo::md5::md5(&data).to_vec());
        assert!(hv.stats().hypercalls >= 2);
        assert!(hv.stats().traps >= 4);
    }

    #[test]
    fn two_vms_are_isolated_by_slicing() {
        // Both guests use identical GVAs; each accelerator must read its
        // own VM's data through its own slice.
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5, AccelKind::Md5]));
        let vm_a = hv.create_vm("a");
        let vm_b = hv.create_vm("b");
        let va_a = hv.create_vaccel(vm_a, 0);
        let va_b = hv.create_vaccel(vm_b, 1);
        let data_a: Vec<u8> = vec![0xAA; 2048];
        let data_b: Vec<u8> = vec![0xBB; 2048];

        use optimus_accel::hash::reg;
        let mut bufs = Vec::new();
        for (va, data) in [(va_a, &data_a), (va_b, &data_b)] {
            let mut g = hv.guest(va);
            let src = g.alloc_dma(4096);
            let dst = g.alloc_dma(4096);
            g.write_mem(src, data);
            g.mmio_write(accel_reg::APP_BASE + reg::SRC, src.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::DST, dst.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::LINES, (data.len() / 64) as u64);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
            bufs.push(dst);
        }
        // Identical guest virtual addresses on both sides.
        assert_eq!(bufs[0], bufs[1]);
        assert!(hv.run_until_done(va_a, 100_000_000));
        assert!(hv.run_until_done(va_b, 100_000_000));
        let mut out_a = vec![0u8; 16];
        let mut out_b = vec![0u8; 16];
        hv.guest(va_a).read_mem(bufs[0], &mut out_a);
        hv.guest(va_b).read_mem(bufs[1], &mut out_b);
        assert_eq!(out_a, optimus_algo::md5::md5(&data_a).to_vec());
        assert_eq!(out_b, optimus_algo::md5::md5(&data_b).to_vec());
        assert_ne!(out_a, out_b);
        // No isolation violations anywhere.
        assert_eq!(hv.device().host().faulted_dmas(), 0);
    }

    #[test]
    fn passthrough_runs_the_same_job() {
        let mut hv =
            Optimus::new_passthrough(AccelKind::Md5, SelectorPolicy::Auto, TrapCost::Native);
        let vm = hv.create_vm("pt");
        let va = hv.create_vaccel(vm, 0);
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
        let digest = md5_of_guest_buffer(&mut hv, va, &data);
        assert_eq!(digest, optimus_algo::md5::md5(&data).to_vec());
    }

    #[test]
    fn temporal_multiplexing_two_jobs_one_accelerator() {
        let mut cfg = OptimusConfig::new(vec![AccelKind::Md5]);
        cfg.time_slice = ms_to_cycles(0.1);
        let mut hv = Optimus::new(cfg);
        let vm_a = hv.create_vm("a");
        let vm_b = hv.create_vm("b");
        let va_a = hv.create_vaccel(vm_a, 0);
        let va_b = hv.create_vaccel(vm_b, 0);
        // ~1 MB each: several slices of work per job at 6.4 GB/s.
        let data_a: Vec<u8> = (0..1_048_576u32).map(|i| i as u8).collect();
        let data_b: Vec<u8> = (0..1_048_576u32).map(|i| (i ^ 0x77) as u8).collect();

        use optimus_accel::hash::reg;
        let mut dsts = Vec::new();
        for (va, data) in [(va_a, &data_a), (va_b, &data_b)] {
            let mut g = hv.guest(va);
            let src = g.alloc_dma(data.len() as u64);
            let dst = g.alloc_dma(4096);
            let state = g.alloc_dma(4096);
            g.write_mem(src, data);
            g.set_state_buffer(state);
            g.mmio_write(accel_reg::APP_BASE + reg::SRC, src.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::DST, dst.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::LINES, (data.len() / 64) as u64);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
            dsts.push(dst);
        }
        assert!(hv.run_until_done(va_a, 400_000_000));
        assert!(hv.run_until_done(va_b, 400_000_000));
        let mut out = vec![0u8; 16];
        hv.guest(va_a).read_mem(dsts[0], &mut out);
        assert_eq!(out, optimus_algo::md5::md5(&data_a).to_vec());
        hv.guest(va_b).read_mem(dsts[1], &mut out);
        assert_eq!(out, optimus_algo::md5::md5(&data_b).to_vec());
        assert!(hv.stats().context_switches > 2);
        assert_eq!(hv.stats().forced_resets, 0);
    }

    #[test]
    fn slot_seed_streams_are_pairwise_distinct() {
        // Regression: accelerator seeds were `base + i`, which collides
        // across adjacent base seeds (42 + 1 == 43 + 0) — node devices use
        // consecutive derived bases, so adjacent devices' slots shared RNG
        // streams. SplitMix64 stream splitting keeps them all distinct.
        let mut seen = std::collections::HashSet::new();
        for base in [42u64, 43, 44] {
            for i in 0..8 {
                assert!(
                    seen.insert(slot_seed(base, i)),
                    "seed collision at base {base}, slot {i}"
                );
            }
        }
        assert_ne!(slot_seed(42, 1), slot_seed(43, 0));
    }

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

    #[test]
    fn guest_mmio_offsets_cannot_escape_into_neighbor_slot() {
        // Regression: a guest BAR offset past its own 4 KB page used to be
        // cached and, rebased as `accel_mmio_base(slot) + offset`, replayed
        // into the *next slot's* MMIO page on install — cross-tenant MMIO.
        use optimus_accel::hash::reg;
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5, AccelKind::Md5]));
        let vm = hv.create_vm("attacker");
        let va = hv.create_vaccel(vm, 0);
        let data = vec![7u8; 1024];
        let src;
        {
            let mut g = hv.guest(va);
            src = g.alloc_dma(4096);
            let dst = g.alloc_dma(4096);
            g.write_mem(src, &data);
            g.mmio_write(accel_reg::APP_BASE + reg::SRC, src.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::DST, dst.raw());
            g.mmio_write(accel_reg::APP_BASE + reg::LINES, (data.len() / 64) as u64);
            // One page up: rebased from slot 0, this offset is exactly
            // slot 1's SRC application register.
            g.mmio_write(ACCEL_PAGE + accel_reg::APP_BASE + reg::SRC, 0xdead);
            // Out-of-page reads master-abort as zero.
            assert_eq!(g.mmio_read(ACCEL_PAGE + accel_reg::APP_BASE + reg::SRC), 0);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        }
        assert!(hv.run_until_done(va, 100_000_000));
        assert_eq!(
            hv.device_mut().mmio_read(accel_mmio_base(1) + accel_reg::APP_BASE + reg::SRC),
            0,
            "out-of-page guest offset reached the neighbour slot's register"
        );
        assert_eq!(hv.stats().discarded_mmio, 2);
    }

    #[test]
    fn completed_vaccel_reports_done_status() {
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5]));
        let vm = hv.create_vm("v");
        let va = hv.create_vaccel(vm, 0);
        let data = vec![1u8; 1024];
        md5_of_guest_buffer(&mut hv, va, &data);
        let status = hv.guest(va).mmio_read(accel_reg::CTRL_STATUS);
        assert_eq!(CtrlStatus::from_u64(status), CtrlStatus::Done);
    }

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
