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
//!
//! The hypervisor is split along state ownership — one module per kind of
//! state and the transitions over it (DESIGN.md, "What state lives where"):
//!
//! | Module | Owns |
//! |---|---|
//! | this one | the [`Optimus`] record, configuration, stats, id counters, the `run` loop |
//! | `sched` | slot residency: install, preempt (Fig. 8), slice boundaries, the watchdog tick |
//! | `iopt` | the IO page table walker: the only writer of the device's IOPT |
//! | `shares` | the FF-A-style share-handle table and its four hypercalls |
//! | `migrate` | [`TenantState`]: `detach_tenant` / `attach_tenant` |
//! | `live_update` | `freeze` / `thaw` / `live_update` over [`HvSnapshot`](crate::snapshot::HvSnapshot) |
//! | `guest` | [`GuestCtx`]: DMA allocation, the shadow-paging hypercall, the MMIO trap path |

mod guest;
mod iopt;
mod live_update;
mod migrate;
mod sched;
mod shares;

pub use guest::GuestCtx;
pub use migrate::{MigrateError, TenantState};
pub use shares::{CarriedRetrieval, RetrievalState, ShareError, ShareRecord, ShareState};

use crate::alloc::FrameAllocator;
use crate::scheduler::{SchedPolicy, SliceScheduler};
use crate::slicing::SlicingConfig;
use crate::snapshot::{wire_enum, Reader, SnapshotError, Wire};
use crate::vaccel::{VaccelId, VaccelRun, VirtualAccel};
use crate::vm::{Vm, VmId};
use crate::watchdog::{IsolationAlert, Watchdog, WatchdogConfig};
use optimus_accel::registry::{build_accelerator, AccelKind};
use optimus_cci::channel::SelectorPolicy;
use optimus_cci::params::host_costs;
use optimus_fabric::accelerator::CtrlStatus;
use optimus_fabric::device::FpgaDevice;
use optimus_fabric::mmio::{vcu_reg, VCU_BASE};
use optimus_fabric::platform::{DeviceId, FabricError, PlatformDevice};
use optimus_mem::host::FrameFiller;
use optimus_sim::journal;
use optimus_sim::metrics;
use optimus_sim::rng::derive_seed;
use optimus_sim::time::{ms_to_cycles, ns_to_cycles, Cycle};
use optimus_sim::trace::{self, Track};
use shares::ShareTable;
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

wire_enum!(TrapCost, "trap", 0 => TrapCost::Native, 1 => TrapCost::Virtualized);

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
    /// Every counter, in wire order: the one list aggregation, encode and
    /// decode all walk.
    fn counters(&mut self) -> [&mut u64; 13] {
        [
            &mut self.traps,
            &mut self.hypercalls,
            &mut self.pinned_pages,
            &mut self.context_switches,
            &mut self.preemptions,
            &mut self.forced_resets,
            &mut self.dropped_packets,
            &mut self.discarded_dma,
            &mut self.discarded_mmio,
            &mut self.alerts_starvation,
            &mut self.alerts_iotlb_thrash,
            &mut self.alerts_preempt_overrun,
            &mut self.alerts_save_refused,
        ]
    }

    /// Adds `other`'s counters into `self` (node-level aggregation across
    /// devices).
    pub fn accumulate(&mut self, other: &HvStats) {
        let mut other = *other;
        for (mine, theirs) in self.counters().into_iter().zip(other.counters()) {
            *mine += *theirs;
        }
    }
}

impl Wire for HvStats {
    fn put(&self, w: &mut Vec<u8>) {
        let mut stats = *self;
        stats.counters().into_iter().for_each(|c| c.put(w));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut stats = Self::default();
        for c in stats.counters() {
            *c = Wire::get(r)?;
        }
        Ok(stats)
    }
}

struct Slot {
    sched: SliceScheduler,
    current: Option<VaccelId>,
    slice_ends: Cycle,
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
    /// The share-handle table, foreign retrievals included.
    shares: ShareTable,
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
        let mut hv = Self::around(device, false, config);
        // Sanity-check the hardware: an OPTIMUS-compatible configuration
        // advertises itself through the VCU magic register.
        let magic = hv.device.mmio_read(VCU_BASE + vcu_reg::MAGIC);
        assert_eq!(magic, vcu_reg::MAGIC_VALUE, "incompatible FPGA configuration");
        Ok(hv)
    }

    /// Boots a pass-through (direct assignment + vIOMMU) baseline: one
    /// accelerator, no hardware monitor, IOVA = GVA.
    pub fn new_passthrough(kind: AccelKind, policy: SelectorPolicy, trap: TrapCost) -> Self {
        let mut config = OptimusConfig::new(vec![kind]);
        config.trap = trap;
        let device = FpgaDevice::new_passthrough(build_accelerator(kind, config.seed), policy);
        Self::around(device, true, config)
    }

    /// A hypervisor with no tenants yet around a freshly booted `device`
    /// that has one slot per configured accelerator.
    fn around(device: FpgaDevice, passthrough: bool, config: OptimusConfig) -> Self {
        let slots = config.accels.len();
        Self {
            device,
            device_id: DeviceId(0),
            passthrough,
            slicing: config.slicing,
            time_slice: config.time_slice,
            trap: config.trap,
            preempt_timeout: config.preempt_timeout,
            vms: BTreeMap::new(),
            vaccels: BTreeMap::new(),
            next_vm_id: 0,
            next_vaccel_id: 0,
            next_job_id: 1,
            slots: (0..slots)
                .map(|_| Slot {
                    sched: SliceScheduler::new(config.sched_policy.clone(), config.time_slice),
                    current: None,
                    slice_ends: 0,
                })
                .collect(),
            frames: FrameAllocator::new(),
            next_slice: 0,
            stats: HvStats::default(),
            watchdog: Watchdog::new(config.watchdog, slots, config.time_slice),
            shares: ShareTable::from_parts(1, Vec::new(), Vec::new()),
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

    /// The name of VM `vm`, if it lives here.
    pub fn vm_name(&self, vm: u32) -> Option<&str> {
        self.vms.get(&vm).map(|v| v.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_fabric::mmio::{accel_mmio_base, accel_reg, ACCEL_PAGE};

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
}
