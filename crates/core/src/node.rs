//! The multi-FPGA node layer.
//!
//! [`OptimusNode`] owns one [`Optimus`] hypervisor per FPGA device and
//! presents a single facade: tenants are placed onto devices by a
//! [`Placement`] policy, guest operations are routed to the owning device
//! via [`NodeVaccel`] handles, and [`run`](OptimusNode::run) advances
//! every device across the requested span — *free-running* each device
//! to the end of the span in one dispatch, or in horizon chunks with a
//! span sync at every boundary while cross-device shares are live.
//!
//! # Why free-running is bit-identical to horizon chunking
//!
//! Devices never interact *during* a `run`: the only cross-device
//! channels are guest operations (`guest`, `create_tenant`, `migrate`,
//! `rebalance`, …), which happen strictly between runs on the caller's
//! thread. So the true dependency horizon of every device inside one
//! `run(cycles)` is the *end of the span*, and splitting the span into
//! chunks is pure overhead. Formally, the **run-splitting lemma**:
//! `hv.run(c1); hv.run(c2)` leaves a hypervisor in exactly the state of
//! `hv.run(c1 + c2)` — slice boundaries and watchdog ticks fire at the
//! same absolute cycles either way (a deadline landing exactly on `c1`
//! is handled at the loop top of the second run, i.e. at the same cycle,
//! and the tick itself does not advance the clock), and the skipped
//! cycles between events are no-ops by the `next_event` contract. Free-
//! running therefore executes the identical per-device step sequence the
//! chunked schedule did, one `Optimus::run` dispatch per device instead
//! of one per horizon chunk.
//!
//! # Why parallel stepping is bit-identical to serial
//!
//! Because each device's trajectory over a span is a pure function of
//! its own state, any schedule that executes the same per-device spans —
//! serially in index order or concurrently on worker threads — produces
//! the same per-device state. The two process-global side effects are
//! made order-independent or explicitly ordered: `simrate` cycle
//! accounting is a commutative atomic sum, and what the recording planes
//! captured is drained per device and merged into the main thread's
//! planes in device-index order (see `optimus_sim::plane`), so even the
//! exported trace JSON is byte-identical. `OPTIMUS_NODE_THREADS=1` forces
//! the serial schedule; `NodeConfig::lockstep` forces horizon-chunked
//! stepping, the reference schedule of the differential suites.

use crate::hypervisor::{
    CarriedRetrieval, GuestCtx, HvStats, MigrateError, Optimus, OptimusConfig, ShareError,
    ShareState, TrapCost,
};
use crate::scheduler::SchedPolicy;
use crate::vaccel::{VaccelId, VaccelRun};
use crate::watchdog::{AlertKind, IsolationAlert};
use optimus_accel::registry::AccelKind;
use optimus_fabric::platform::{DeviceId, FabricError};
use optimus_mem::addr::{Gva, Hpa, PAGE_2M};
use optimus_sim::journal;
use optimus_sim::metrics;
use optimus_sim::plane::{Chunk, Gates};
use optimus_sim::rng::derive_seed;
use optimus_sim::spec;
use optimus_sim::time::{ms_to_cycles, Cycle};

/// How the node assigns new tenants to devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Cycle through devices in index order.
    RoundRobin,
    /// Pick the device with the fewest resident virtual accelerators
    /// (lowest index on ties).
    LeastLoaded,
}

/// Node configuration: `devices` identical FPGAs, each carrying the same
/// accelerator mix.
pub struct NodeConfig {
    /// Accelerator kinds configured onto every device.
    pub accels: Vec<AccelKind>,
    /// Number of FPGA devices in the node.
    pub devices: usize,
    /// Tenant placement policy.
    pub placement: Placement,
    /// Base seed; per-device seeds are split off with
    /// [`derive_seed`] so device streams never collide.
    pub seed: u64,
    /// Temporal-multiplexing time slice (cycles).
    pub time_slice: Cycle,
    /// Temporal-multiplexing policy.
    pub sched_policy: SchedPolicy,
    /// Worker threads for [`OptimusNode::run`]. `None` consults
    /// `OPTIMUS_NODE_THREADS`, then the host's available parallelism.
    pub threads: Option<usize>,
    /// Always step in horizon chunks ([`OptimusNode::run`] otherwise
    /// does so only while cross-device shares are live). Both schedules
    /// are bit-identical (see the module docs); the differential suites
    /// set this to get their reference schedule.
    pub lockstep: bool,
}

impl NodeConfig {
    /// Defaults matching [`OptimusConfig::new`] for each device.
    pub fn new(accels: Vec<AccelKind>, devices: usize) -> Self {
        Self {
            accels,
            devices,
            placement: Placement::RoundRobin,
            seed: 42,
            time_slice: ms_to_cycles(10.0),
            sched_policy: SchedPolicy::RoundRobin,
            threads: None,
            lockstep: false,
        }
    }
}

/// A device-level construction failure, tagged with the device at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeError {
    /// Which device failed to construct.
    pub device: DeviceId,
    /// What went wrong.
    pub source: FabricError,
}

impl core::fmt::Display for NodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.device, self.source)
    }
}

impl std::error::Error for NodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A node-level virtual accelerator handle: which device, which vaccel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeVaccel {
    /// The owning device.
    pub device: DeviceId,
    /// The vaccel's identity on that device.
    pub va: VaccelId,
}

/// One side (owner or retriever) of a cross-device share: which device
/// holds the frames, which VM the spec model says owns them, and the
/// frames themselves.
#[derive(Debug, Clone)]
struct ShareSide {
    device: usize,
    spec_vm: u32,
    hpas: Vec<u64>,
}

/// A share whose owner and retriever live on *different* devices. The
/// retriever maps node-managed mirror frames; the node synchronizes the
/// two sides at every chunk boundary (the shrunken dependency horizon).
///
/// Sync direction follows authority: a read-only share is owner-
/// authoritative (owner → mirror), a writable share hands authority to
/// the retriever (mirror → owner). Concurrent writes from both sides
/// within one chunk are unsupported — the authoritative side wins.
#[derive(Debug, Clone)]
struct CrossShare {
    handle: u64,
    owner: ShareSide,
    retr: ShareSide,
    writable: bool,
}

/// A node of FPGA devices behind one hypervisor facade.
pub struct OptimusNode {
    devices: Vec<Optimus>,
    placement: Placement,
    rr_next: usize,
    threads: usize,
    /// Horizon chunking even with no cross-device share live (the
    /// differential suites' reference schedule).
    lockstep: bool,
    /// Per-device cached sync horizons for the lock-step path, reused
    /// across `run` calls (`None` = recompute; `Some(None)` = device has
    /// no horizon this run).
    horizon_cache: Vec<Option<Option<Cycle>>>,
    /// Reusable log of chunk sizes for the hoisted per-run metrics flush.
    chunk_scratch: Vec<Cycle>,
    /// Per-device count of alerts already consumed by
    /// [`rebalance`](Self::rebalance), so each alert triggers at most one
    /// migration decision.
    alerts_seen: Vec<usize>,
    /// Cross-device shares currently live. Non-empty forces horizon-
    /// chunked stepping with a span sync at every chunk boundary.
    cross_shares: Vec<CrossShare>,
}

impl core::fmt::Debug for OptimusNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OptimusNode")
            .field("devices", &self.devices.len())
            .field("placement", &self.placement)
            .field("threads", &self.threads)
            .finish()
    }
}

impl OptimusNode {
    /// Boots `cfg.devices` hypervisors, each around its own FPGA.
    pub fn new(cfg: NodeConfig) -> Result<Self, NodeError> {
        let mut devices = Vec::with_capacity(cfg.devices);
        for d in 0..cfg.devices.max(1) {
            let id = DeviceId(d as u32);
            let mut c = OptimusConfig::new(cfg.accels.clone());
            c.seed = derive_seed(cfg.seed, d as u64);
            c.time_slice = cfg.time_slice;
            c.sched_policy = cfg.sched_policy.clone();
            c.trap = TrapCost::Virtualized;
            let mut hv = Optimus::try_new(c).map_err(|source| NodeError { device: id, source })?;
            hv.set_device_id(id);
            devices.push(hv);
        }
        let threads = cfg
            .threads
            .or_else(env_threads)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            })
            .clamp(1, devices.len());
        let alerts_seen = vec![0; devices.len()];
        let horizon_cache = vec![None; devices.len()];
        Ok(Self {
            devices,
            placement: cfg.placement,
            rr_next: 0,
            threads,
            lockstep: cfg.lockstep,
            horizon_cache,
            chunk_scratch: Vec::new(),
            alerts_seen,
            cross_shares: Vec::new(),
        })
    }

    /// Whether [`run`](Self::run) always steps in horizon chunks.
    pub fn lockstep(&self) -> bool {
        self.lockstep
    }

    /// Overrides [`NodeConfig::lockstep`] (differential testing).
    pub fn set_lockstep(&mut self, on: bool) {
        self.lockstep = on;
    }

    /// Overrides every device's batched-stepping burst length (1 disables
    /// batching; see `PlatformClock::advance_toward_adaptive`).
    pub fn set_batch_step(&mut self, k: Cycle) {
        for hv in &mut self.devices {
            hv.device_mut().set_batch_step(k);
        }
    }

    /// Number of devices in the node.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Worker threads [`run`](Self::run) will use (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The hypervisor mediating `id` (read-only observation).
    pub fn device(&self, id: DeviceId) -> &Optimus {
        &self.devices[id.0 as usize]
    }

    /// Mutable access to the hypervisor mediating `id`.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Optimus {
        &mut self.devices[id.0 as usize]
    }

    /// Picks the device for the next tenant per the placement policy.
    fn place(&mut self) -> DeviceId {
        match self.placement {
            Placement::RoundRobin => {
                let d = self.rr_next % self.devices.len();
                self.rr_next += 1;
                DeviceId(d as u32)
            }
            Placement::LeastLoaded => {
                let d = (0..self.devices.len())
                    .min_by_key(|&d| self.devices[d].num_vaccels())
                    .expect("node has at least one device");
                DeviceId(d as u32)
            }
        }
    }

    /// Creates a VM + virtual accelerator for a new tenant, placing it on
    /// a device per the policy and on that device's least-populated slot.
    pub fn create_tenant(&mut self, name: &str) -> NodeVaccel {
        let device = self.place();
        self.create_tenant_on(device, name)
    }

    /// [`create_tenant`](Self::create_tenant) pinned to a specific device,
    /// bypassing the placement policy (benchmarks constructing deliberate
    /// hot spots; operator-directed placement).
    pub fn create_tenant_on(&mut self, device: DeviceId, name: &str) -> NodeVaccel {
        let hv = &mut self.devices[device.0 as usize];
        let slot = (0..hv.num_slots())
            .min_by_key(|&s| hv.slot_population(s))
            .expect("device has at least one slot");
        let vm = hv.create_vm(name);
        let va = hv.create_vaccel(vm, slot);
        NodeVaccel { device, va }
    }

    /// The device currently holding `handle`'s share record, if any.
    fn share_home(&self, handle: u64) -> Option<usize> {
        self.devices.iter().position(|hv| hv.share_record(handle).is_some())
    }

    /// Retrieves a shared span on behalf of `peer`, routing by topology:
    /// a peer co-resident with the owner retrieves directly (zero-copy —
    /// its IOPT targets the owner's frames), while a peer on another
    /// device maps node-managed *mirror* frames that the node keeps in
    /// sync at every chunk boundary. Returns the peer-side base GVA.
    pub fn retrieve_shared(&mut self, handle: u64, peer: NodeVaccel) -> Result<Gva, ShareError> {
        let Some(od) = self.share_home(handle) else {
            return Err(ShareError::NoSuchHandle);
        };
        let pd = peer.device.0 as usize;
        if od == pd {
            return self.devices[pd].guest(peer.va).mem_retrieve(handle);
        }
        let peer_vm = self.devices[pd]
            .vaccel_vm(peer.va)
            .expect("peer handle is live")
            .0;
        let (owner_vm, hpas, writable) = {
            let rec = self.devices[od].share_record(handle).expect("found above");
            if rec.state != ShareState::Shared {
                return Err(ShareError::BadState);
            }
            if self.devices[pd].vm_name(peer_vm) != Some(rec.peer.as_str()) {
                return Err(ShareError::NotPeer);
            }
            (rec.owner_vm, rec.hpas.clone(), rec.writable)
        };
        let (gva, mirror) = self.devices[pd].attach_foreign_retrieval(
            peer.va,
            handle,
            None,
            hpas.len() as u64,
            writable,
        );
        {
            let rec = self.devices[od].share_record_mut(handle).expect("found above");
            rec.state = ShareState::Retrieved;
            rec.retriever_vm = None; // remote: tracked on the peer's device
            rec.retriever_gva = gva.raw();
        }
        let owner = ShareSide { device: od, spec_vm: owner_vm, hpas };
        let retr = ShareSide { device: pd, spec_vm: peer_vm, hpas: mirror };
        // Seed the mirror with the span's current contents; from here the
        // per-chunk sync keeps the authoritative side propagated.
        self.copy_pages(&owner, &retr);
        self.cross_shares.push(CrossShare { handle, owner, retr, writable });
        // A consumer with a job already in flight links to the producer
        // across the device boundary (jobs submitted later link at their
        // own start, exactly as on the same-device path).
        if journal::enabled() {
            let consumer = self.devices[pd].vaccel_job(peer.va).unwrap_or(0);
            if consumer != 0 {
                if let Some(producer) = self.devices[od].vm_job(owner_vm) {
                    journal::link(consumer, producer, self.devices[pd].now());
                }
            }
        }
        Ok(gva)
    }

    /// Relinquishes a retrieved span on behalf of `peer`. Cross-device
    /// retrievals get a final sync (writable shares push the mirror back
    /// to the owner) before the mirror's GVA and IOPT mappings — and any
    /// speculative IOTLB state — are torn down.
    pub fn relinquish_shared(&mut self, handle: u64, peer: NodeVaccel) -> Result<(), ShareError> {
        if let Some(i) = self.cross_shares.iter().position(|c| c.handle == handle) {
            let cs = self.cross_shares[i].clone();
            if cs.retr.device != peer.device.0 as usize {
                return Err(ShareError::NotRetriever);
            }
            if cs.writable {
                self.copy_pages(&cs.retr, &cs.owner);
            }
            self.devices[cs.retr.device]
                .detach_foreign_retrieval(handle, "relinquished")
                .expect("cross share has a live mirror");
            self.devices[cs.owner.device]
                .share_record_mut(handle)
                .expect("cross share has a live record")
                .state = ShareState::Relinquished;
            self.cross_shares.remove(i);
            return Ok(());
        }
        self.devices[peer.device.0 as usize].guest(peer.va).mem_relinquish(handle)
    }

    /// Reclaims a share on behalf of its owner, force-revoking a cross-
    /// device retriever's mirror if one is still live. Terminal.
    pub fn reclaim_shared(&mut self, handle: u64, owner: NodeVaccel) -> Result<(), ShareError> {
        if let Some(i) = self.cross_shares.iter().position(|c| c.handle == handle) {
            let cs = self.cross_shares[i].clone();
            if cs.owner.device != owner.device.0 as usize {
                return Err(ShareError::NotOwner);
            }
            if cs.writable {
                self.copy_pages(&cs.retr, &cs.owner);
            }
            self.devices[cs.retr.device]
                .detach_foreign_retrieval(handle, "reclaimed")
                .expect("cross share has a live mirror");
            self.devices[cs.owner.device]
                .share_record_mut(handle)
                .expect("cross share has a live record")
                .state = ShareState::Reclaimed;
            self.cross_shares.remove(i);
            return Ok(());
        }
        self.devices[owner.device.0 as usize].guest(owner.va).mem_reclaim(handle)
    }

    /// Synchronizes every cross-device share along its authoritative
    /// direction. Runs on the caller's thread, strictly between device
    /// steps, in registration order — deterministic regardless of worker
    /// count or chunk schedule.
    fn sync_cross_shares(&mut self) {
        if self.cross_shares.is_empty() {
            return;
        }
        let shares = std::mem::take(&mut self.cross_shares);
        for cs in &shares {
            if cs.writable {
                self.copy_pages(&cs.retr, &cs.owner);
            } else {
                self.copy_pages(&cs.owner, &cs.retr);
            }
        }
        self.cross_shares = shares;
    }

    /// Copies a share side's frames onto the other side's, page by page,
    /// refinement-checking each page against the spec model's frame
    /// ownership (the sync acts on the node's behalf, like migration).
    fn copy_pages(&mut self, src: &ShareSide, dst: &ShareSide) {
        if spec::enabled() {
            for (&s, &d) in src.hpas.iter().zip(&dst.hpas) {
                spec::check_adopt(
                    src.device as u32,
                    s,
                    src.spec_vm,
                    dst.device as u32,
                    d,
                    dst.spec_vm,
                );
            }
        }
        if src.device == dst.device {
            // Owner and mirror co-resident (a migration landed them
            // together): copy through a bounce buffer.
            let hv = &mut self.devices[src.device];
            let mut buf = vec![0u8; PAGE_2M as usize];
            for (&s, &d) in src.hpas.iter().zip(&dst.hpas) {
                hv.device().host().memory().read(Hpa::new(s), &mut buf);
                hv.device_mut().host_mut().memory_mut().write(Hpa::new(d), &buf);
            }
            return;
        }
        let (lo, hi) = (src.device.min(dst.device), src.device.max(dst.device));
        let (head, tail) = self.devices.split_at_mut(hi);
        let (src_hv, dst_hv) = if src.device < dst.device {
            (&mut head[lo], &mut tail[0])
        } else {
            (&mut tail[0], &mut head[lo])
        };
        for (&s, &d) in src.hpas.iter().zip(&dst.hpas) {
            dst_hv.device_mut().host_mut().memory_mut().adopt_span(
                src_hv.device().host().memory(),
                Hpa::new(s),
                Hpa::new(d),
                PAGE_2M,
            );
        }
    }

    /// Migrates a tenant to another device: detaches it from the source
    /// (Fig. 8 preempt + state save into its own guest memory, IOPT
    /// teardown), attaches it to the destination (fresh ids and slice,
    /// IOPT replay), then moves its guest memory between the two devices'
    /// host DRAMs — materialized frames, lazy-fill registrations, and
    /// scratch registrations all translate. The tenant resumes through
    /// the ordinary install path at its next slice on the destination.
    ///
    /// Migrating a tenant to the device it already lives on is a no-op.
    /// Returns the tenant's new handle; the old one is dead (its id is
    /// retired, never recycled).
    ///
    /// # Errors
    ///
    /// Propagates [`MigrateError`] from the detach (pass-through device,
    /// unknown handle, shared VM). A node's devices are homogeneous, so
    /// the attach side cannot fail.
    pub fn migrate(&mut self, h: NodeVaccel, to: DeviceId) -> Result<NodeVaccel, MigrateError> {
        let from = h.device;
        if from == to {
            return Ok(h);
        }
        // Flush cross-device spans before surgery so both sides agree on
        // the bytes the migration copies.
        self.sync_cross_shares();
        let (lo, hi) = (from.0.min(to.0) as usize, from.0.max(to.0) as usize);
        let (head, tail) = self.devices.split_at_mut(hi);
        let (src, dst) = if from.0 < to.0 {
            (&mut head[lo], &mut tail[0])
        } else {
            (&mut tail[0], &mut head[lo])
        };
        let src_vm = src.vaccel_vm(h.va);
        // Share records this tenant owns, captured pre-detach: handle,
        // old frames, whether a co-resident retriever holds a live
        // mapping into them, lifecycle state, and the permission mask.
        let pre_owned: Vec<(u64, Vec<u64>, bool, ShareState, bool)> = src_vm
            .iter()
            .flat_map(|vm| src.shares_owned_by(vm.0))
            .map(|r| {
                (r.handle, r.hpas.clone(), r.retriever_vm.is_some(), r.state, r.writable)
            })
            .collect();
        let t = src.detach_tenant(h.va)?;
        let job = t.vaccel.job;
        let carried: Vec<CarriedRetrieval> = t.retrievals.clone();
        let (va, copies) = dst.attach_tenant(t)?;
        if spec::enabled() {
            // Every frame copy must read the detached tenant's own frames
            // on the source device and write the freshly attached tenant's
            // frames on the destination — nothing else.
            let src_vm = src_vm.expect("detach succeeded, vaccel existed").0;
            let dst_vm = dst.vaccel_vm(va).expect("freshly attached").0;
            for &(s, d) in &copies {
                spec::check_adopt(from.0, s, src_vm, to.0, d, dst_vm);
            }
        }
        // Move the tenant's bytes: coalesce the per-page copy list into
        // contiguous spans and adopt each across host memories.
        let mut i = 0;
        while i < copies.len() {
            let (src_base, dst_base) = copies[i];
            let mut len = PAGE_2M;
            while i + 1 < copies.len()
                && copies[i + 1].0 == copies[i].0 + PAGE_2M
                && copies[i + 1].1 == copies[i].1 + PAGE_2M
            {
                i += 1;
                len += PAGE_2M;
            }
            dst.device_mut().host_mut().memory_mut().adopt_span(
                src.device().host().memory(),
                Hpa::new(src_base),
                Hpa::new(dst_base),
                len,
            );
            i += 1;
        }
        // Re-resolve share state around the move.
        let (from_idx, to_idx) = (from.0 as usize, to.0 as usize);
        let dst_vm = self.devices[to_idx]
            .vaccel_vm(va)
            .expect("freshly attached")
            .0;
        // Spans this tenant had *retrieved*: rebuild each as a mirror on
        // the destination, at its original GVA so in-flight register
        // state stays valid, and (re-)register the cross-device sync.
        for r in &carried {
            let (gva2, mirror) = self.devices[to_idx].attach_foreign_retrieval(
                va,
                r.handle,
                Some(r.gva),
                r.pages,
                r.writable,
            );
            debug_assert_eq!(gva2.raw(), r.gva, "mirror rebuilt at its original GVA");
            let retr = ShareSide { device: to_idx, spec_vm: dst_vm, hpas: mirror };
            if let Some(cs) = self.cross_shares.iter_mut().find(|c| c.handle == r.handle) {
                // Already cross-device: only the retriever side moved.
                cs.retr = retr;
            } else {
                // The share was same-device until now — the record (and
                // owner) stayed behind on the source.
                let (owner_vm, hpas) = {
                    let rec = self.devices[from_idx]
                        .share_record(r.handle)
                        .expect("same-device share record lives on the source");
                    (rec.owner_vm, rec.hpas.clone())
                };
                self.cross_shares.push(CrossShare {
                    handle: r.handle,
                    owner: ShareSide { device: from_idx, spec_vm: owner_vm, hpas },
                    retr,
                    writable: r.writable,
                });
            }
            // The fresh mirror is empty: seed it from the owner side.
            let cs = self
                .cross_shares
                .iter()
                .find(|c| c.handle == r.handle)
                .expect("registered above")
                .clone();
            self.copy_pages(&cs.owner, &cs.retr);
        }
        // Shares this tenant *owns*: the records moved with it (frames
        // rewritten by attach); point any live sync at the new frames.
        for (handle, old_hpas, had_local_retriever, state, writable) in pre_owned {
            let new_hpas = self.devices[to_idx]
                .share_record(handle)
                .expect("attach re-homed the owned records")
                .hpas
                .clone();
            let owner = ShareSide { device: to_idx, spec_vm: dst_vm, hpas: new_hpas };
            if let Some(cs) = self.cross_shares.iter_mut().find(|c| c.handle == handle) {
                cs.owner = owner;
            } else if state == ShareState::Retrieved && had_local_retriever {
                // A co-resident retriever stayed behind: its IOPT still
                // targets the owner's *old* frames on the source, which
                // now act as the retriever-side mirror. The old frames'
                // spec ownership (the detached VM id) rides along for the
                // sync's refinement checks.
                let old_vm = src_vm.expect("detach succeeded, vaccel existed").0;
                self.cross_shares.push(CrossShare {
                    handle,
                    owner,
                    retr: ShareSide { device: from_idx, spec_vm: old_vm, hpas: old_hpas },
                    writable,
                });
            }
        }
        if job != 0 {
            // Stamped on the destination clock: the journey's first phase
            // on the new device (the accounting treats it like a requeue).
            journal::phase(job, journal::Phase::Migrated, self.devices[to_idx].now());
        }
        metrics::inc_at(metrics::NODE_MIGRATIONS, to.0, 0, 1);
        Ok(NodeVaccel { device: to, va })
    }

    /// Watchdog-driven rebalancing: consumes starvation alerts raised
    /// since the last call and, for each newly starved slot, migrates its
    /// lowest-id live tenant off the hot device onto the least-loaded
    /// other device (lowest index on ties). One migration per starved
    /// slot per call; each alert is consumed exactly once, so a policy
    /// loop can call this after every run chunk without thrashing.
    ///
    /// Returns the `(old, new)` handle pairs of every tenant moved.
    /// Single-device nodes consume alerts but never move anyone.
    pub fn rebalance(&mut self) -> Vec<(NodeVaccel, NodeVaccel)> {
        let mut moved = Vec::new();
        for d in 0..self.devices.len() {
            let alerts = self.devices[d].alerts();
            let fresh: Vec<IsolationAlert> = alerts[self.alerts_seen[d].min(alerts.len())..].to_vec();
            self.alerts_seen[d] = alerts.len();
            if self.devices.len() < 2 {
                continue;
            }
            let mut handled = std::collections::BTreeSet::new();
            for a in fresh {
                if a.kind != AlertKind::Starvation {
                    continue;
                }
                let Some(slot) = a.slot else { continue };
                if !handled.insert(slot) {
                    continue;
                }
                // Victim: the starved slot's lowest-id tenant still in
                // flight (completed tenants have nothing to gain).
                let victim = self.devices[d]
                    .vaccels_on_slot(slot)
                    .into_iter()
                    .find(|&va| self.devices[d].vaccel_run(va) != Some(VaccelRun::Completed));
                let Some(va) = victim else { continue };
                let to = DeviceId(
                    (0..self.devices.len())
                        .filter(|&x| x != d)
                        .min_by_key(|&x| (self.devices[x].num_vaccels(), x))
                        .expect("checked: at least two devices") as u32,
                );
                let old = NodeVaccel { device: DeviceId(d as u32), va };
                if let Ok(new) = self.migrate(old, to) {
                    moved.push((old, new));
                }
            }
        }
        moved
    }

    /// Live-updates the hypervisor mediating `id` in place: freeze,
    /// serialize, thaw a brand-new instance around the persistent device
    /// (see [`Optimus::live_update`]). Tenant handles remain valid — ids
    /// survive the snapshot.
    pub fn live_update(&mut self, id: DeviceId) {
        let d = id.0 as usize;
        let hv = self.devices.remove(d);
        self.devices.insert(d, hv.live_update());
    }

    /// The guest-side handle for a tenant's virtual accelerator.
    pub fn guest(&mut self, h: NodeVaccel) -> GuestCtx<'_> {
        self.devices[h.device.0 as usize].guest(h.va)
    }

    /// Hypervisor-side (trap-free) completion check.
    pub fn vaccel_completed(&mut self, h: NodeVaccel) -> bool {
        self.devices[h.device.0 as usize].vaccel_completed(h.va)
    }

    /// The most advanced device clock (devices within one horizon of each
    /// other).
    pub fn now(&self) -> Cycle {
        self.devices.iter().map(|hv| hv.now()).max().unwrap_or(0)
    }

    /// Node-wide statistics: every device's [`HvStats`] accumulated.
    pub fn stats(&self) -> HvStats {
        let mut total = HvStats::default();
        for hv in &self.devices {
            total.accumulate(&hv.stats());
        }
        total
    }

    /// Per-device statistics in device-index order.
    pub fn device_stats(&self) -> Vec<HvStats> {
        self.devices.iter().map(|hv| hv.stats()).collect()
    }

    /// Every device's isolation alerts, concatenated in device-index
    /// order (each alert already carries its `DeviceId`).
    pub fn alerts(&self) -> Vec<IsolationAlert> {
        self.devices.iter().flat_map(|hv| hv.alerts().iter().copied()).collect()
    }

    /// Opens throughput measurement windows on every port of every device.
    pub fn open_windows(&mut self) {
        for hv in &mut self.devices {
            hv.device_mut().open_windows();
        }
    }

    /// Closes throughput measurement windows on every device.
    pub fn close_windows(&mut self) {
        for hv in &mut self.devices {
            hv.device_mut().close_windows();
        }
    }

    /// Runs every device for `cycles` fabric cycles.
    ///
    /// Default schedule: **free-running** — devices never interact during
    /// a run (see the module docs), so every device's dependency horizon
    /// is the end of the span and each one is advanced in a single
    /// `Optimus::run(cycles)` dispatch. While cross-device shares are
    /// live (or under [`lockstep`](Self::lockstep)) the node instead
    /// re-synchronizes every horizon chunk. With more than one worker
    /// thread, devices step concurrently; state, stats, and traces are
    /// bit-identical across all four schedules.
    pub fn run(&mut self, cycles: Cycle) {
        if cycles == 0 {
            return;
        }
        // Live cross-device shares shrink the dependency horizon from
        // "end of span" to the next chunk boundary: the owner and
        // retriever sides must observe each other's writes, so the node
        // falls back to horizon-chunked stepping with a sync per chunk.
        if self.lockstep || !self.cross_shares.is_empty() {
            self.run_lockstep(cycles);
            return;
        }
        if self.threads <= 1 || self.devices.len() == 1 {
            for hv in &mut self.devices {
                hv.run(cycles);
            }
        } else {
            self.run_span_parallel(cycles);
        }
        // One free-running span = one node-level chunk per device.
        for d in 0..self.devices.len() as u32 {
            metrics::inc_at(metrics::NODE_CHUNKS, d, 0, 1);
            metrics::observe_at(metrics::NODE_CHUNK_CYCLES, d, 0, cycles);
        }
    }

    /// The horizon-chunked schedule: advance all devices together one
    /// sync horizon at a time, propagating cross-device shared spans at
    /// every chunk boundary. This is what the node runs while such shares
    /// are live — their two sides must observe each other's writes — and,
    /// via [`NodeConfig::lockstep`], the reference schedule `free_run_prop`,
    /// `noninterference_prop` and `spec_prop` compare free-running against.
    fn run_lockstep(&mut self, cycles: Cycle) {
        let n = self.devices.len();
        // Cached per-device horizons: recompute a device's entry only
        // when it has reached its cached horizon (slice deadlines move
        // only when a boundary fires, which requires reaching them), not
        // O(devices) every chunk. Chunk sizing affects neither device
        // state nor traces (run-splitting lemma, module docs), so a
        // conservatively stale horizon is harmless.
        let mut horizons = std::mem::take(&mut self.horizon_cache);
        horizons.clear();
        horizons.resize(n, None);
        let mut chunk_log = std::mem::take(&mut self.chunk_scratch);
        chunk_log.clear();
        let mut remaining = cycles;
        while remaining > 0 {
            // Propagate cross-device shared spans before every chunk (and
            // once more after the loop): on the main thread, in
            // registration order, so the result is independent of worker
            // count and chunk sizing.
            self.sync_cross_shares();
            let mut chunk = remaining;
            for (cached, hv) in horizons.iter_mut().zip(&self.devices) {
                let stale = match *cached {
                    None => true,
                    Some(Some(h)) => hv.now() >= h,
                    Some(None) => false,
                };
                if stale {
                    *cached = Some(hv.next_sync_horizon());
                }
                if let Some(Some(h)) = *cached {
                    // Plus one so the horizon's scheduling decision
                    // executes inside the chunk that reaches it.
                    chunk = chunk.min(h.saturating_sub(hv.now()) + 1);
                }
            }
            let chunk = chunk.min(remaining).max(1);
            if self.threads <= 1 || n == 1 {
                for hv in &mut self.devices {
                    hv.run(chunk);
                }
            } else {
                self.run_span_parallel(chunk);
            }
            chunk_log.push(chunk);
            remaining -= chunk;
        }
        self.sync_cross_shares();
        // Node-level chunk accounting, hoisted out of the chunk loop:
        // the flush performs the same counter increments and histogram
        // observations the per-chunk path recorded, so the final metric
        // state is identical while the hot loop makes no metrics calls.
        for d in 0..n as u32 {
            metrics::inc_at(metrics::NODE_CHUNKS, d, 0, chunk_log.len() as u64);
            for &c in &chunk_log {
                metrics::observe_at(metrics::NODE_CHUNK_CYCLES, d, 0, c);
            }
        }
        self.horizon_cache = horizons;
        self.chunk_scratch = chunk_log;
    }

    /// Steps every device by `chunk` on scoped worker threads. Devices
    /// are split into contiguous index-order groups (one per worker);
    /// each worker steps its devices under the dispatching thread's plane
    /// gates and drains one [`Chunk`] per device, and the chunks merge
    /// here in device-index order — which equals the serial recording
    /// (see `optimus_sim::plane`).
    fn run_span_parallel(&mut self, chunk: Cycle) {
        let gates = Gates::capture();
        let workers = self.threads.min(self.devices.len());
        let per = self.devices.len().div_ceil(workers);
        let drained: Vec<Vec<Chunk>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .devices
                .chunks_mut(per)
                .map(|group| {
                    let lent: Vec<Chunk> =
                        group.iter().map(|hv| Chunk::lend(hv.device_id().0)).collect();
                    s.spawn(move || {
                        gates.apply();
                        group
                            .iter_mut()
                            .zip(lent)
                            .map(|(hv, lent)| {
                                lent.absorb();
                                hv.run(chunk);
                                Chunk::take(hv.device_id().0)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node worker thread panicked"))
                .collect()
        });
        for c in drained.into_iter().flatten() {
            c.absorb();
        }
    }

    /// Runs the whole node until `h`'s job completes (or `max_cycles`
    /// pass), advancing every device together. Returns whether it
    /// completed.
    pub fn run_until_done(&mut self, h: NodeVaccel, max_cycles: Cycle) -> bool {
        let start = self.now();
        let poll = ms_to_cycles(0.05);
        while self.now() < start + max_cycles {
            if self.vaccel_completed(h) {
                return true;
            }
            let budget = start + max_cycles - self.now();
            self.run(poll.min(budget));
        }
        self.vaccel_completed(h)
    }
}

/// Parses `OPTIMUS_NODE_THREADS` (values < 1 are ignored).
fn env_threads() -> Option<usize> {
    std::env::var("OPTIMUS_NODE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_fabric::mmio::accel_reg;

    fn mb_node(devices: usize, threads: usize) -> OptimusNode {
        let mut cfg = NodeConfig::new(vec![AccelKind::Mb, AccelKind::Mb], devices);
        cfg.threads = Some(threads);
        OptimusNode::new(cfg).expect("node boots")
    }

    fn start_mb_job(node: &mut OptimusNode, h: NodeVaccel, ops: u64, seed: u64) {
        use optimus_accel::membench::MbKernel;
        let mut g = node.guest(h);
        let region = g.alloc_dma(1 << 20);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 20);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, ops);
        g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, seed);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }

    #[test]
    fn round_robin_placement_cycles_devices() {
        let mut node = mb_node(3, 1);
        let handles: Vec<NodeVaccel> = (0..6).map(|i| node.create_tenant(&format!("t{i}"))).collect();
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.device, DeviceId((i % 3) as u32));
        }
    }

    #[test]
    fn least_loaded_placement_balances() {
        let mut cfg = NodeConfig::new(vec![AccelKind::Mb], 3);
        cfg.placement = Placement::LeastLoaded;
        cfg.threads = Some(1);
        let mut node = OptimusNode::new(cfg).expect("node boots");
        let handles: Vec<NodeVaccel> = (0..7).map(|i| node.create_tenant(&format!("t{i}"))).collect();
        let mut per_device = [0usize; 3];
        for h in &handles {
            per_device[h.device.0 as usize] += 1;
        }
        let max = per_device.iter().max().unwrap();
        let min = per_device.iter().min().unwrap();
        assert!(max - min <= 1, "unbalanced: {per_device:?}");
    }

    #[test]
    fn empty_accel_list_reports_the_failing_device() {
        let cfg = NodeConfig::new(Vec::new(), 2);
        let err = OptimusNode::new(cfg).expect_err("empty mix must fail");
        assert_eq!(err.device, DeviceId(0));
        assert_eq!(err.source, FabricError::NoAccelerators);
        assert!(err.to_string().contains("fpga0"));
    }

    #[test]
    fn per_device_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..4).map(|d| derive_seed(42, d)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }

    #[test]
    fn migrate_moves_midflight_job_between_devices() {
        let mut node = mb_node(2, 1);
        let a = node.create_tenant_on(DeviceId(0), "mover");
        start_mb_job(&mut node, a, 500_000, 7);
        node.run(ms_to_cycles(0.2));
        assert!(!node.vaccel_completed(a), "job finished before migration");
        let b = node.migrate(a, DeviceId(1)).expect("migration succeeds");
        assert_eq!(b.device, DeviceId(1));
        // The source device no longer knows the tenant.
        assert_eq!(node.device(DeviceId(0)).num_vaccels(), 0);
        assert!(node.run_until_done(b, 500_000_000), "migrated job completes");
        assert_eq!(node.device(DeviceId(1)).device().host().faulted_dmas(), 0);
        // Migrating onto the same device is a no-op.
        assert_eq!(node.migrate(b, DeviceId(1)).unwrap(), b);
    }

    #[test]
    fn rebalance_without_alerts_moves_nobody() {
        let mut node = mb_node(2, 1);
        let _a = node.create_tenant("a");
        assert!(node.rebalance().is_empty());
    }

    #[test]
    fn cross_device_share_syncs_owner_to_mirror() {
        let mut node = mb_node(2, 1);
        let owner = node.create_tenant_on(DeviceId(0), "owner");
        let peer = node.create_tenant_on(DeviceId(1), "peer");
        let span = node.guest(owner).alloc_dma(PAGE_2M);
        node.guest(owner).write_mem(span, &[0x11; 4096]);
        let handle = node
            .guest(owner)
            .mem_share(span, PAGE_2M, "peer", false)
            .expect("share");
        let got = node.retrieve_shared(handle, peer).expect("cross retrieve");
        // The retrieve seeded the mirror with the span's contents.
        let mut buf = vec![0u8; 4096];
        node.guest(peer).read_mem(got, &mut buf);
        assert_eq!(buf, vec![0x11; 4096]);
        // Read-only share: the owner stays authoritative; its updates
        // propagate at the next chunk boundary.
        node.guest(owner).write_mem(span, &[0x22; 4096]);
        node.run(ms_to_cycles(0.1));
        node.guest(peer).read_mem(got, &mut buf);
        assert_eq!(buf, vec![0x22; 4096]);
        node.relinquish_shared(handle, peer).expect("relinquish");
        assert!(node.guest(peer).gva_to_hpa(got).is_err(), "mirror survived relinquish");
        assert_eq!(
            node.device(DeviceId(0)).share_state(handle),
            Some(ShareState::Relinquished)
        );
        // With no live cross shares the node free-runs again.
        node.run(ms_to_cycles(0.1));
    }

    #[test]
    fn writable_cross_share_pushes_mirror_back_to_owner() {
        let mut node = mb_node(2, 1);
        let owner = node.create_tenant_on(DeviceId(0), "owner");
        let peer = node.create_tenant_on(DeviceId(1), "peer");
        let span = node.guest(owner).alloc_dma(PAGE_2M);
        node.guest(owner).write_mem(span, &[0u8; 4096]);
        let handle = node
            .guest(owner)
            .mem_share(span, PAGE_2M, "peer", true)
            .expect("share rw");
        let got = node.retrieve_shared(handle, peer).expect("cross retrieve");
        // Writable share: authority transfers to the retriever.
        node.guest(peer).write_mem(got, &[0x77; 4096]);
        node.run(ms_to_cycles(0.1));
        let mut buf = vec![0u8; 4096];
        node.guest(owner).read_mem(span, &mut buf);
        assert_eq!(buf, vec![0x77; 4096]);
        // Reclaim performs a final push-back then revokes the mirror.
        node.guest(peer).write_mem(got, &[0x78; 64]);
        node.reclaim_shared(handle, owner).expect("reclaim");
        node.guest(owner).read_mem(span, &mut buf);
        assert_eq!(&buf[..64], &[0x78; 64]);
        assert!(node.guest(peer).gva_to_hpa(got).is_err(), "mirror survived reclaim");
        assert_eq!(
            node.device(DeviceId(0)).share_state(handle),
            Some(ShareState::Reclaimed)
        );
    }

    #[test]
    fn same_device_share_routes_through_the_hypervisor() {
        let mut node = mb_node(2, 1);
        let owner = node.create_tenant_on(DeviceId(0), "owner");
        let peer = node.create_tenant_on(DeviceId(0), "peer");
        let span = node.guest(owner).alloc_dma(PAGE_2M);
        node.guest(owner).write_mem(span, &[0x33; 1024]);
        let handle = node
            .guest(owner)
            .mem_share(span, PAGE_2M, "peer", false)
            .expect("share");
        let got = node.retrieve_shared(handle, peer).expect("local retrieve");
        // Same device: true zero-copy, no registry entry, free-running
        // stepping is preserved.
        assert_eq!(
            node.guest(owner).gva_to_hpa(span).unwrap(),
            node.guest(peer).gva_to_hpa(got).unwrap()
        );
        let mut buf = vec![0u8; 1024];
        node.guest(peer).read_mem(got, &mut buf);
        assert_eq!(buf, vec![0x33; 1024]);
        node.relinquish_shared(handle, peer).expect("relinquish");
        assert_eq!(
            node.device(DeviceId(0)).share_state(handle),
            Some(ShareState::Relinquished)
        );
    }

    #[test]
    fn two_device_jobs_complete_in_parallel_mode() {
        let mut node = mb_node(2, 2);
        let a = node.create_tenant("a");
        let b = node.create_tenant("b");
        start_mb_job(&mut node, a, 400, 1);
        start_mb_job(&mut node, b, 400, 2);
        assert!(node.run_until_done(a, 200_000_000), "job a");
        assert!(node.run_until_done(b, 200_000_000), "job b");
        assert_eq!(node.stats().forced_resets, 0);
        assert!(node.stats().traps > 0);
    }
}
