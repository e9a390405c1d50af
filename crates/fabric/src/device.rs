//! The composed FPGA device.
//!
//! [`FpgaDevice`] wires together every hardware component — accelerators,
//! their ports and clock dividers, the auditors, the multiplexer tree, the
//! VCU, and the host side of the interconnect — and advances the whole
//! machine one 400 MHz fabric cycle at a time.
//!
//! Two fabric configurations exist, matching the paper's evaluation:
//!
//! * [`FabricMode::Monitored`] — the OPTIMUS configuration: hardware
//!   monitor present, requests traverse the multiplexer tree (one packet
//!   per two cycles per node) and auditors enforce isolation;
//! * [`FabricMode::PassThrough`] — the baseline: a single accelerator wired
//!   directly to the shell, injecting one packet per cycle with no tree
//!   latency (virtualized by direct device assignment + vIOMMU).

use crate::accelerator::{AccelPort, Accelerator, CtrlStatus};
use crate::auditor::{AuditVerdict, Auditor};
use crate::mmio;
use crate::mux_tree::{MuxTree, TreeConfig};
use crate::platform::{DeviceIntegrity, FabricError};
use crate::vcu::{Vcu, VcuEffect};
use optimus_cci::channel::SelectorPolicy;
use optimus_cci::host_side::HostSide;
use optimus_cci::packet::{AccelId, DownPacket, UpPacket};
use optimus_cci::params::{PASSTHROUGH_INJECT_INTERVAL, TREE_LEVEL_DOWN_CYCLES};
use optimus_sim::clock::PlatformClock;
use optimus_sim::metrics;
use optimus_sim::queue::TimedQueue;
use optimus_sim::spec;
use optimus_sim::time::{ClockDivider, Cycle};

/// The fabric configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricMode {
    /// OPTIMUS: hardware monitor + multiplexer tree.
    Monitored(TreeConfig),
    /// Direct assignment baseline: one accelerator, no monitor.
    PassThrough,
}

/// The whole simulated FPGA plus its host interconnect.
pub struct FpgaDevice {
    mode: FabricMode,
    now: Cycle,
    accels: Vec<Box<dyn Accelerator>>,
    dividers: Vec<ClockDivider>,
    ports: Vec<AccelPort>,
    auditors: Vec<Auditor>,
    tree: Option<MuxTree>,
    vcu: Vcu,
    host: HostSide,
    down_pipe: TimedQueue<DownPacket>,
    down_latency: Cycle,
    pt_next_inject: Cycle,
    /// Shell scratch registers as a dense arena indexed by device-relative
    /// address (the MMIO-dispatch hot path: one load, no hashing, no
    /// allocation). Absent registers read as 0, like hardware.
    shell_regs: Box<[u64]>,
    dropped_packets: u64,
    fastfwd: bool,
    /// Burst length for batched stepping (see [`Self::run`]); 1 = scan the
    /// event horizon before every stepped cycle (pre-batching behavior).
    batch: Cycle,
    /// Last control status observed per accelerator, for cycle-exact
    /// flight-recorder preemption-phase edges. Only written while
    /// tracing; never feeds back into simulation.
    trace_status: Vec<CtrlStatus>,
}

impl core::fmt::Debug for FpgaDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FpgaDevice")
            .field("mode", &self.mode)
            .field("now", &self.now)
            .field("accels", &self.accels.len())
            .finish()
    }
}

impl FpgaDevice {
    /// Builds an OPTIMUS-configured device with the given accelerators
    /// behind a multiplexer tree of the given arity.
    ///
    /// # Panics
    ///
    /// Panics if `accels` is empty or exceeds the tree's leaf count
    /// assumptions (255 accelerators). Use
    /// [`try_new_monitored`](Self::try_new_monitored) to handle these as
    /// typed errors instead.
    pub fn new_monitored(
        accels: Vec<Box<dyn Accelerator>>,
        arity: usize,
        policy: SelectorPolicy,
    ) -> Self {
        Self::try_new_monitored(accels, arity, policy)
            .unwrap_or_else(|e| panic!("FpgaDevice::new_monitored: {e}"))
    }

    /// Fallible variant of [`new_monitored`](Self::new_monitored):
    /// validates the accelerator list and returns a [`FabricError`]
    /// instead of panicking, so a node constructing many devices can
    /// report which one failed.
    pub fn try_new_monitored(
        accels: Vec<Box<dyn Accelerator>>,
        arity: usize,
        policy: SelectorPolicy,
    ) -> Result<Self, FabricError> {
        if accels.is_empty() {
            return Err(FabricError::NoAccelerators);
        }
        if accels.len() >= 256 {
            return Err(FabricError::TooManyAccelerators { requested: accels.len(), max: 255 });
        }
        let config = TreeConfig {
            leaves: accels.len(),
            arity,
        };
        let levels = config.levels();
        let dividers = accels
            .iter()
            .map(|a| ClockDivider::from_mhz(a.meta().freq_mhz))
            .collect();
        let ports = accels.iter().map(|_| AccelPort::new()).collect();
        let auditors = (0..accels.len())
            .map(|i| Auditor::new(AccelId(i as u8), mmio::accel_mmio_base(i), mmio::ACCEL_PAGE))
            .collect();
        let n = accels.len();
        let trace_status = accels.iter().map(|a| a.status()).collect();
        Ok(Self {
            mode: FabricMode::Monitored(config),
            now: 0,
            accels,
            dividers,
            ports,
            auditors,
            tree: Some(MuxTree::new(config)),
            vcu: Vcu::new(n, levels),
            host: HostSide::new(policy),
            down_pipe: TimedQueue::new(),
            down_latency: TREE_LEVEL_DOWN_CYCLES * levels as u64,
            pt_next_inject: 0,
            shell_regs: vec![0; mmio::SHELL_SIZE as usize].into_boxed_slice(),
            dropped_packets: 0,
            fastfwd: optimus_sim::simrate::fast_forward_enabled(),
            batch: optimus_sim::simrate::DEFAULT_BATCH_STEP,
            trace_status,
        })
    }

    /// Builds a pass-through device: one accelerator, directly assigned.
    pub fn new_passthrough(accel: Box<dyn Accelerator>, policy: SelectorPolicy) -> Self {
        let dividers = vec![ClockDivider::from_mhz(accel.meta().freq_mhz)];
        let trace_status = vec![accel.status()];
        Self {
            mode: FabricMode::PassThrough,
            now: 0,
            accels: vec![accel],
            dividers,
            ports: vec![AccelPort::new()],
            auditors: vec![Auditor::new(
                AccelId(0),
                mmio::accel_mmio_base(0),
                mmio::ACCEL_PAGE,
            )],
            tree: None,
            vcu: Vcu::new(1, 0),
            host: HostSide::new(policy),
            down_pipe: TimedQueue::new(),
            down_latency: 0,
            pt_next_inject: 0,
            shell_regs: vec![0; mmio::SHELL_SIZE as usize].into_boxed_slice(),
            dropped_packets: 0,
            fastfwd: optimus_sim::simrate::fast_forward_enabled(),
            batch: optimus_sim::simrate::DEFAULT_BATCH_STEP,
            trace_status,
        }
    }

    /// The current fabric cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The fabric configuration.
    pub fn mode(&self) -> FabricMode {
        self.mode
    }

    /// Number of physical accelerators.
    pub fn num_accels(&self) -> usize {
        self.accels.len()
    }

    /// The host side (memory, IOMMU, channels).
    pub fn host(&self) -> &HostSide {
        &self.host
    }

    /// Mutable host side (hypervisor memory/IOPT management).
    pub fn host_mut(&mut self) -> &mut HostSide {
        &mut self.host
    }

    /// Accelerator `i`'s DMA port (bandwidth/latency measurement point).
    pub fn port(&self, i: usize) -> &AccelPort {
        &self.ports[i]
    }

    /// Mutable port access (for measurement windows).
    pub fn port_mut(&mut self, i: usize) -> &mut AccelPort {
        &mut self.ports[i]
    }

    /// Accelerator `i` (dynamic).
    pub fn accel(&self, i: usize) -> &dyn Accelerator {
        self.accels[i].as_ref()
    }

    /// Mutable accelerator access (tests and direct configuration).
    pub fn accel_mut(&mut self, i: usize) -> &mut dyn Accelerator {
        self.accels[i].as_mut()
    }

    /// Auditor `i` (discard counters for isolation tests).
    pub fn auditor(&self, i: usize) -> &Auditor {
        &self.auditors[i]
    }

    /// The VCU state.
    pub fn vcu(&self) -> &Vcu {
        &self.vcu
    }

    /// Packets dropped at the shell/auditor layer (bad address or identity).
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// The isolation counters: shell drops plus every auditor's discards.
    pub fn integrity(&self) -> DeviceIntegrity {
        let mut out = DeviceIntegrity { dropped_packets: self.dropped_packets, ..Default::default() };
        for a in &self.auditors {
            let (dma, mmio) = a.discard_counts();
            out.discarded_dma += dma;
            out.discarded_mmio += mmio;
        }
        out
    }

    /// Monotone count of accelerator `slot`'s packets that have cleared
    /// the multiplexer-tree root (0 in pass-through, which has no tree):
    /// the isolation watchdog diffs it across a window to detect
    /// starvation.
    pub fn port_forwarded(&self, slot: usize) -> u64 {
        self.tree.as_ref().map_or(0, |t| t.forwarded_by(slot))
    }

    /// Opens throughput measurement windows on every port.
    pub fn open_windows(&mut self) {
        let now = self.now;
        for p in &mut self.ports {
            p.open_window(now);
        }
    }

    /// Closes throughput measurement windows on every port.
    pub fn close_windows(&mut self) {
        let now = self.now;
        for p in &mut self.ports {
            p.close_window(now);
        }
    }

    /// Advances the machine one fabric cycle.
    pub fn step(&mut self) {
        self.step_inner(optimus_sim::trace::enabled());
    }

    /// The step body with the flight-recorder gate hoisted: batched
    /// stepping ([`step_many`](PlatformClock::step_many)) reads the
    /// thread-local once per burst instead of once per cycle. The gate is
    /// constant within a `run` (workers set it before stepping, callers
    /// between runs), so hoisting cannot change which cycles trace.
    fn step_inner(&mut self, tracing: bool) {
        let now = self.now;

        // 1. Deliver at most one downstream packet.
        if let Some(pkt) = self.down_pipe.pop_ready(now) {
            self.dispatch_down(pkt, now);
        }

        // 2. Rising clock edges.
        for i in 0..self.accels.len() {
            if self.dividers[i].tick(now) {
                self.accels[i].step(now, &mut self.ports[i]);
            }
        }

        // 3. Auditor translation into the fabric.
        match self.mode {
            FabricMode::Monitored(_) => {
                let tree = self.tree.as_mut().expect("monitored mode has a tree");
                for i in 0..self.accels.len() {
                    if self.ports[i].has_pending() && tree.can_accept(i) {
                        let req = self.ports[i].take_pending().expect("pending checked");
                        match self.auditors[i].translate(req) {
                            Ok(pkt) => tree.inject(i, pkt, now),
                            Err((tag, _)) => Self::abort_outbound(
                                &mut self.dropped_packets,
                                &mut self.ports[i],
                                i,
                                tag,
                                now,
                            ),
                        }
                    }
                }
                // 4. Tree arbitration.
                tree.step(now);
                // 5. Shell: root → host (≤ 1 packet/cycle).
                if self.host.can_accept(now) {
                    if let Some(pkt) = tree.pop_root(now) {
                        self.host.submit(pkt, now);
                    }
                }
            }
            FabricMode::PassThrough => {
                // Direct wiring at full rate.
                if now >= self.pt_next_inject
                    && self.ports[0].has_pending()
                    && self.host.can_accept(now)
                {
                    let req = self.ports[0].take_pending().expect("pending checked");
                    match self.auditors[0].translate(req) {
                        Ok(pkt) => {
                            self.host.submit(pkt, now);
                            self.pt_next_inject = now + PASSTHROUGH_INJECT_INTERVAL;
                        }
                        Err((tag, _)) => Self::abort_outbound(
                            &mut self.dropped_packets,
                            &mut self.ports[0],
                            0,
                            tag,
                            now,
                        ),
                    }
                }
            }
        }

        // 6. Host responses enter the downstream pipeline.
        if let Some(pkt) = self.host.pop_response(now) {
            self.down_pipe.push(pkt, now + self.down_latency);
        }

        if tracing {
            self.trace_preempt_phases(now);
        }

        self.now += 1;
    }

    /// Flight-recorder edge detection on accelerator control status:
    /// emits cycle-exact `preempt.save` spans (Saving → Saved) and
    /// restore markers on each accelerator's own track. Read-only with
    /// respect to simulation state.
    fn trace_preempt_phases(&mut self, now: Cycle) {
        use optimus_sim::trace::{self, Track};
        for i in 0..self.accels.len() {
            let status = self.accels[i].status();
            let prev = self.trace_status[i];
            if status == prev {
                continue;
            }
            self.trace_status[i] = status;
            let t = Track::accel(i);
            match (prev, status) {
                (_, CtrlStatus::Saving) => trace::begin(t, "preempt.save", now, &[]),
                (CtrlStatus::Saving, CtrlStatus::Saved) => trace::end(t, "preempt.save", now),
                (CtrlStatus::Saved, CtrlStatus::Running) => {
                    trace::instant(t, "preempt.restore_begin", now, &[])
                }
                _ => trace::instant(t, "ctrl_status", now, &[("status", status as u64)]),
            }
        }
    }

    /// Whether event-horizon fast-forwarding is active on this device.
    pub fn fast_forward_enabled(&self) -> bool {
        self.fastfwd
    }

    /// Overrides the fast-forward mode sampled from `OPTIMUS_NO_FASTFWD` at
    /// construction. Used by the differential equivalence tests to run two
    /// identical devices in opposite modes within one process.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fastfwd = on;
    }

    /// The batched-stepping burst length [`run`](Self::run) uses.
    pub fn batch_step(&self) -> Cycle {
        self.batch
    }

    /// Overrides the burst-length cap set at construction
    /// (`DEFAULT_BATCH_STEP`; 1 disables batching). Used by the differential
    /// equivalence tests to run identical devices batched and unbatched
    /// within one process.
    pub fn set_batch_step(&mut self, k: Cycle) {
        self.batch = k.max(1);
    }

    /// Earliest future cycle at which [`step`](Self::step) can do anything,
    /// or `None` if the whole machine is quiescent until externally poked.
    ///
    /// A cycle may be skipped only if stepping it is provably a pure no-op;
    /// every term below is conservative (`Some(now)` whenever in doubt), so
    /// fast-forward is bit-exact by construction.
    pub fn next_event(&self) -> Option<Cycle> {
        let now = self.now;
        let mut horizon: Option<Cycle> = None;
        let mut merge = |t: Cycle| {
            let t = t.max(now);
            horizon = Some(horizon.map_or(t, |h: Cycle| h.min(t)));
        };

        // 1. Downstream pipeline delivery.
        if let Some(t) = self.down_pipe.next_ready() {
            merge(t);
        }
        // 6. Host responses (DMA completions, CPU MMIO ops in flight).
        if let Some(t) = self.host.next_event(now) {
            merge(t);
        }
        // 4/5. Tree arbitration and root drain.
        if let Some(tree) = self.tree.as_ref() {
            if let Some(t) = tree.next_event(now) {
                merge(t);
            }
        }
        // 2/3. Accelerator edges and auditor forwarding.
        for i in 0..self.accels.len() {
            if self.ports[i].has_pending() {
                // The auditor forwards pending requests every fabric cycle.
                merge(now);
                continue;
            }
            let hint = if self.ports[i].queued_responses() > 0 {
                Some(now)
            } else {
                self.accels[i].next_event(now, &self.ports[i])
            };
            if let Some(t) = hint {
                merge(self.dividers[i].next_edge(t.max(now)));
            }
        }
        horizon
    }

    /// Runs the machine for `cycles` fabric cycles, batching busy
    /// stretches adaptively (bursts grow toward `self.batch` while the
    /// device stays busy, collapse on every skip; see
    /// [`advance_toward_adaptive`](PlatformClock::advance_toward_adaptive)
    /// for the bit-exactness argument). `run` has no per-cycle
    /// observation — nothing outside the device is consulted until it
    /// returns — so it is the one place batching is unconditionally safe.
    pub fn run(&mut self, cycles: Cycle) {
        let end = self.now + cycles;
        let cap = self.batch;
        let mut burst: Cycle = 1;
        while self.now < end {
            self.advance_toward_adaptive(end, &mut burst, cap);
        }
    }

    /// Runs until `predicate` returns true, up to `max_cycles`.
    /// Returns `true` if the predicate fired.
    ///
    /// With fast-forwarding on, the predicate is evaluated only at event
    /// cycles (device state is constant across skipped gaps, so any
    /// state-derived predicate fires at the same cycle either way).
    pub fn run_until(&mut self, max_cycles: Cycle, mut predicate: impl FnMut(&Self) -> bool) -> bool {
        let end = self.now + max_cycles;
        while self.now < end {
            if predicate(self) {
                return true;
            }
            self.advance_toward(end);
        }
        predicate(self)
    }

    /// Retires a request the auditor's outbound window screened off: the
    /// accelerator receives a master-abort response (`data: None`) in the
    /// same cycle, so the wild request cannot dangle in the port's
    /// in-flight table and wedge the preemption drain. The auditor already
    /// counted the discard; the device folds it into its own drop counter
    /// and the metrics plane.
    /// (Associated fn over the disjoint fields so the mux tree can stay
    /// borrowed at the call site.)
    fn abort_outbound(
        dropped_packets: &mut u64,
        port: &mut AccelPort,
        idx: usize,
        tag: optimus_cci::packet::Tag,
        now: Cycle,
    ) {
        *dropped_packets += 1;
        metrics::inc(metrics::FABRIC_AUDITOR_REJECTS, idx as u32, 1);
        port.deliver(tag, None, now);
    }

    fn dispatch_down(&mut self, pkt: DownPacket, now: Cycle) {
        match &pkt {
            DownPacket::DmaReadResp { dst, .. } | DownPacket::DmaAck { dst, .. } => {
                let idx = dst.0 as usize;
                if idx >= self.accels.len() {
                    self.dropped_packets += 1;
                    return;
                }
                match self.auditors[idx].audit(&pkt) {
                    AuditVerdict::DeliverDma { tag, data } => {
                        if !self.ports[idx].deliver(tag, data, now) {
                            // Stale tag (e.g. a response outliving a reset):
                            // the port discarded it, and the discard must
                            // surface in the device's integrity counters
                            // exactly once — it was previously visible only
                            // in the port-local counter, so
                            // `HvStats.discarded_dma` undercounted.
                            self.auditors[idx].count_discarded_dma();
                            self.dropped_packets += 1;
                            metrics::inc(metrics::FABRIC_AUDITOR_REJECTS, idx as u32, 1);
                        }
                    }
                    _ => {
                        self.auditors[idx].count_discarded_dma();
                        self.dropped_packets += 1;
                        metrics::inc(metrics::FABRIC_AUDITOR_REJECTS, idx as u32, 1);
                    }
                }
            }
            DownPacket::MmioWrite { addr, value } => self.mmio_dispatch(*addr, Some(*value), now),
            DownPacket::MmioRead { addr } => self.mmio_dispatch(*addr, None, now),
        }
    }

    fn mmio_dispatch(&mut self, addr: u64, write: Option<u64>, now: Cycle) {
        // Shell region: a direct arena load/store.
        if addr < mmio::SHELL_SIZE {
            match write {
                Some(v) => {
                    self.shell_regs[addr as usize] = v;
                }
                None => {
                    let value = self.shell_regs[addr as usize];
                    self.host.submit(UpPacket::MmioReadResp { addr, value }, now);
                }
            }
            return;
        }
        // VCU page: intercepted before the tree (§4.1).
        if addr >= mmio::VCU_BASE && addr < mmio::VCU_BASE + mmio::VCU_SIZE {
            let offset = addr - mmio::VCU_BASE;
            match write {
                Some(v) => match self.vcu.write(offset, v) {
                    VcuEffect::OffsetUpdated { index } => {
                        self.auditors[index].set_offset(self.vcu.offset(index));
                    }
                    VcuEffect::WindowUpdated { index } => {
                        let (base, len) = self.vcu.window(index);
                        self.auditors[index].set_window(base, len);
                    }
                    VcuEffect::ResetPulsed { index } => self.reset_accel(index),
                    VcuEffect::None | VcuEffect::Ignored => {}
                },
                None => {
                    let value = self.vcu.read(offset);
                    self.host.submit(UpPacket::MmioReadResp { addr, value }, now);
                }
            }
            return;
        }
        // Accelerator pages, gated by the auditors.
        if let Some((idx, _)) = mmio::decode_accel_addr(addr) {
            if idx < self.accels.len() {
                match self.auditors[idx].audit(&match write {
                    Some(value) => DownPacket::MmioWrite { addr, value },
                    None => DownPacket::MmioRead { addr },
                }) {
                    AuditVerdict::DeliverMmio { offset, write: Some(v) } => {
                        if spec::enabled() {
                            spec::check_mmio_deliver(
                                metrics::device_scope(),
                                idx,
                                addr,
                                mmio::accel_mmio_base(idx),
                                mmio::ACCEL_PAGE,
                            );
                        }
                        self.accels[idx].mmio_write(offset, v);
                    }
                    AuditVerdict::DeliverMmio { offset, write: None } => {
                        if spec::enabled() {
                            spec::check_mmio_deliver(
                                metrics::device_scope(),
                                idx,
                                addr,
                                mmio::accel_mmio_base(idx),
                                mmio::ACCEL_PAGE,
                            );
                        }
                        let value = self.accels[idx].mmio_read(offset);
                        self.host.submit(UpPacket::MmioReadResp { addr, value }, now);
                    }
                    _ => {
                        self.auditors[idx].count_discarded_mmio();
                        self.dropped_packets += 1;
                        metrics::inc(metrics::FABRIC_AUDITOR_REJECTS, idx as u32, 1);
                    }
                }
                return;
            }
        }
        // Nothing claimed the address: discard; reads master-abort as !0.
        self.dropped_packets += 1;
        if write.is_none() {
            self.host
                .submit(UpPacket::MmioReadResp { addr, value: u64::MAX }, now);
        }
    }

    /// Pulses accelerator `index`'s reset line: clears its architectural
    /// state, its port, and any of its packets queued in the tree. In-flight
    /// host-side packets return later and are discarded as stale.
    pub fn reset_accel(&mut self, index: usize) {
        self.accels[index].reset();
        self.ports[index].reset();
        if let Some(tree) = self.tree.as_mut() {
            tree.flush_accel(index);
        }
    }

    // ---- CPU-facing MMIO --------------------------------------------------

    /// CPU-side MMIO write (asynchronous: takes effect after the fabric
    /// transport latency).
    pub fn mmio_write(&mut self, addr: u64, value: u64) {
        self.host.inject_mmio_write(addr, value, self.now);
    }

    /// CPU-side blocking MMIO read: steps the device until the response
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if no response arrives within a generous timeout (indicates a
    /// wiring bug, since even discarded reads master-abort).
    pub fn mmio_read(&mut self, addr: u64) -> u64 {
        self.host.inject_mmio_read(addr, self.now);
        let end = self.now + 1_000_000;
        while self.now < end {
            // Poll before stepping: the response surfaces at the cycle it
            // becomes ready, with the same final `now` in both modes (the
            // per-cycle path never executes the step of the ready cycle
            // either, since the old loop checked after incrementing).
            if let Some((raddr, value)) = self.host.take_mmio_response(self.now) {
                debug_assert_eq!(raddr, addr, "interleaved MMIO reads are not supported");
                return value;
            }
            self.advance_toward(end);
        }
        panic!("MMIO read of {addr:#x} never completed");
    }

    /// Test hook: injects an arbitrary downstream packet (e.g. a misrouted
    /// DMA response for isolation testing).
    pub fn inject_down_packet(&mut self, pkt: DownPacket) {
        self.down_pipe.push(pkt, self.now);
    }
}

impl PlatformClock for FpgaDevice {
    fn now(&self) -> Cycle {
        self.now
    }

    fn next_event(&self) -> Option<Cycle> {
        FpgaDevice::next_event(self)
    }

    fn step_cycle(&mut self) {
        self.step();
    }

    fn step_many(&mut self, k: Cycle) {
        // Hoists the flight-recorder gate (and the step-call dispatch) out
        // of the burst loop; otherwise identical to `k` single steps.
        let tracing = optimus_sim::trace::enabled();
        for _ in 0..k {
            self.step_inner(tracing);
        }
    }

    fn skip_to(&mut self, t: Cycle) {
        self.now = t;
    }

    fn fast_forward(&self) -> bool {
        self.fastfwd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::AccelMeta;
    use crate::mmio::vcu_reg;
    use optimus_cci::packet::Tag;

    /// An accelerator that is only present: enough for the shell, VCU
    /// and auditor paths these tests exercise. Kernels that move data
    /// are tested on this device from `optimus-accel`.
    struct Present(AccelMeta);

    impl Accelerator for Present {
        fn meta(&self) -> &AccelMeta {
            &self.0
        }
        fn reset(&mut self) {}
        fn mmio_write(&mut self, _: u64, _: u64) {}
        fn mmio_read(&mut self, _: u64) -> u64 {
            0
        }
        fn step(&mut self, _: Cycle, _: &mut AccelPort) {}
        fn status(&self) -> CtrlStatus {
            CtrlStatus::Idle
        }
    }

    fn device(n: usize) -> FpgaDevice {
        let meta = AccelMeta {
            name: "IDLE",
            description: "present, never runs",
            freq_mhz: 400,
            verilog_loc: 0,
            alm_pct: 0.0,
            bram_pct: 0.0,
            alm_scale8: 8.0,
            bram_scale8: 8.0,
            state_bytes: 0,
            demand: 0.0,
        };
        let accels: Vec<Box<dyn Accelerator>> = (0..n)
            .map(|_| Box::new(Present(meta.clone())) as Box<dyn Accelerator>)
            .collect();
        FpgaDevice::new_monitored(accels, 2, SelectorPolicy::Auto)
    }

    #[test]
    fn vcu_magic_is_readable_over_mmio() {
        let mut dev = device(2);
        let magic = dev.mmio_read(mmio::VCU_BASE + vcu_reg::MAGIC);
        assert_eq!(magic, vcu_reg::MAGIC_VALUE);
        assert_eq!(dev.mmio_read(mmio::VCU_BASE + vcu_reg::NUM_ACCELS), 2);
    }

    #[test]
    fn misrouted_response_is_discarded() {
        let mut dev = device(2);
        dev.inject_down_packet(DownPacket::DmaReadResp {
            data: Box::new([0xEE; 64]),
            dst: optimus_cci::packet::AccelId(1),
            tag: Tag(999),
        });
        dev.run(10);
        // Port 1 had no such outstanding tag: discarded as stale.
        assert_eq!(dev.port(1).stale_discarded(), 1);
        assert_eq!(dev.port(1).byte_counts(), (0, 0));
        // Regression (isolation spec harness): the stale discard must
        // surface in the device's integrity counters exactly once — it
        // used to live only in the port-local counter, so
        // `HvStats.discarded_dma` undercounted stray traffic.
        let integrity = dev.integrity();
        assert_eq!(integrity.discarded_dma, 1);
        assert_eq!(integrity.dropped_packets, 1);
    }

    #[test]
    fn stale_discards_count_exactly_once_under_batched_bursts() {
        // Same stray packet, but delivered mid-burst with batched stepping
        // (the free-running configuration): the accounting in
        // `dispatch_down` must not double- or under-count.
        let mut dev = device(2);
        dev.set_batch_step(64);
        for k in 0..3u32 {
            dev.inject_down_packet(DownPacket::DmaReadResp {
                data: Box::new([0xEE; 64]),
                dst: optimus_cci::packet::AccelId(1),
                tag: Tag(900 + k),
            });
        }
        dev.run(1000);
        assert_eq!(dev.port(1).stale_discarded(), 3);
        let integrity = dev.integrity();
        assert_eq!(integrity.discarded_dma, 3);
        assert_eq!(integrity.dropped_packets, 3);
    }

    #[test]
    fn unclaimed_mmio_read_master_aborts() {
        let mut dev = device(1);
        let value = dev.mmio_read(mmio::accel_mmio_base(5) + 0x40);
        assert_eq!(value, u64::MAX);
        assert!(dev.dropped_packets() > 0);
    }

    #[test]
    fn empty_accelerator_list_is_a_typed_error() {
        let err = FpgaDevice::try_new_monitored(Vec::new(), 2, SelectorPolicy::Auto)
            .expect_err("empty list must fail");
        assert_eq!(err, FabricError::NoAccelerators);
    }

    #[test]
    fn integrity_counters_surface_shell_drops() {
        let mut dev = device(1);
        dev.mmio_read(mmio::accel_mmio_base(5) + 0x40); // master-abort
        let integrity = dev.integrity();
        assert!(integrity.dropped_packets > 0);
        assert_eq!(integrity.discarded_dma, 0);
    }

    #[test]
    fn shell_registers_are_scratch() {
        let mut dev = device(1);
        dev.mmio_write(0x100, 77);
        dev.run(100);
        assert_eq!(dev.mmio_read(0x100), 77);
    }
}
