//! The device-facing surface the hypervisor programs against.
//!
//! `Optimus` historically owned one concrete
//! [`FpgaDevice`](crate::device::FpgaDevice) and reached into it directly.
//! The node layer (multiple devices behind one hypervisor facade) needs
//! that surface named: [`PlatformDevice`] is the
//! exact set of operations the hypervisor uses — MMIO, bulk advance,
//! the `next_event` protocol (inherited from
//! [`PlatformClock`]), host-memory
//! access for page installs, preempt/reset, and stats drain. Each device
//! in a node is addressed by a [`DeviceId`], and construction failures
//! surface as typed [`FabricError`]s instead of bare panics.

use crate::accelerator::CtrlStatus;
use optimus_cci::host_side::HostSide;
use optimus_sim::clock::PlatformClock;
use optimus_sim::time::Cycle;

/// Identifies one device within a node. Single-device deployments use
/// `DeviceId(0)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl core::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "fpga{}", self.0)
    }
}

/// Typed construction errors for fabric devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A device needs at least one accelerator behind the monitor.
    NoAccelerators,
    /// The multiplexer tree addresses accelerators with an 8-bit ID.
    TooManyAccelerators {
        /// How many accelerators the caller asked for.
        requested: usize,
        /// The hardware limit.
        max: usize,
    },
}

impl core::fmt::Display for FabricError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FabricError::NoAccelerators => {
                write!(f, "device needs at least one accelerator")
            }
            FabricError::TooManyAccelerators { requested, max } => {
                write!(f, "device supports at most {max} accelerators, got {requested}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Isolation/robustness counters a device accumulates while running:
/// packets dropped at the shell and per-auditor discard totals. Drained
/// into `HvStats` so violations are visible in benchmark reports instead
/// of stranded on the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceIntegrity {
    /// Packets dropped at the shell/auditor layer (bad address or identity).
    pub dropped_packets: u64,
    /// DMA responses the auditors discarded (failed identity audit).
    pub discarded_dma: u64,
    /// MMIO accesses the auditors discarded (outside the slice window).
    pub discarded_mmio: u64,
}

/// The device operations the hypervisor uses, abstracted over the
/// concrete fabric so a node can own many devices (and tests can
/// substitute instrumented ones).
///
/// Clocking — `now`, `next_event`, fast-forward — comes from the
/// [`PlatformClock`] supertrait; this trait adds the control plane. The
/// `Send` supertrait is what lets a node step devices on worker threads.
pub trait PlatformDevice: PlatformClock + Send {
    /// Runs the device for `cycles` fabric cycles.
    fn run(&mut self, cycles: Cycle);

    /// CPU-side blocking MMIO read (steps the device until the response
    /// returns).
    fn mmio_read(&mut self, addr: u64) -> u64;

    /// CPU-side MMIO write (takes effect after the transport latency).
    fn mmio_write(&mut self, addr: u64, value: u64);

    /// Number of physical accelerator slots.
    fn num_accels(&self) -> usize;

    /// Side-effect-free peek at a slot's application register (offset
    /// relative to `APP_BASE`), mirroring
    /// [`Accelerator::peek_reg`](crate::accelerator::Accelerator::peek_reg).
    /// The hypervisor harvests a completed tenant's result registers with
    /// this when the slot is handed to another vaccel.
    fn peek_app_reg(&self, slot: usize, offset: u64) -> u64 {
        let _ = (slot, offset);
        0
    }

    /// Control status of the accelerator in `slot`.
    fn accel_status(&self, slot: usize) -> CtrlStatus;

    /// Pulses `slot`'s reset line (forced preemption).
    fn reset_accel(&mut self, slot: usize);

    /// Device-side contract for detaching a tenant from `slot` (migration
    /// off this device): scrub any datapath state the outgoing tenant left
    /// behind, the same isolation hygiene §4.1 requires on a VM context
    /// switch. The default is a reset pulse; devices with extra per-slot
    /// state override this.
    fn detach_slot(&mut self, slot: usize) {
        self.reset_accel(slot);
    }

    /// The host side (memory, IOMMU, channels).
    fn host(&self) -> &HostSide;

    /// Mutable host side (page installs, IOPT management).
    fn host_mut(&mut self) -> &mut HostSide;

    /// Drains the device's isolation counters.
    fn integrity(&self) -> DeviceIntegrity;

    /// Monotone count of packets from accelerator `slot` that have
    /// cleared the multiplexer-tree root. Deterministic device-owned
    /// state the isolation watchdog diffs across its window for
    /// starvation detection; devices without a tree (pass-through)
    /// report 0.
    fn port_forwarded(&self, slot: usize) -> u64 {
        let _ = slot;
        0
    }

    /// Overrides the fast-forward mode sampled at construction.
    fn set_fast_forward(&mut self, on: bool);

    /// Overrides the batched-stepping burst length sampled at
    /// construction (1 disables batching). Devices that never batch may
    /// ignore it.
    fn set_batch_step(&mut self, k: Cycle) {
        let _ = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_id_displays_as_fpga_index() {
        assert_eq!(DeviceId(3).to_string(), "fpga3");
        assert!(DeviceId(0) < DeviceId(1));
    }

    #[test]
    fn fabric_error_messages_name_the_cause() {
        assert!(FabricError::NoAccelerators.to_string().contains("at least one"));
        let e = FabricError::TooManyAccelerators { requested: 300, max: 255 };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("255"));
    }
}
