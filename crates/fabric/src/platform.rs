//! Device naming and device-level reports: each device in a node is
//! addressed by a [`DeviceId`], construction failures surface as typed
//! [`FabricError`]s instead of bare panics, and [`DeviceIntegrity`] is what
//! [`FpgaDevice::integrity`](crate::device::FpgaDevice::integrity) reports.

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
