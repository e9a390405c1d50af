//! Packet vocabulary of the interconnect.
//!
//! CCI-P is a request/response interface: an accelerator sends a request
//! packet and later receives a matching response packet, with many requests
//! in flight at once. Two packet directions exist:
//!
//! * [`UpPacket`] — FPGA → host: DMA read/write requests (carrying IOVAs
//!   after the auditor's page-table-slicing translation) and MMIO read
//!   responses;
//! * [`DownPacket`] — host → FPGA: DMA responses (tagged with the
//!   originating accelerator's [`AccelId`], which the auditors check to
//!   enforce isolation) and MMIO accesses from the CPU.

use optimus_mem::addr::Iova;

/// One DMA payload: a 64-byte cache line.
pub type Line = [u8; 64];

/// Identifies a *physical* accelerator slot on the FPGA (0..8).
///
/// The auditor stamps outgoing DMA requests with its accelerator's ID; the
/// ID is preserved in the response, letting the auditor verify that an
/// incoming DMA packet belongs to its accelerator (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccelId(pub u8);

impl core::fmt::Display for AccelId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "accel{}", self.0)
    }
}

/// A per-accelerator request tag matching responses to requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

/// FPGA → host packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpPacket {
    /// Read one line at `iova`.
    DmaRead {
        /// Post-slicing IO virtual address (line aligned).
        iova: Iova,
        /// Originating accelerator.
        src: AccelId,
        /// Request tag echoed in the response.
        tag: Tag,
    },
    /// Write one line at `iova`.
    DmaWrite {
        /// Post-slicing IO virtual address (line aligned).
        iova: Iova,
        /// Payload.
        data: Box<Line>,
        /// Originating accelerator.
        src: AccelId,
        /// Request tag echoed in the acknowledgment.
        tag: Tag,
    },
    /// Response to a CPU MMIO read.
    MmioReadResp {
        /// The device-relative MMIO address that was read.
        addr: u64,
        /// The value.
        value: u64,
    },
}

impl UpPacket {
    /// The packet's accelerator ID (None for MMIO responses).
    pub fn src(&self) -> Option<AccelId> {
        match self {
            UpPacket::DmaRead { src, .. } | UpPacket::DmaWrite { src, .. } => Some(*src),
            UpPacket::MmioReadResp { .. } => None,
        }
    }

    /// Whether this is a DMA write.
    pub fn is_write(&self) -> bool {
        matches!(self, UpPacket::DmaWrite { .. })
    }
}

/// Host → FPGA packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownPacket {
    /// Data for a previous [`UpPacket::DmaRead`].
    DmaReadResp {
        /// The line read from memory.
        data: Box<Line>,
        /// Destination accelerator (copied from the request's `src`).
        dst: AccelId,
        /// The request's tag.
        tag: Tag,
    },
    /// Data-less completion: acknowledges a previous [`UpPacket::DmaWrite`],
    /// or master-aborts a DMA read or write the IOMMU could not translate.
    DmaAck {
        /// Destination accelerator.
        dst: AccelId,
        /// The request's tag.
        tag: Tag,
    },
    /// CPU MMIO read of a device register.
    MmioRead {
        /// Device-relative MMIO byte address.
        addr: u64,
    },
    /// CPU MMIO write of a device register.
    MmioWrite {
        /// Device-relative MMIO byte address.
        addr: u64,
        /// The 64-bit value written.
        value: u64,
    },
}

impl DownPacket {
    /// The destination accelerator for DMA traffic (None for MMIO, which is
    /// routed by address instead).
    pub fn dst(&self) -> Option<AccelId> {
        match self {
            DownPacket::DmaReadResp { dst, .. } | DownPacket::DmaAck { dst, .. } => Some(*dst),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn up_packet_src_extraction() {
        let read = UpPacket::DmaRead {
            iova: Iova::new(0x40),
            src: AccelId(3),
            tag: Tag(7),
        };
        assert_eq!(read.src(), Some(AccelId(3)));
        assert!(!read.is_write());

        let resp = UpPacket::MmioReadResp { addr: 8, value: 1 };
        assert_eq!(resp.src(), None);
    }

    #[test]
    fn down_packet_dst_extraction() {
        let ack = DownPacket::DmaAck {
            dst: AccelId(1),
            tag: Tag(0),
        };
        assert_eq!(ack.dst(), Some(AccelId(1)));
        assert_eq!(DownPacket::MmioRead { addr: 0 }.dst(), None);
    }

    #[test]
    fn accel_id_displays() {
        assert_eq!(AccelId(5).to_string(), "accel5");
    }

    #[test]
    fn write_packet_reports_write() {
        let w = UpPacket::DmaWrite {
            iova: Iova::new(0),
            data: Box::new([0; 64]),
            src: AccelId(0),
            tag: Tag(1),
        };
        assert!(w.is_write());
    }
}
