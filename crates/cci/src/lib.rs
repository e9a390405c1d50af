//! CCI-P-like CPU–FPGA interconnect model.
//!
//! Intel HARP's shell exposes the Core Cache Interface (CCI-P): a
//! request/response interface over which an accelerator reads and writes
//! 64-byte cache lines of *system* memory, encapsulating one UPI link and
//! two PCIe 3.0 links. This crate models the host side of that interface:
//!
//! * [`packet`] — the request/response packet vocabulary;
//! * [`params`] — every calibration constant of the performance model, with
//!   the derivation of each number from the paper's measurements;
//! * [`channel`] — the UPI/PCIe channel models and the channel selector
//!   (HARP's selector is throughput-optimized, which is why the paper pins
//!   the latency-sensitive LinkedList benchmark to one channel);
//! * [`host_side`] — the composite host model: channels → IOMMU → DRAM
//!   service, producing timed responses. Every DMA of every programming
//!   model goes through it: the host-centric baseline of Fig. 1 is a
//!   shell DMA engine on the same device (`optimus_accel::hc_dma`).

pub mod channel;
pub mod host_side;
pub mod packet;
pub mod params;

pub use channel::{Channel, ChannelKind, SelectorPolicy};
pub use host_side::HostSide;
pub use packet::{AccelId, DownPacket, Line, Tag, UpPacket};
