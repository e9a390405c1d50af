//! Simulated FPGA fabric: shell, hardware monitor, and accelerators.
//!
//! This crate is the FPGA half of the OPTIMUS hardware/software co-design.
//! It models the Arria 10 configuration of Fig. 3 in the paper:
//!
//! ```text
//!            ┌─────────────────────────── Shell ───────────────────────────┐
//!            │  ┌─────────────── Virtualization Control Unit ───────────┐  │
//!            │  │ offset table │ reset table │ config registers         │  │
//!            │  └──────────────────────┬────────────────────────────────┘  │
//!            │                 ┌───────┴────────┐                          │
//!            │                 │ Multiplexer    │  round-robin, 1 packet   │
//!            │                 │ tree (3 levels)│  per 2 cycles per node   │
//!            │                 └──┬──────────┬──┘                          │
//!            │   ┌─Auditor A──────┴─┐  ┌─────┴───Auditor B─┐               │
//!            │   │ GVA→IOVA offset  │  │ accel-ID tag check│               │
//!            │   └──────┬───────────┘  └───────┬───────────┘               │
//!            └──────────┼──────────────────────┼───────────────────────────┘
//!                 Accelerator A           Accelerator B
//! ```
//!
//! * [`accelerator`] — the [`Accelerator`] trait every benchmark
//!   implements, its DMA port, and the control-register protocol of the
//!   preemption interface (§4.2);
//! * [`auditor`] — per-accelerator auditors: page-table-slicing address
//!   translation, accelerator-ID tagging, and discard of misrouted packets;
//! * [`mux_tree`] — the configurable multiplexer tree with round-robin
//!   arbitration (the source of the fairness results in Table 3);
//! * [`vcu`] — the virtualization control unit with its offset and reset
//!   tables;
//! * [`mmio`] — the MMIO address map (§5 "MMIO Slicing");
//! * [`platform`] — [`PlatformDevice`], the device-facing surface the
//!   hypervisor programs against, plus [`DeviceId`] addressing within a
//!   multi-device node and typed construction errors;
//! * [`device`] — [`FpgaDevice`], the cycle-stepped composition of all of
//!   the above plus the host side, in monitored (OPTIMUS) or pass-through
//!   (baseline) mode;
//! * [`resources`] / [`synthesis`] — the FPGA resource accounting and the
//!   synthesis model reproducing Table 2 and the timing-closure constraints
//!   that force a *tree* of multiplexers at 400 MHz.

pub mod accelerator;
pub mod auditor;
pub mod device;
pub mod mmio;
pub mod mux_tree;
pub mod platform;
pub mod resources;
pub mod synthesis;
pub mod vcu;

pub use accelerator::{AccelMeta, AccelPort, AccelResponse, Accelerator, CtrlStatus};
pub use auditor::Auditor;
pub use device::{FabricMode, FpgaDevice};
pub use mux_tree::{MuxTree, TreeConfig};
pub use platform::{DeviceId, DeviceIntegrity, FabricError, PlatformDevice};
pub use vcu::Vcu;
