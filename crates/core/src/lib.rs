//! OPTIMUS: a hypervisor for shared-memory FPGA platforms.
//!
//! This crate is the reproduction's core contribution — the software half
//! of the paper's hardware/software co-design. It implements:
//!
//! * **Spatial multiplexing** — one VM per physical accelerator on an
//!   OPTIMUS-configured FPGA, with MMIO trap-and-emulate and per-accelerator
//!   DMA isolation;
//! * **Page table slicing** (§4.1) — every virtual accelerator's DMA
//!   region is a 64 GB slice of the single IO virtual address space, offset
//!   by an extra 128 MB per slice to keep IOTLB set indices from colliding
//!   (§5, "IOTLB Conflict Mitigation"); the hypervisor programs the
//!   hardware monitor's offset table accordingly;
//! * **Shadow paging** (§5) — a hypercall-style page-registration interface:
//!   the guest driver reports (GVA, GPA) pairs, and the hypervisor verifies
//!   them against the guest page table, pins the backing frame, and installs
//!   the IOVA→HPA mapping in the IO page table;
//! * **Preemptive temporal multiplexing** (§4.2) — multiple virtual
//!   accelerators per physical accelerator, scheduled in 10 ms slices
//!   under round-robin, weighted, or priority policies, using the
//!   accelerator preemption interface (with a forced-reset timeout);
//! * **Baselines** — pass-through (direct assignment + vIOMMU) and the
//!   host-centric programming model of Fig. 1.
//!
//! | Module | Contents |
//! |---|---|
//! | [`alloc`] | host physical frame allocator |
//! | [`vm`] | virtual machines: guest page table + EPT |
//! | [`slicing`] | the 64 GB + 128 MB slice layout |
//! | [`vaccel`] | virtual accelerator (mdev) state |
//! | [`scheduler`] | temporal multiplexing policies |
//! | [`hypervisor`] | [`Optimus`] itself + the guest API ([`GuestCtx`]), one submodule per kind of state: `sched` (slot residency, Fig. 8 preemption), `iopt` (the one IO page table walker), `shares` (the FF-A handle table), `migrate` (`TenantState`), `live_update` (`freeze` / `thaw`), `guest` (the trap path) |
//! | [`snapshot`] | [`HvSnapshot`](snapshot::HvSnapshot): the versioned live-update format — the `Wire` encoding of the model records, and `validate` |
//! | [`node`] | [`OptimusNode`]: multi-FPGA placement + parallel stepping |
//! | [`watchdog`] | isolation watchdogs: starvation / IOTLB-thrash / preemption-overrun alerts |
//! | [`hostcentric`] | the host-centric DMA-engine baseline (Fig. 1) |
//!
//! # Example
//!
//! One VM hashing a buffer through the full virtualized stack:
//!
//! ```
//! use optimus::hypervisor::{Optimus, OptimusConfig};
//! use optimus_accel::registry::AccelKind;
//! use optimus_accel::hash::reg;
//! use optimus_fabric::mmio::accel_reg;
//!
//! let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5]));
//! let vm = hv.create_vm("tenant");
//! let va = hv.create_vaccel(vm, 0);
//!
//! let data = vec![7u8; 4096];
//! let (src, dst);
//! {
//!     let mut guest = hv.guest(va);
//!     src = guest.alloc_dma(4096);
//!     dst = guest.alloc_dma(4096);
//!     guest.write_mem(src, &data);
//!     guest.mmio_write(accel_reg::APP_BASE + reg::SRC, src.raw());
//!     guest.mmio_write(accel_reg::APP_BASE + reg::DST, dst.raw());
//!     guest.mmio_write(accel_reg::APP_BASE + reg::LINES, 64);
//!     guest.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
//! }
//! assert!(hv.run_until_done(va, 100_000_000));
//!
//! let mut digest = vec![0u8; 16];
//! hv.guest(va).read_mem(dst, &mut digest);
//! assert_eq!(digest, optimus_algo::md5::md5(&data).to_vec());
//! ```

pub mod alloc;
pub mod hostcentric;
pub mod hypervisor;
pub mod node;
pub mod scheduler;
pub mod slicing;
pub mod snapshot;
pub mod vaccel;
pub mod vm;
pub mod watchdog;

pub use hypervisor::{GuestCtx, Optimus, OptimusConfig, TrapCost};
pub use node::{NodeConfig, NodeError, NodeVaccel, OptimusNode, Placement};
pub use scheduler::SchedPolicy;
pub use slicing::SlicingConfig;
pub use watchdog::{AlertKind, IsolationAlert, WatchdogConfig};
