//! The fourteen OPTIMUS benchmark accelerators (Table 1 of the paper).
//!
//! Every benchmark is a cycle-stepped simulated FPGA accelerator that
//! performs its *real* computation (via `optimus-algo`) on cache lines
//! moved over the simulated interconnect, so end-to-end runs through the
//! hypervisor produce checkable results, not synthetic byte counts.
//!
//! Two pieces of shared machinery keep the kernels small:
//!
//! * [`harness`] — the control-register state machine of the preemption
//!   interface (§4.2), generic over a [`Kernel`](harness::Kernel): start,
//!   drain, save state via DMA writes, resume via DMA reads;
//! * [`stream`] — a read-ahead engine with in-order retirement, the
//!   structure every streaming benchmark (AES, MD5, SHA, FIR, the image
//!   filters, Reed–Solomon, Smith–Waterman) shares. In-order retirement is
//!   what makes preemption sound: saved progress is always a prefix.
//!
//! | Module | Benchmarks |
//! |---|---|
//! | [`aes`] | AES-128 ECB streaming encryptor |
//! | [`hash`] | MD5 and SHA-512 streaming hashers |
//! | [`fir`] | fixed-point FIR filter |
//! | [`grn`] | Gaussian random number generator (write-only) |
//! | [`rsd`] | Reed–Solomon decoder |
//! | [`sw`] | Smith–Waterman scorer |
//! | [`image`] | Gaussian blur, grayscale, Sobel |
//! | [`sssp`] | single-source shortest path (pointer chasing) |
//! | [`btc`] | double-SHA-256 bitcoin miner (compute-bound) |
//! | [`membench`] | MemBench: random DMA generator (preemptible) |
//! | [`linked_list`] | LinkedList: dependent-load walker (preemptible) |
//! | [`registry`] | name → accelerator factory + the Table 1/2 metadata |

pub mod aes;
pub mod btc;
pub mod fir;
pub mod grn;
pub mod harness;
pub mod hash;
pub mod image;
pub mod linked_list;
pub mod membench;
pub mod registry;
pub mod rsd;
pub mod ser;
pub mod sssp;
pub mod stream;
pub mod sw;
pub mod wild;

pub use harness::{Harnessed, Kernel};
pub use registry::{build_accelerator, AccelKind};

/// The device's on-chip RAM: every M20K block, 2,560 bytes each (≈ 6.9 MB).
/// What a kernel keeps on chip is bounded by it, so a guest-written size
/// can never size a host allocation beyond it.
const ONCHIP_RAM_BYTES: u64 = optimus_fabric::resources::TOTAL_BRAMS * 2_560;
