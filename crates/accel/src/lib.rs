//! The fourteen OPTIMUS benchmark accelerators (Table 1 of the paper).
//!
//! Every benchmark is a cycle-stepped simulated FPGA accelerator that
//! performs its *real* computation (via `optimus-algo`) on cache lines
//! moved over the simulated interconnect, so end-to-end runs through the
//! hypervisor produce checkable results, not synthetic byte counts.
//!
//! Three pieces of shared machinery keep the kernels small:
//!
//! * [`harness`] — the control-register state machine of the preemption
//!   interface (§4.2), generic over a [`Kernel`]: start, drain, save
//!   state via DMA writes, resume via DMA reads. It is the only decoder of
//!   the `CMD_*` commands, and a kernel's `serialize`/`restore` is all the
//!   preemption surface it has;
//! * the crate-private line mover — one gather of runs of lines (each
//!   response placed by tag, an abort ending it once its reads in flight
//!   return) and one scatter of lines (done when every line is acked),
//!   shared by the harness's save and restore, SSSP's fetches and
//!   write-back, BTC's header fetch and the host-centric engine, plus the one wrapping line-address adder every kernel
//!   computes its line GVAs with;
//! * [`stream`] — a read-ahead engine with in-order retirement, and the
//!   [`StreamShell`](stream::StreamShell) around it (SRC/DST/LINES
//!   registers, pacer, blob prefix) that every streaming benchmark (AES,
//!   MD5, SHA, FIR, the image filters, Reed–Solomon, Smith–Waterman)
//!   is built from. In-order retirement is what makes preemption sound:
//!   saved progress is always a prefix. A master-aborted read ends a
//!   stream short, so a wild source pointer ends its job instead of
//!   stalling it.
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
//! | [`wild`] | WildDma: adversarial isolation prober (off-table) |
//! | [`hc_dma`] | the host-centric model's shell DMA engine (off-table, Fig. 1) |
//! | [`registry`] | name → accelerator factory + the Table 1/2 metadata |

pub mod aes;
pub mod btc;
pub mod fir;
pub mod grn;
pub mod harness;
pub mod hash;
pub mod hc_dma;
pub mod image;
pub mod linked_list;
pub mod membench;
mod mover;
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

/// The one memory every unit test serves a kernel's port from.
#[cfg(test)]
mod rig {
    use crate::harness::{Harnessed, Kernel};
    use optimus_fabric::accelerator::{AccelPort, Accelerator, CtrlStatus};
    use optimus_fabric::mmio::accel_reg;
    use optimus_sim::time::Cycle;

    /// A port wired to a memory that answers every request in the cycle
    /// it was issued.
    pub struct Rig {
        pub port: AccelPort,
        /// Backing store indexed by GVA: it grows as writes land, and
        /// reads past its end return zeros.
        pub mem: Vec<u8>,
        /// The next cycle to step.
        pub now: Cycle,
        /// Requests at or above this GVA master-abort, as outside an
        /// auditor window.
        pub window: u64,
    }

    impl Rig {
        pub fn new(mem: Vec<u8>) -> Self {
            Self {
                port: AccelPort::new(),
                mem,
                now: 0,
                window: u64::MAX,
            }
        }

        /// Answers every request the port holds.
        pub fn serve(&mut self) {
            while let Some(req) = self.port.take_pending() {
                let base = req.gva.raw();
                let data = if base >= self.window {
                    None
                } else {
                    let base = base as usize;
                    if self.mem.len() < base + 64 {
                        self.mem.resize(base + 64, 0);
                    }
                    let line = &mut self.mem[base..base + 64];
                    match req.write {
                        Some(data) => {
                            line.copy_from_slice(&data[..]);
                            None
                        }
                        None => Some(Box::new(<[u8; 64]>::try_from(&*line).unwrap())),
                    }
                };
                self.port.deliver(req.tag, data, self.now);
            }
        }

        /// Steps `acc` for `cycles` cycles, serving its port after each.
        pub fn run(&mut self, acc: &mut dyn Accelerator, cycles: Cycle) {
            for _ in 0..cycles {
                acc.step(self.now, &mut self.port);
                self.serve();
                self.now += 1;
            }
        }

        /// Steps `acc` until `stop` holds after a cycle, and returns that
        /// cycle; panics once `limit` cycles have passed.
        pub fn run_until<A: Accelerator>(
            &mut self,
            acc: &mut A,
            limit: Cycle,
            stop: impl Fn(&A) -> bool,
        ) -> Cycle {
            let end = self.now + limit;
            while self.now < end {
                self.run(acc, 1);
                if stop(acc) {
                    return self.now - 1;
                }
            }
            panic!("{} never got there in {limit} cycles", acc.meta().name);
        }

        /// Runs the job until it is done; returns the cycle it finished in.
        pub fn finish<A: Accelerator>(&mut self, acc: &mut A, limit: Cycle) -> Cycle {
            self.run_until(acc, limit, |a| a.is_done())
        }

        /// Preempts the job, waits for its state to be saved, puts `other`
        /// in its place (as if another tenant had used the slot) and
        /// resumes.
        pub fn preempt_resume<K: Kernel>(&mut self, acc: &mut Harnessed<K>, other: K) {
            acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_PREEMPT);
            self.run_until(acc, 100_000, |a| a.status() == CtrlStatus::Saved);
            *acc.kernel_mut() = other;
            acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
        }
    }

    /// Programs `acc`'s application registers and starts its job.
    pub fn start(acc: &mut dyn Accelerator, regs: &[(u64, u64)]) {
        for &(reg, value) in regs {
            acc.mmio_write(accel_reg::APP_BASE + reg, value);
        }
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
}
