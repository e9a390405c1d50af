//! HCDMA: the shell's DMA engine of the host-centric model (Fig. 1).
//!
//! Under the host-centric model (§2.1) the accelerator cannot issue DMAs:
//! the CPU writes a descriptor into memory and rings the engine's doorbell
//! (`CMD_START`), and the engine streams the runs the descriptor names
//! onto the FPGA. The engine is an off-table kind (like
//! [`AccelKind::Wild`](crate::registry::AccelKind::Wild)) so it runs on
//! the same device, the same hypervisor trap path and the same DMA path as
//! every benchmark; only the programming model differs.
//!
//! A descriptor is one line of up to [`HcDmaKernel::RUNS`]
//! `(first line GVA, lines)` pairs, little-endian `u64`s; zero-length runs
//! are skipped. On start the engine fetches the descriptor line, gathers
//! its runs, and is done once every line has arrived. A master-aborted
//! read ends the transfer short, and [`HcDmaKernel::REG_DELIVERED`] says
//! how short.

use crate::harness::Kernel;
use crate::mover::{Gather, Got};
use crate::ser::{Reader, Writer};
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::time::Cycle;

#[derive(Debug)]
enum Phase {
    /// Reading the descriptor line.
    Descriptor(Gather),
    /// Reading the runs it names.
    Transfer(Gather),
    Finished,
}

/// The host-centric DMA engine.
#[derive(Debug)]
pub struct HcDmaKernel {
    meta: AccelMeta,
    desc: u64,
    delivered: u64,
    phase: Phase,
}

impl Default for HcDmaKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl HcDmaKernel {
    /// Register: GVA of the descriptor line.
    pub const REG_DESC: u64 = 0;
    /// Register (read-only): lines the last transfer delivered.
    pub const REG_DELIVERED: u64 = 8;
    /// Runs one descriptor line holds.
    pub const RUNS: usize = 4;

    /// Creates an idle engine.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::HcDma.meta(),
            desc: 0,
            delivered: 0,
            phase: Phase::Finished,
        }
    }

    /// The descriptor line naming `runs` of `(first line GVA, lines)`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`RUNS`](Self::RUNS) runs.
    pub fn descriptor(runs: &[(u64, u64)]) -> [u8; 64] {
        assert!(runs.len() <= Self::RUNS, "a descriptor holds {} runs", Self::RUNS);
        let mut line = [0u8; 64];
        let words = runs.iter().flat_map(|&(gva, lines)| [gva, lines]);
        for (chunk, word) in line.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        line
    }
}

/// The runs a descriptor line names.
fn runs(line: &[u8; 64]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().unwrap());
    line.chunks_exact(16).map(move |run| (word(&run[..8]), word(&run[8..])))
}

impl Kernel for HcDmaKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        if offset == Self::REG_DESC {
            self.desc = value;
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_DESC => self.desc,
            Self::REG_DELIVERED => self.delivered,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.delivered = 0;
        self.phase = Phase::Descriptor(Gather::of_lines(&[self.desc]));
    }

    fn done(&self) -> bool {
        matches!(self.phase, Phase::Finished)
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        match &mut self.phase {
            Phase::Descriptor(fetch) => match fetch.poll(port, now, 1) {
                Got::Pending => {}
                Got::Aborted => self.phase = Phase::Finished,
                Got::Lines => self.phase = Phase::Transfer(Gather::new(runs(fetch.line(0)))),
            },
            // The port's own bound is the only window: the engine streams
            // at the rate the shell takes its reads.
            Phase::Transfer(fetch) => match fetch.poll(port, now, usize::MAX) {
                Got::Pending => {}
                Got::Lines | Got::Aborted => {
                    self.delivered = fetch.arrived();
                    self.phase = Phase::Finished;
                }
            },
            Phase::Finished => {}
        }
    }

    /// Reads have no side effects, so a preempted transfer restarts from
    /// its descriptor on resume; only a finished one keeps its count.
    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.desc).u64(self.delivered).u64(self.done() as u64);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        let (desc, delivered, finished) = (r.u64()?, r.u64()?, r.u64()?);
        self.desc = desc;
        match finished {
            0 => self.start(),
            1 => {
                self.delivered = delivered;
                self.phase = Phase::Finished;
            }
            _ => return None,
        }
        Some(())
    }

    fn reset(&mut self) {
        *self = HcDmaKernel::new();
    }

    /// An event only while a read is waiting for the port: the harness
    /// already wakes the kernel for every queued response.
    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        match &self.phase {
            Phase::Descriptor(fetch) | Phase::Transfer(fetch) => {
                (fetch.wants_issue() && port.can_issue()).then_some(now)
            }
            Phase::Finished => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    /// Runs a transfer of `runs` whose descriptor sits at GVA 0 against a
    /// memory that master-aborts from `window` on; returns the lines it
    /// delivered.
    fn transfer(runs: &[(u64, u64)], window: u64) -> u64 {
        let mut acc = Harnessed::new(HcDmaKernel::new());
        let mut rig = Rig::new(HcDmaKernel::descriptor(runs).to_vec());
        rig.window = window;
        rig::start(&mut acc, &[(HcDmaKernel::REG_DESC, 0)]);
        rig.finish(&mut acc, 100_000);
        acc.mmio_read(accel_reg::APP_BASE + HcDmaKernel::REG_DELIVERED)
    }

    #[test]
    fn gathers_every_run_the_descriptor_names() {
        assert_eq!(transfer(&[(0x1000, 3), (0x8000, 0), (0x4000, 5)], u64::MAX), 8);
        assert_eq!(transfer(&[], u64::MAX), 0);
    }

    #[test]
    fn an_aborted_read_ends_the_transfer_short() {
        // The second run crosses the window: its lines past it abort.
        let delivered = transfer(&[(0x1000, 4), (0x7f00, 8)], 0x8000);
        assert!((4..12).contains(&delivered), "delivered {delivered}");
        // A descriptor outside the window transfers nothing.
        let mut acc = Harnessed::new(HcDmaKernel::new());
        let mut rig = Rig::new(Vec::new());
        rig.window = 0;
        rig::start(&mut acc, &[(HcDmaKernel::REG_DESC, 0x40)]);
        rig.finish(&mut acc, 1_000);
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE + HcDmaKernel::REG_DELIVERED), 0);
    }

    #[test]
    fn a_preempted_transfer_restarts_and_delivers_every_line() {
        let mut acc = Harnessed::new(HcDmaKernel::new());
        let mut rig = Rig::new(HcDmaKernel::descriptor(&[(0x1000, 4000)]).to_vec());
        rig::start(&mut acc, &[(HcDmaKernel::REG_DESC, 0)]);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x100_000);
        // The descriptor, then the first of the runs' reads.
        rig.run(&mut acc, 3);
        assert!(!acc.is_done());
        rig.preempt_resume(&mut acc, HcDmaKernel::new());
        rig.finish(&mut acc, 100_000);
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE + HcDmaKernel::REG_DELIVERED), 4000);
    }
}
