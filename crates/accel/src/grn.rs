//! The GRN benchmark: a Gaussian random number generator.
//!
//! A pure *producer*: no input stream, just lines of Q16.16 unit-normal
//! samples (sixteen per line) written to the destination. The Irwin–Hall
//! 12-sum construction is compute-heavy per sample relative to the
//! bandwidth it produces, so the kernel's DMA demand is tiny — which is why
//! a co-located MemBench keeps its full bandwidth (Table 4, 1.00×) and why
//! GRN scales essentially linearly in Fig. 7.

use crate::harness::Kernel;
use crate::mover::line;
use crate::ser::{Reader, Writer};
use crate::stream::Pacer;
use optimus_algo::gaussian::CltGaussian;
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::rng::Xoshiro256;
use optimus_sim::time::Cycle;

/// Cycles per produced line at 200 MHz (16 samples × 12 uniform draws
/// each, time-multiplexed through a few adders ⇒ ~50 cycles).
const LINE_COST: f64 = 50.0;

/// The Gaussian generator kernel.
#[derive(Debug)]
pub struct GrnKernel {
    meta: AccelMeta,
    dst: u64,
    lines: u64,
    produced: u64,
    acked: u64,
    generator: CltGaussian,
    default_seed: u64,
    pacer: Pacer,
}

impl GrnKernel {
    /// Register: destination GVA.
    pub const REG_DST: u64 = 8;
    /// Register: lines to produce.
    pub const REG_LINES: u64 = 16;
    /// Register: generator seed.
    pub const REG_SEED: u64 = 24;

    /// Creates an idle kernel with a default seed.
    pub fn new(seed: u64) -> Self {
        Self {
            meta: crate::registry::AccelKind::Grn.meta(),
            dst: 0,
            lines: 0,
            produced: 0,
            acked: 0,
            generator: CltGaussian::new(seed),
            default_seed: seed,
            pacer: Pacer::new(),
        }
    }
}

impl Kernel for GrnKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_DST => self.dst = value,
            Self::REG_LINES => self.lines = value,
            Self::REG_SEED => {
                self.default_seed = value;
                self.generator = CltGaussian::new(value);
            }
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_DST => self.dst,
            Self::REG_LINES => self.lines,
            Self::REG_SEED => self.default_seed,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.produced = 0;
        self.acked = 0;
        self.generator = CltGaussian::new(self.default_seed);
        self.pacer.reset();
    }

    fn done(&self) -> bool {
        self.produced >= self.lines && self.acked >= self.produced
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        self.pacer.tick(2.0 * LINE_COST);
        while port.pop_response().is_some() {
            self.acked += 1;
        }
        if self.produced < self.lines && port.can_issue() && self.pacer.try_spend(LINE_COST) {
            let mut out = [0u8; 64];
            self.generator.fill_line(&mut out);
            port.write(line(self.dst, self.produced), Box::new(out), now);
            self.produced += 1;
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.dst).u64(self.lines).u64(self.produced).u64(self.default_seed);
        for word in self.generator.rng_state().state() {
            w.u64(word);
        }
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.dst = r.u64()?;
        self.lines = r.u64()?;
        self.produced = r.u64()?;
        self.default_seed = r.u64()?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        self.generator = CltGaussian::new(0);
        self.generator.restore(Xoshiro256::from_state(state));
        self.acked = self.produced; // drained before save
        self.pacer.reset();
        Some(())
    }

    fn reset(&mut self) {
        *self = GrnKernel::new(self.default_seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    /// Runs a `lines`-line job of a generator seeded `seed`, preempted after
    /// `preempt_at` cycles if given; returns the rig and the finish cycle.
    fn generate(seed: u64, lines: u64, preempt_at: Option<Cycle>) -> (Rig, Cycle) {
        let mut acc = Harnessed::new(GrnKernel::new(seed));
        let mut rig = Rig::new(Vec::new());
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x20000);
        rig::start(
            &mut acc,
            &[(GrnKernel::REG_DST, 0), (GrnKernel::REG_LINES, lines)],
        );
        if let Some(cycles) = preempt_at {
            rig.run(&mut acc, cycles);
            rig.preempt_resume(&mut acc, GrnKernel::new(999));
        }
        let finished = rig.finish(&mut acc, 1_000_000);
        (rig, finished)
    }

    #[test]
    fn produces_unit_normals() {
        let lines = 2000u64;
        let (rig, _) = generate(9, lines, None);
        let samples: Vec<f64> = rig.mem[..(lines * 64) as usize]
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()) as f64 / 65536.0)
            .collect();
        let (mean, var) = optimus_algo::gaussian::moments(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.04, "variance {var}");
    }

    #[test]
    fn preempt_resume_continues_the_stream() {
        // The resumed stream must equal an uninterrupted run bit-for-bit
        // (the RNG state is the architectural state).
        let out = |preempt_at| generate(33, 64, preempt_at).0.mem[..64 * 64].to_vec();
        assert_eq!(out(None), out(Some(800)));
    }

    #[test]
    fn demand_is_low() {
        // ~1 write per 50 cycles: a 2 % share of the monitor's slots.
        let per_line = generate(1, 100, None).1 as f64 / 100.0;
        assert!((48.0..55.0).contains(&per_line), "paced at {per_line}");
    }
}
