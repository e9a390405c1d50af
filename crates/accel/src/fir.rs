//! The FIR benchmark: a fixed-point finite impulse response filter.
//!
//! Streams 16-bit samples (32 per line), convolves them with a
//! 31-tap windowed-sinc low-pass filter, and writes filtered lines to the
//! destination. The filter history (previous 30 samples) is the carried
//! architectural state — exactly what a systolic shift-register pipeline
//! would hold, and exactly what must be saved on preemption.

use crate::harness::Kernel;
use crate::ser::{Reader, Writer};
use crate::stream::StreamShell;
use optimus_algo::fir::FirFilter;
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::time::Cycle;

/// Taps in the synthesized filter.
const TAPS: usize = 31;
/// Per-line cost in 200 MHz cycles (read + write per line ⇒ 0.25 demand).
const LINE_COST: f64 = 8.0;

/// The FIR streaming kernel.
#[derive(Debug)]
pub struct FirKernel {
    meta: AccelMeta,
    shell: StreamShell,
    filter: FirFilter,
    /// The last `TAPS - 1` input samples (shift-register state).
    history: Vec<i16>,
}

impl Default for FirKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl FirKernel {
    /// Register: source GVA.
    pub const REG_SRC: u64 = StreamShell::REG_SRC;
    /// Register: destination GVA.
    pub const REG_DST: u64 = StreamShell::REG_DST;
    /// Register: line count.
    pub const REG_LINES: u64 = StreamShell::REG_LINES;

    /// Creates an idle kernel with the synthesized 31-tap low-pass filter.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Fir.meta(),
            shell: StreamShell::new(),
            filter: FirFilter::low_pass(TAPS, 0.25),
            history: Vec::new(),
        }
    }

    /// Filters one line of 32 samples, updating the history.
    fn filter_line(&mut self, line: &[u8; 64]) -> [u8; 64] {
        let mut out = [0u8; 64];
        for i in 0..32 {
            let sample = i16::from_le_bytes([line[2 * i], line[2 * i + 1]]);
            // Direct-form convolution over history ‖ current sample.
            let mut acc: i64 = self.filter.taps()[0] as i64 * sample as i64;
            for (k, &tap) in self.filter.taps().iter().enumerate().skip(1) {
                if let Some(&past) = self.history.get(self.history.len().wrapping_sub(k)) {
                    acc += tap as i64 * past as i64;
                }
            }
            let y = ((acc + (1 << 14)) >> 15).clamp(i16::MIN as i64, i16::MAX as i64) as i16;
            out[2 * i..2 * i + 2].copy_from_slice(&y.to_le_bytes());
            self.history.push(sample);
            if self.history.len() > TAPS - 1 {
                self.history.remove(0);
            }
        }
        out
    }
}

impl Kernel for FirKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        self.shell.write_reg(offset, value);
    }

    fn read_reg(&self, offset: u64) -> u64 {
        self.shell.read_reg(offset)
    }

    fn start(&mut self) {
        self.history.clear();
        self.shell.start_at(0);
    }

    fn done(&self) -> bool {
        self.shell.engine.input_exhausted() && self.shell.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        self.shell.pump(2.0 * LINE_COST, now, port);
        while self.shell.engine.has_next()
            && port.can_issue()
            && self.shell.pacer.try_spend(LINE_COST)
        {
            let (idx, line) = self.shell.engine.next_line().expect("has_next checked");
            let out = self.filter_line(&line);
            self.shell.write_line(idx, out, now, port);
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.shell.save(&mut w);
        w.u64(self.shell.engine.consumed());
        let mut hist = Vec::with_capacity(self.history.len() * 2);
        for s in &self.history {
            hist.extend_from_slice(&s.to_le_bytes());
        }
        w.bytes(&hist);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.shell.load(&mut r)?;
        let cursor = r.u64()?;
        let hist = r.bytes()?;
        if hist.len() > 2 * (TAPS - 1) {
            return None; // longer than the shift register
        }
        self.history = hist
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect();
        self.shell.start_at(cursor);
        Some(())
    }

    fn reset(&mut self) {
        *self = FirKernel::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    /// Filters `samples` from 0x1000 into `dst`, preempted after
    /// `preempt_at` cycles if given; returns the filtered samples.
    fn filter(samples: &[i16], dst: usize, preempt_at: Option<Cycle>) -> Vec<i16> {
        let mut acc = Harnessed::new(FirKernel::new());
        let mut mem = vec![0u8; 0x1000];
        mem.extend(samples.iter().flat_map(|s| s.to_le_bytes()));
        let mut rig = Rig::new(mem);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x20000);
        rig::start(
            &mut acc,
            &[
                (FirKernel::REG_SRC, 0x1000),
                (FirKernel::REG_DST, dst as u64),
                (FirKernel::REG_LINES, samples.len() as u64 / 32),
            ],
        );
        if let Some(cycles) = preempt_at {
            rig.run(&mut acc, cycles);
            rig.preempt_resume(&mut acc, FirKernel::new());
        }
        rig.finish(&mut acc, 200_000);
        let out = &rig.mem[dst..dst + 2 * samples.len()];
        out.chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect()
    }

    fn reference_filter(samples: &[i16]) -> Vec<i16> {
        FirFilter::low_pass(TAPS, 0.25).filter(samples)
    }

    #[test]
    fn matches_reference_filter() {
        let samples: Vec<i16> = (0..256).map(|i| ((i * 97) % 2000 - 1000) as i16).collect();
        assert_eq!(filter(&samples, 0x2000, None), reference_filter(&samples));
    }

    #[test]
    fn preempt_resume_keeps_filter_history() {
        // The history crossing the preemption point is what makes this a
        // strong test: outputs just after resume depend on samples consumed
        // before the preempt.
        let samples: Vec<i16> = (0..2048).map(|i| ((i * 31) % 4000 - 2000) as i16).collect();
        assert_eq!(
            filter(&samples, 0x8000, Some(200)),
            reference_filter(&samples)
        );
    }

    #[test]
    fn dc_signal_passes_through() {
        let got = filter(&[5000i16; 128], 0x3000, None);
        // After the filter settles, DC passes at unity gain.
        for &y in &got[64..] {
            assert!((y as i32 - 5000).abs() < 64, "settled sample {y}");
        }
    }
}
