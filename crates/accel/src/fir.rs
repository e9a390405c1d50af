//! The FIR benchmark: a fixed-point finite impulse response filter.
//!
//! Streams 16-bit samples (32 per line), convolves them with a
//! 31-tap windowed-sinc low-pass filter, and writes filtered lines to the
//! destination. The filter history (previous 30 samples) is the carried
//! architectural state — exactly what a systolic shift-register pipeline
//! would hold, and exactly what must be saved on preemption.

use crate::harness::Kernel;
use crate::ser::{Reader, Writer};
use crate::stream::{Pacer, StreamEngine};
use optimus_algo::fir::FirFilter;
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;

/// Taps in the synthesized filter.
const TAPS: usize = 31;
/// Per-line cost in 200 MHz cycles (read + write per line ⇒ 0.25 demand).
const LINE_COST: f64 = 8.0;

/// The FIR streaming kernel.
#[derive(Debug)]
pub struct FirKernel {
    meta: AccelMeta,
    src: u64,
    dst: u64,
    lines: u64,
    filter: FirFilter,
    /// The last `TAPS - 1` input samples (shift-register state).
    history: Vec<i16>,
    engine: StreamEngine,
    pacer: Pacer,
}

impl Default for FirKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl FirKernel {
    /// Register: source GVA.
    pub const REG_SRC: u64 = 0;
    /// Register: destination GVA.
    pub const REG_DST: u64 = 8;
    /// Register: line count.
    pub const REG_LINES: u64 = 16;

    /// Creates an idle kernel with the synthesized 31-tap low-pass filter.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Fir.meta(),
            src: 0,
            dst: 0,
            lines: 0,
            filter: FirFilter::low_pass(TAPS, 0.25),
            history: Vec::new(),
            engine: StreamEngine::new(0, 0),
            pacer: Pacer::new(),
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
        match offset {
            Self::REG_SRC => self.src = value,
            Self::REG_DST => self.dst = value,
            Self::REG_LINES => self.lines = value,
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_SRC => self.src,
            Self::REG_DST => self.dst,
            Self::REG_LINES => self.lines,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.history.clear();
        self.engine = StreamEngine::new(self.src, self.lines);
        self.pacer.reset();
    }

    fn done(&self) -> bool {
        self.engine.input_exhausted() && self.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        self.pacer.tick(2.0 * LINE_COST);
        self.engine.absorb(port);
        self.engine.issue_reads(port, now);
        while self.engine.has_next() && port.can_issue() && self.pacer.try_spend(LINE_COST) {
            let (idx, line) = self.engine.next_line().expect("has_next checked");
            let out = self.filter_line(&line);
            port.write(Gva::new(self.dst + idx * 64), Box::new(out), now);
            self.engine.note_write();
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.src).u64(self.dst).u64(self.lines).u64(self.engine.consumed());
        let mut hist = Vec::with_capacity(self.history.len() * 2);
        for s in &self.history {
            hist.extend_from_slice(&s.to_le_bytes());
        }
        w.bytes(&hist);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.src = r.u64()?;
        self.dst = r.u64()?;
        self.lines = r.u64()?;
        let cursor = r.u64()?;
        let hist = r.bytes()?;
        if hist.len() > 2 * (TAPS - 1) {
            return None; // longer than the shift register
        }
        self.history = hist
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect();
        self.engine = StreamEngine::new(self.src, self.lines);
        self.engine.resume_at(cursor);
        self.pacer.reset();
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
    use optimus_fabric::accelerator::{Accelerator, CtrlStatus};
    use optimus_fabric::mmio::accel_reg;

    fn service(port: &mut AccelPort, store: &mut Vec<u8>, now: Cycle) {
        while let Some(req) = port.take_pending() {
            let base = req.gva.raw() as usize;
            if store.len() < base + 64 {
                store.resize(base + 64, 0);
            }
            match req.write {
                Some(data) => {
                    store[base..base + 64].copy_from_slice(&data[..]);
                    port.deliver(req.tag, None, now);
                }
                None => {
                    let mut line = [0u8; 64];
                    line.copy_from_slice(&store[base..base + 64]);
                    port.deliver(req.tag, Some(Box::new(line)), now);
                }
            }
        }
    }

    fn reference_filter(samples: &[i16]) -> Vec<i16> {
        FirFilter::low_pass(TAPS, 0.25).filter(samples)
    }

    fn store_samples(store: &mut [u8], base: usize, samples: &[i16]) {
        for (i, s) in samples.iter().enumerate() {
            store[base + 2 * i..base + 2 * i + 2].copy_from_slice(&s.to_le_bytes());
        }
    }

    fn load_samples(store: &[u8], base: usize, n: usize) -> Vec<i16> {
        (0..n)
            .map(|i| i16::from_le_bytes([store[base + 2 * i], store[base + 2 * i + 1]]))
            .collect()
    }

    #[test]
    fn matches_reference_filter() {
        let mut acc = Harnessed::new(FirKernel::new());
        let mut port = AccelPort::new();
        let mut store = vec![0u8; 0x8000];
        let samples: Vec<i16> = (0..256).map(|i| ((i * 97) % 2000 - 1000) as i16).collect();
        store_samples(&mut store, 0x1000, &samples);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_DST, 0x2000);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_LINES, 8);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        for now in 0..10_000 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            if acc.is_done() {
                break;
            }
        }
        assert!(acc.is_done());
        let got = load_samples(&store, 0x2000, 256);
        assert_eq!(got, reference_filter(&samples));
    }

    #[test]
    fn preempt_resume_keeps_filter_history() {
        // The history crossing the preemption point is what makes this a
        // strong test: outputs just after resume depend on samples consumed
        // before the preempt.
        let mut acc = Harnessed::new(FirKernel::new());
        let mut port = AccelPort::new();
        let mut store = vec![0u8; 0x40000];
        let samples: Vec<i16> = (0..2048).map(|i| ((i * 31) % 4000 - 2000) as i16).collect();
        store_samples(&mut store, 0x1000, &samples);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x20000);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_DST, 0x8000);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_LINES, 64);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut now = 0;
        for _ in 0..200 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            now += 1;
        }
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_PREEMPT);
        while acc.status() != CtrlStatus::Saved {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            now += 1;
        }
        *acc.kernel_mut() = FirKernel::new();
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
        while !acc.is_done() {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            now += 1;
            assert!(now < 200_000);
        }
        let got = load_samples(&store, 0x8000, 2048);
        assert_eq!(got, reference_filter(&samples));
    }

    #[test]
    fn dc_signal_passes_through() {
        let mut acc = Harnessed::new(FirKernel::new());
        let mut port = AccelPort::new();
        let mut store = vec![0u8; 0x8000];
        store_samples(&mut store, 0x1000, &vec![5000i16; 128]);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_DST, 0x3000);
        acc.mmio_write(accel_reg::APP_BASE + FirKernel::REG_LINES, 4);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        for now in 0..10_000 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            if acc.is_done() {
                break;
            }
        }
        let got = load_samples(&store, 0x3000, 128);
        // After the filter settles, DC passes at unity gain.
        for &y in &got[64..] {
            assert!((y as i32 - 5000).abs() < 64, "settled sample {y}");
        }
    }
}
