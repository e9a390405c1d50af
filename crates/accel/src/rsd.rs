//! RSD: the Reed–Solomon decoder benchmark — the largest accelerator in
//! Table 1 (5,324 lines of Verilog).
//!
//! Input is a stream of RS(255, 223) codewords, each packed into four
//! cache lines (255 symbols + one pad byte). The kernel runs the full
//! decode pipeline — syndromes, Berlekamp–Massey, Chien search, Forney —
//! correcting up to 16 symbol errors per codeword, and writes each decoded
//! 223-byte message into four output lines (padded). Codewords that exceed
//! the correction capacity are zero-filled and counted in a failure
//! register.

use crate::harness::Kernel;
use crate::ser::{Reader, Writer};
use crate::stream::{Pacer, StreamEngine};
use optimus_algo::reed_solomon::ReedSolomon;
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;

/// Parity symbols (RS(255, 223): corrects 16 errors).
pub const PARITY: usize = 32;
/// Message bytes per codeword.
pub const MESSAGE_LEN: usize = 223;
/// Codeword bytes (packed into CODEWORD_LINES lines with one pad byte).
pub const CODEWORD_LEN: usize = 255;
/// Input and output lines per codeword.
pub const CODEWORD_LINES: u64 = 4;

/// Per-input-line cost in 200 MHz cycles (2 packets/line ⇒ 0.22 share).
const LINE_COST: f64 = 9.0;

/// The Reed–Solomon decoder kernel.
#[derive(Debug)]
pub struct RsdKernel {
    meta: AccelMeta,
    src: u64,
    dst: u64,
    lines: u64,
    codec: ReedSolomon,
    staging: Vec<u8>,
    /// Output lines decoded but not yet issued (drains via the port).
    out_queue: std::collections::VecDeque<(u64, [u8; 64])>,
    decoded_codewords: u64,
    failures: u64,
    engine: StreamEngine,
    pacer: Pacer,
}

impl Default for RsdKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RsdKernel {
    /// Register: source GVA.
    pub const REG_SRC: u64 = 0;
    /// Register: destination GVA.
    pub const REG_DST: u64 = 8;
    /// Register: input line count (multiple of 4).
    pub const REG_LINES: u64 = 16;
    /// Register (read-only): codewords decoded.
    pub const REG_DECODED: u64 = 24;
    /// Register (read-only): uncorrectable codewords.
    pub const REG_FAILURES: u64 = 32;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Rsd.meta(),
            src: 0,
            dst: 0,
            lines: 0,
            codec: ReedSolomon::new(PARITY),
            staging: Vec::new(),
            out_queue: std::collections::VecDeque::new(),
            decoded_codewords: 0,
            failures: 0,
            engine: StreamEngine::new(0, 0),
            pacer: Pacer::new(),
        }
    }

    fn emit_decoded(&mut self) {
        debug_assert_eq!(self.staging.len(), 4 * 64);
        // Corrected in place: the message is then the staging prefix.
        let codeword = &mut self.staging[..CODEWORD_LEN];
        let decoded = self.codec.correct(codeword).is_ok();
        if !decoded {
            self.failures += 1;
        }
        let out_base = self.dst + self.decoded_codewords * CODEWORD_LINES * 64;
        for i in 0..CODEWORD_LINES as usize {
            let mut line = [0u8; 64];
            let lo = i * 64;
            let hi = ((i + 1) * 64).min(MESSAGE_LEN);
            if decoded && lo < MESSAGE_LEN {
                line[..hi - lo].copy_from_slice(&self.staging[lo..hi]);
            }
            self.out_queue.push_back((out_base + i as u64 * 64, line));
        }
        self.staging.clear();
        self.decoded_codewords += 1;
    }
}

impl Kernel for RsdKernel {
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
            Self::REG_DECODED => self.decoded_codewords,
            Self::REG_FAILURES => self.failures,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.staging.clear();
        self.out_queue.clear();
        self.decoded_codewords = 0;
        self.failures = 0;
        self.engine = StreamEngine::new(self.src, self.lines);
        self.pacer.reset();
    }

    fn done(&self) -> bool {
        self.engine.input_exhausted()
            && self.out_queue.is_empty()
            && self.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        self.pacer.tick(2.0 * CODEWORD_LINES as f64 * LINE_COST);
        self.engine.absorb(port);
        self.engine.issue_reads(port, now);
        // Drain previously decoded output lines first.
        while port.can_issue() {
            let Some((gva, line)) = self.out_queue.pop_front() else {
                break;
            };
            port.write(Gva::new(gva), Box::new(line), now);
            self.engine.note_write();
        }
        // Consume input only while no decoded output is waiting, so a
        // preemption point is always at most one codeword deep.
        while self.out_queue.is_empty()
            && self.engine.has_next()
            && self.pacer.try_spend(LINE_COST)
        {
            let (_, line) = self.engine.next_line().expect("has_next checked");
            self.staging.extend_from_slice(&line[..]);
            if self.staging.len() == 4 * 64 {
                self.emit_decoded();
            }
        }
    }

    fn serialize(&self) -> Vec<u8> {
        // The resume point is the last fully *issued* codeword boundary:
        // a partially written codeword is simply re-decoded and re-written
        // (idempotent), so neither the staging buffer nor the output queue
        // needs to be part of the architectural state.
        let resume_codewords = self.decoded_codewords
            - if self.out_queue.is_empty() { 0 } else { 1 };
        let mut w = Writer::new();
        w.u64(self.src)
            .u64(self.dst)
            .u64(self.lines)
            .u64(resume_codewords)
            .u64(self.failures);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        self.src = r.u64();
        self.dst = r.u64();
        self.lines = r.u64();
        self.decoded_codewords = r.u64();
        self.failures = r.u64();
        self.staging.clear();
        self.out_queue.clear();
        self.engine = StreamEngine::new(self.src, self.lines);
        self.engine.resume_at(self.decoded_codewords * CODEWORD_LINES);
        self.pacer.reset();
    }

    fn reset(&mut self) {
        // A fresh kernel but for the codec, whose field and syndrome tables
        // depend on nothing a job can change.
        (self.src, self.dst, self.lines) = (0, 0, 0);
        self.start();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use optimus_fabric::accelerator::{Accelerator, CtrlStatus};
    use optimus_fabric::mmio::accel_reg;
    use optimus_sim::rng::Xoshiro256;

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

    /// Builds `n` corrupted codewords and the expected decoded messages.
    fn build_stream(n: usize, errors_per_cw: usize, seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
        let codec = ReedSolomon::new(PARITY);
        let mut rng = Xoshiro256::seed_from(seed);
        let mut packed = Vec::new();
        let mut messages = Vec::new();
        for c in 0..n {
            let msg: Vec<u8> = (0..MESSAGE_LEN).map(|i| ((i * 3 + c * 7) % 256) as u8).collect();
            let mut cw = codec.encode(&msg);
            for _ in 0..errors_per_cw {
                let pos = rng.gen_range(0..cw.len() as u64) as usize;
                cw[pos] ^= (rng.gen_range(1..256)) as u8;
            }
            packed.extend_from_slice(&cw);
            packed.push(0); // pad to 256
            messages.push(msg);
        }
        (packed, messages)
    }

    #[test]
    fn decodes_corrupted_codewords() {
        let (stream, messages) = build_stream(4, 10, 1);
        let mut acc = Harnessed::new(RsdKernel::new());
        let mut store = vec![0u8; 0x8000];
        store[0x1000..0x1000 + stream.len()].copy_from_slice(&stream);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_DST, 0x4000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_LINES, 16);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut port = AccelPort::new();
        for now in 0..100_000 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            if acc.is_done() {
                break;
            }
        }
        assert!(acc.is_done());
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE + RsdKernel::REG_DECODED), 4);
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE + RsdKernel::REG_FAILURES), 0);
        for (c, msg) in messages.iter().enumerate() {
            let base = 0x4000 + c * 256;
            assert_eq!(&store[base..base + MESSAGE_LEN], &msg[..], "codeword {c}");
        }
    }

    #[test]
    fn uncorrectable_codeword_counted() {
        let codec = ReedSolomon::new(PARITY);
        let msg: Vec<u8> = (0..MESSAGE_LEN as u8).collect();
        let mut cw = codec.encode(&msg);
        // 40 errors: far beyond the 16-error capacity.
        for (i, item) in cw.iter_mut().enumerate().take(40) {
            *item ^= (i + 1) as u8;
        }
        let mut stream = cw;
        stream.push(0);
        let mut acc = Harnessed::new(RsdKernel::new());
        let mut store = vec![0u8; 0x8000];
        store[0x1000..0x1000 + stream.len()].copy_from_slice(&stream);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_DST, 0x4000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_LINES, 4);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut port = AccelPort::new();
        for now in 0..100_000 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            if acc.is_done() {
                break;
            }
        }
        // Either flagged as failure, or miscorrected to a different message;
        // the decoder must never silently "succeed" with the right message.
        let failures = acc.mmio_read(accel_reg::APP_BASE + RsdKernel::REG_FAILURES);
        if failures == 0 {
            assert_ne!(&store[0x4000..0x4000 + MESSAGE_LEN], &msg[..]);
        } else {
            assert_eq!(failures, 1);
        }
    }

    #[test]
    fn preempt_resume_mid_stream() {
        let (stream, messages) = build_stream(8, 5, 3);
        let mut acc = Harnessed::new(RsdKernel::new());
        let mut store = vec![0u8; 0x40000];
        store[0x1000..0x1000 + stream.len()].copy_from_slice(&stream);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x20000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_DST, 0x8000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_LINES, 32);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut port = AccelPort::new();
        let mut now = 0;
        for _ in 0..120 {
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
        *acc.kernel_mut() = RsdKernel::new();
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
        while !acc.is_done() {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            now += 1;
            assert!(now < 1_000_000);
        }
        for (c, msg) in messages.iter().enumerate() {
            let base = 0x8000 + c * 256;
            assert_eq!(&store[base..base + MESSAGE_LEN], &msg[..], "codeword {c}");
        }
    }

    /// Programs and runs one job to completion; returns the cycle count.
    fn run_job(acc: &mut Harnessed<RsdKernel>, store: &mut Vec<u8>, lines: u64) -> Cycle {
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_DST, 0x4000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_LINES, lines);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut port = AccelPort::new();
        for now in 0..100_000 {
            acc.step(now, &mut port);
            service(&mut port, store, now);
            if acc.is_done() {
                return now;
            }
        }
        panic!("kernel never finished");
    }

    #[test]
    fn reset_kernel_decodes_like_a_fresh_one() {
        // A stream with both outcomes: correctable and hopeless codewords.
        let (mut stream, _) = build_stream(6, 9, 11);
        for b in &mut stream[256..256 + 40] {
            *b ^= 0x5A;
        }
        let fresh = {
            let mut acc = Harnessed::new(RsdKernel::new());
            let mut store = vec![0u8; 0x8000];
            store[0x1000..0x1000 + stream.len()].copy_from_slice(&stream);
            let cycles = run_job(&mut acc, &mut store, 24);
            (cycles, acc.kernel().serialize(), store)
        };
        let failures = &fresh.1[32..40];
        assert_eq!(failures, 1u64.to_le_bytes(), "one codeword must fail");

        // The same job on a kernel reset in the middle of another one.
        let mut acc = Harnessed::new(RsdKernel::new());
        let (other, _) = build_stream(4, 3, 12);
        let mut store = vec![0u8; 0x8000];
        store[0x1000..0x1000 + other.len()].copy_from_slice(&other);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_DST, 0x6000);
        acc.mmio_write(accel_reg::APP_BASE + RsdKernel::REG_LINES, 16);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut port = AccelPort::new();
        for now in 0..100 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
        }
        assert!(!acc.is_done());
        acc.reset();
        assert_eq!(acc.kernel().serialize(), RsdKernel::new().serialize());
        let mut store = vec![0u8; 0x8000];
        store[0x1000..0x1000 + stream.len()].copy_from_slice(&stream);
        let cycles = run_job(&mut acc, &mut store, 24);
        assert_eq!((cycles, acc.kernel().serialize(), store), fresh);
    }
}
