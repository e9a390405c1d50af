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
use crate::stream::StreamShell;
use optimus_algo::reed_solomon::ReedSolomon;
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
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
    shell: StreamShell,
    codec: ReedSolomon,
    staging: Vec<u8>,
    /// Output lines (index past `dst`, data) decoded but not yet issued
    /// (drains via the port).
    out_queue: std::collections::VecDeque<(u64, [u8; 64])>,
    decoded_codewords: u64,
    failures: u64,
}

impl Default for RsdKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RsdKernel {
    /// Register: source GVA.
    pub const REG_SRC: u64 = StreamShell::REG_SRC;
    /// Register: destination GVA.
    pub const REG_DST: u64 = StreamShell::REG_DST;
    /// Register: input line count (multiple of 4).
    pub const REG_LINES: u64 = StreamShell::REG_LINES;
    /// Register (read-only): codewords decoded.
    pub const REG_DECODED: u64 = 24;
    /// Register (read-only): uncorrectable codewords.
    pub const REG_FAILURES: u64 = 32;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Rsd.meta(),
            shell: StreamShell::new(),
            codec: ReedSolomon::new(PARITY),
            staging: Vec::new(),
            out_queue: std::collections::VecDeque::new(),
            decoded_codewords: 0,
            failures: 0,
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
        let first_line = self.decoded_codewords * CODEWORD_LINES;
        for i in 0..CODEWORD_LINES as usize {
            let mut line = [0u8; 64];
            let lo = i * 64;
            let hi = ((i + 1) * 64).min(MESSAGE_LEN);
            if decoded && lo < MESSAGE_LEN {
                line[..hi - lo].copy_from_slice(&self.staging[lo..hi]);
            }
            self.out_queue.push_back((first_line + i as u64, line));
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
        self.shell.write_reg(offset, value);
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_DECODED => self.decoded_codewords,
            Self::REG_FAILURES => self.failures,
            _ => self.shell.read_reg(offset),
        }
    }

    fn start(&mut self) {
        self.staging.clear();
        self.out_queue.clear();
        self.decoded_codewords = 0;
        self.failures = 0;
        self.shell.start_at(0);
    }

    fn done(&self) -> bool {
        self.shell.engine.input_exhausted()
            && self.out_queue.is_empty()
            && self.shell.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        self.shell
            .pump(2.0 * CODEWORD_LINES as f64 * LINE_COST, now, port);
        // Drain previously decoded output lines first.
        while port.can_issue() {
            let Some((idx, line)) = self.out_queue.pop_front() else {
                break;
            };
            self.shell.write_line(idx, line, now, port);
        }
        // Consume input only while no decoded output is waiting, so a
        // preemption point is always at most one codeword deep.
        while self.out_queue.is_empty()
            && self.shell.engine.has_next()
            && self.shell.pacer.try_spend(LINE_COST)
        {
            let (_, line) = self.shell.engine.next_line().expect("has_next checked");
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
        self.shell.save(&mut w);
        w.u64(resume_codewords).u64(self.failures);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.shell.load(&mut r)?;
        self.decoded_codewords = r.u64()?;
        self.failures = r.u64()?;
        let cursor = self.decoded_codewords.checked_mul(CODEWORD_LINES)?;
        self.staging.clear();
        self.out_queue.clear();
        self.shell.start_at(cursor);
        Some(())
    }

    fn reset(&mut self) {
        // A fresh kernel but for the codec, whose field and syndrome tables
        // depend on nothing a job can change.
        self.shell = StreamShell::new();
        self.start();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;
    use optimus_sim::rng::Xoshiro256;

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

    /// A rig holding `stream` at 0x1000.
    fn rig_with(stream: &[u8]) -> Rig {
        let mut mem = vec![0u8; 0x1000];
        mem.extend_from_slice(stream);
        Rig::new(mem)
    }

    /// Starts a job decoding `lines` lines from 0x1000 into `dst`.
    fn start(acc: &mut Harnessed<RsdKernel>, dst: u64, lines: u64) {
        rig::start(
            acc,
            &[
                (RsdKernel::REG_SRC, 0x1000),
                (RsdKernel::REG_DST, dst),
                (RsdKernel::REG_LINES, lines),
            ],
        );
    }

    fn assert_decoded(mem: &[u8], dst: usize, messages: &[Vec<u8>]) {
        for (c, msg) in messages.iter().enumerate() {
            let base = dst + c * 256;
            assert_eq!(&mem[base..base + MESSAGE_LEN], &msg[..], "codeword {c}");
        }
    }

    #[test]
    fn decodes_corrupted_codewords() {
        let (stream, messages) = build_stream(4, 10, 1);
        let mut acc = Harnessed::new(RsdKernel::new());
        let mut rig = rig_with(&stream);
        start(&mut acc, 0x4000, 16);
        rig.finish(&mut acc, 100_000);
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE + RsdKernel::REG_DECODED), 4);
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE + RsdKernel::REG_FAILURES), 0);
        assert_decoded(&rig.mem, 0x4000, &messages);
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
        cw.push(0);
        let mut acc = Harnessed::new(RsdKernel::new());
        let mut rig = rig_with(&cw);
        start(&mut acc, 0x4000, 4);
        rig.finish(&mut acc, 100_000);
        // Either flagged as failure, or miscorrected to a different message;
        // the decoder must never silently "succeed" with the right message.
        let failures = acc.mmio_read(accel_reg::APP_BASE + RsdKernel::REG_FAILURES);
        if failures == 0 {
            assert_ne!(&rig.mem[0x4000..0x4000 + MESSAGE_LEN], &msg[..]);
        } else {
            assert_eq!(failures, 1);
        }
    }

    #[test]
    fn preempt_resume_mid_stream() {
        let (stream, messages) = build_stream(8, 5, 3);
        let mut acc = Harnessed::new(RsdKernel::new());
        let mut rig = rig_with(&stream);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x20000);
        start(&mut acc, 0x8000, 32);
        rig.run(&mut acc, 120);
        rig.preempt_resume(&mut acc, RsdKernel::new());
        rig.finish(&mut acc, 1_000_000);
        assert_decoded(&rig.mem, 0x8000, &messages);
    }

    #[test]
    fn reset_kernel_decodes_like_a_fresh_one() {
        // A stream with both outcomes: correctable and hopeless codewords.
        let (mut stream, _) = build_stream(6, 9, 11);
        for b in &mut stream[256..256 + 40] {
            *b ^= 0x5A;
        }
        let run_job = |acc: &mut Harnessed<RsdKernel>| {
            let mut rig = rig_with(&stream);
            start(acc, 0x4000, 24);
            (rig.finish(acc, 100_000), acc.kernel().serialize(), rig.mem)
        };
        let fresh = run_job(&mut Harnessed::new(RsdKernel::new()));
        let failures = &fresh.1[32..40];
        assert_eq!(failures, 1u64.to_le_bytes(), "one codeword must fail");

        // The same job on a kernel reset in the middle of another one.
        let mut acc = Harnessed::new(RsdKernel::new());
        let (other, _) = build_stream(4, 3, 12);
        start(&mut acc, 0x6000, 16);
        rig_with(&other).run(&mut acc, 100);
        assert!(!acc.is_done());
        acc.reset();
        assert_eq!(acc.kernel().serialize(), RsdKernel::new().serialize());
        assert_eq!(run_job(&mut acc), fresh);
    }
}
