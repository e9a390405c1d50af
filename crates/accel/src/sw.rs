//! SW: the Smith–Waterman local-alignment benchmark.
//!
//! The classic FPGA systolic-array workload: a reference sequence is
//! preloaded into on-chip RAM (the first lines of the input region, capped
//! at four lines = 256 residues), then a stream of 64-residue query blocks
//! is scored against it. The kernel tracks the best score and which block
//! achieved it — the output a streaming scorer reports back to software.

use crate::harness::Kernel;
use crate::ser::{Reader, Writer};
use crate::stream::StreamShell;
use optimus_algo::smith_waterman::{Scoring, Wavefront};
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::time::Cycle;

/// Maximum reference length in lines (on-chip RAM capacity).
pub const MAX_REF_LINES: u64 = 4;

/// Cycles per query line at 100 MHz (read-only ⇒ share = 0.5 / cost).
const LINE_COST: f64 = 2.3;

/// The Smith–Waterman kernel. It writes nothing, so of the stream shell it
/// uses the SRC and LINES registers, the engine and the pacer; its DST
/// stays 0, and its state blob is its own (`ref_lines` precedes the
/// cursor).
#[derive(Debug)]
pub struct SwKernel {
    meta: AccelMeta,
    shell: StreamShell,
    ref_lines: u64,
    reference: Vec<u8>,
    best_score: u64,
    best_block: u64,
    scoring: Scoring,
    /// The scorer's diagonals, kept from block to block.
    wavefront: Wavefront,
}

impl Default for SwKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl SwKernel {
    /// Register: source GVA (reference lines followed by query lines).
    pub const REG_SRC: u64 = StreamShell::REG_SRC;
    /// Register: total line count.
    pub const REG_LINES: u64 = StreamShell::REG_LINES;
    /// Register: how many leading lines are the reference (≤ 4).
    pub const REG_REF_LINES: u64 = 24;
    /// Register (read-only): best local-alignment score.
    pub const REG_BEST: u64 = 32;
    /// Register (read-only): index of the best-scoring query block.
    pub const REG_BEST_BLOCK: u64 = 40;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Sw.meta(),
            shell: StreamShell::new(),
            ref_lines: 1,
            reference: Vec::new(),
            best_score: 0,
            best_block: 0,
            scoring: Scoring::default(),
            wavefront: Wavefront::default(),
        }
    }
}

impl Kernel for SwKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_SRC | Self::REG_LINES => self.shell.write_reg(offset, value),
            Self::REG_REF_LINES => self.ref_lines = value.clamp(1, MAX_REF_LINES),
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_REF_LINES => self.ref_lines,
            Self::REG_BEST => self.best_score,
            Self::REG_BEST_BLOCK => self.best_block,
            _ => self.shell.read_reg(offset),
        }
    }

    fn start(&mut self) {
        self.reference.clear();
        self.best_score = 0;
        self.best_block = 0;
        self.shell.start_at(0);
    }

    fn done(&self) -> bool {
        self.shell.engine.input_exhausted()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        let shell = &mut self.shell;
        shell.pump(2.0 * LINE_COST, now, port);
        while shell.engine.has_next() && shell.pacer.try_spend(LINE_COST) {
            let (idx, line) = shell.engine.next_line().expect("has_next checked");
            if idx < self.ref_lines {
                self.reference.extend_from_slice(&line[..]);
            } else {
                let scorer = &mut self.wavefront;
                let score = scorer.score(&line[..], &self.reference, &self.scoring) as u64;
                if score > self.best_score {
                    self.best_score = score;
                    self.best_block = idx - self.ref_lines;
                }
            }
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.shell.src)
            .u64(self.shell.lines)
            .u64(self.ref_lines)
            .u64(self.shell.engine.consumed())
            .u64(self.best_score)
            .u64(self.best_block)
            .bytes(&self.reference);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.shell.src = r.u64()?;
        self.shell.lines = r.u64()?;
        self.ref_lines = r.u64()?;
        let cursor = r.u64()?;
        self.best_score = r.u64()?;
        self.best_block = r.u64()?;
        let reference = r.bytes()?;
        // The register clamps the reference to on-chip RAM; so does this.
        if !(1..=MAX_REF_LINES).contains(&self.ref_lines)
            || reference.len() as u64 > MAX_REF_LINES * 64
        {
            return None;
        }
        self.reference.clear();
        self.reference.extend_from_slice(reference);
        self.shell.start_at(cursor);
        Some(())
    }

    fn reset(&mut self) {
        // A fresh kernel that keeps its buffers.
        (self.shell.src, self.shell.lines, self.ref_lines) = (0, 0, 1);
        self.start();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_algo::smith_waterman::score_only;
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    /// Starts a job over `lines` lines at `src`, the first `ref_lines` of
    /// them the reference.
    fn start(acc: &mut Harnessed<SwKernel>, src: u64, lines: u64, ref_lines: u64) {
        rig::start(
            acc,
            &[
                (SwKernel::REG_SRC, src),
                (SwKernel::REG_LINES, lines),
                (SwKernel::REG_REF_LINES, ref_lines),
            ],
        );
    }

    #[test]
    fn finds_the_best_matching_block() {
        // Reference: one line of ACGT repeated.
        let reference: Vec<u8> = b"ACGT".iter().cycle().take(64).copied().collect();
        // Query blocks: block 0 = all T (weak), block 1 = ACGT (perfect),
        // block 2 = CCCC (weak).
        let q1 = reference.clone();
        let mut mem = vec![0u8; 0x1000];
        for line in [&reference, &vec![b'T'; 64], &q1, &vec![b'C'; 64]] {
            mem.extend_from_slice(line);
        }
        let mut acc = Harnessed::new(SwKernel::new());
        start(&mut acc, 0x1000, 4, 1);
        Rig::new(mem).finish(&mut acc, 10_000);
        let best = acc.mmio_read(accel_reg::APP_BASE + SwKernel::REG_BEST);
        let best_block = acc.mmio_read(accel_reg::APP_BASE + SwKernel::REG_BEST_BLOCK);
        assert_eq!(best_block, 1);
        // Perfect 64-residue match at +2/match.
        assert_eq!(best, 128);
        // Cross-check against the software reference.
        let sw = score_only(&q1, &reference, &Scoring::default()) as u64;
        assert_eq!(best, sw);
    }

    #[test]
    fn scores_match_reference_for_random_blocks() {
        let mut rng = optimus_sim::rng::Xoshiro256::seed_from(5);
        let alphabet = b"ACGT";
        let pick = |rng: &mut optimus_sim::rng::Xoshiro256| {
            alphabet[rng.gen_range(0..4) as usize]
        };
        let reference: Vec<u8> = (0..128).map(|_| pick(&mut rng)).collect();
        let queries: Vec<Vec<u8>> = (0..6)
            .map(|_| (0..64).map(|_| pick(&mut rng)).collect())
            .collect();
        let mut mem = reference.clone();
        queries.iter().for_each(|q| mem.extend_from_slice(q));
        let mut acc = Harnessed::new(SwKernel::new());
        start(&mut acc, 0, 8, 2);
        Rig::new(mem).finish(&mut acc, 10_000);
        let expect = queries
            .iter()
            .map(|q| score_only(q, &reference, &Scoring::default()) as u64)
            .max()
            .unwrap();
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE + SwKernel::REG_BEST), expect);
    }

    #[test]
    fn ref_lines_clamped_to_capacity() {
        let mut k = SwKernel::new();
        k.write_reg(SwKernel::REG_REF_LINES, 100);
        assert_eq!(k.read_reg(SwKernel::REG_REF_LINES), MAX_REF_LINES);
        k.write_reg(SwKernel::REG_REF_LINES, 0);
        assert_eq!(k.read_reg(SwKernel::REG_REF_LINES), 1);
    }

    #[test]
    fn reset_kernel_scores_like_a_fresh_one() {
        let mut rng = optimus_sim::rng::Xoshiro256::seed_from(9);
        let mem: Vec<u8> = (0..0x800)
            .map(|_| b"ACGT"[rng.gen_range(0..4) as usize])
            .collect();
        let mut fresh = Harnessed::new(SwKernel::new());
        start(&mut fresh, 0x400, 12, 2);
        let fresh_cycles = Rig::new(mem.clone()).finish(&mut fresh, 10_000);

        // The same job after a reset in the middle of a different one (a
        // longer reference, so the scorer's buffers have been larger).
        let mut acc = Harnessed::new(SwKernel::new());
        start(&mut acc, 0, 16, 4);
        Rig::new(mem.clone()).run(&mut acc, 30);
        assert!(!acc.is_done());
        acc.reset();
        assert_eq!(acc.kernel().serialize(), SwKernel::new().serialize());
        start(&mut acc, 0x400, 12, 2);
        let cycles = Rig::new(mem).finish(&mut acc, 10_000);
        assert_eq!(cycles, fresh_cycles);
        assert_eq!(acc.kernel().serialize(), fresh.kernel().serialize());
    }
}
