//! The image-filter benchmarks: GAU (Gaussian blur), SBL (Sobel), GRS
//! (grayscale conversion).
//!
//! GAU and SBL are 3×3 window pipelines over 64-pixel-wide grayscale rows
//! (one cache line per row), with the canonical FPGA structure: two row
//! line-buffers carry the sliding window, output row *r* is emitted once
//! row *r+1* arrives (clamp-to-edge at the borders). GRS converts packed
//! RGBA pixels (sixteen per line) to 8-bit luma, packing four input lines
//! into each output line.

use crate::harness::Kernel;
use crate::ser::{Reader, Writer};
use crate::stream::StreamShell;
use optimus_algo::image::{blur_row, sobel_row};
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::time::Cycle;

/// Which 3×3 filter a [`ConvKernel`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvOp {
    /// Gaussian blur (the GAU benchmark).
    Gaussian,
    /// Sobel edge magnitude (the SBL benchmark).
    Sobel,
}

/// Row width in pixels = bytes per cache line.
pub const ROW_PIXELS: usize = 64;

/// 3×3 convolution kernel over 64-pixel rows (GAU and SBL).
#[derive(Debug)]
pub struct ConvKernel {
    meta: AccelMeta,
    op: ConvOp,
    line_cost: f64,
    shell: StreamShell,
    /// The last two consumed rows (line buffers).
    rows: Vec<[u8; 64]>,
    emitted: u64,
}

impl ConvKernel {
    /// Register: source GVA.
    pub const REG_SRC: u64 = StreamShell::REG_SRC;
    /// Register: destination GVA.
    pub const REG_DST: u64 = StreamShell::REG_DST;
    /// Register: row (line) count.
    pub const REG_LINES: u64 = StreamShell::REG_LINES;

    /// Creates the GAU benchmark kernel.
    pub fn gaussian() -> Self {
        Self::with_op(ConvOp::Gaussian)
    }

    /// Creates the SBL benchmark kernel.
    pub fn sobel() -> Self {
        Self::with_op(ConvOp::Sobel)
    }

    fn with_op(op: ConvOp) -> Self {
        let (meta, line_cost) = match op {
            ConvOp::Gaussian => (crate::registry::AccelKind::Gau.meta(), 10.0),
            ConvOp::Sobel => (crate::registry::AccelKind::Sbl.meta(), 9.5),
        };
        Self {
            meta,
            op,
            line_cost,
            shell: StreamShell::new(),
            rows: Vec::new(),
            emitted: 0,
        }
    }

    /// Applies the 3×3 window to produce output row `r` from the window
    /// rows (clamped copies of r−1, r, r+1).
    fn window_output(&self, above: &[u8; 64], center: &[u8; 64], below: &[u8; 64]) -> [u8; 64] {
        let mut row = [0u8; 64];
        match self.op {
            ConvOp::Gaussian => blur_row(above, center, below, 1, &mut row),
            ConvOp::Sobel => sobel_row(above, center, below, &mut row),
        }
        row
    }

    /// Emits output row `r` if its window is available.
    fn try_emit(&mut self, now: Cycle, port: &mut AccelPort) -> bool {
        let consumed = self.shell.engine.consumed();
        // Row r can be emitted when row r+1 has been consumed, or when the
        // input is exhausted (bottom edge clamps).
        let r = self.emitted;
        if r >= self.shell.lines {
            return false;
        }
        let have_below = consumed > r + 1 || self.shell.engine.input_exhausted();
        if !have_below || consumed <= r {
            return false;
        }
        if !port.can_issue() {
            return false;
        }
        // rows holds the most recent consumed rows; index from the back.
        let idx_of = |row: u64| -> Option<&[u8; 64]> {
            let newest = consumed - 1;
            if row > newest {
                return None;
            }
            let back = (newest - row) as usize;
            let len = self.rows.len();
            if back < len {
                Some(&self.rows[len - 1 - back])
            } else {
                None
            }
        };
        let center = *idx_of(r).expect("center row buffered");
        let above = if r == 0 {
            center
        } else {
            *idx_of(r - 1).expect("above row buffered")
        };
        let below = match idx_of(r + 1) {
            Some(b) => *b,
            None => center, // bottom edge clamp
        };
        let out = self.window_output(&above, &center, &below);
        self.shell.write_line(r, out, now, port);
        self.emitted += 1;
        true
    }
}

impl Kernel for ConvKernel {
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
        self.rows.clear();
        self.emitted = 0;
        self.shell.start_at(0);
    }

    fn done(&self) -> bool {
        // A stream that aborted short never reaches its last row.
        (self.emitted >= self.shell.lines || self.shell.engine.aborted())
            && self.shell.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        self.shell.pump(2.0 * self.line_cost, now, port);
        // Consume only while the emit cursor keeps up: the line buffers
        // hold four rows, and output row r needs rows r−1..r+1 on hand.
        while self.shell.engine.has_next()
            && self.shell.engine.consumed() < self.emitted + 3
            && self.shell.pacer.try_spend(self.line_cost)
        {
            let (_, line) = self.shell.engine.next_line().expect("has_next checked");
            self.rows.push(*line);
            if self.rows.len() > 4 {
                self.rows.remove(0);
            }
            self.try_emit(now, port);
        }
        // Flush trailing rows (windows completed by edge clamping).
        while self.try_emit(now, port) {}
    }

    fn serialize(&self) -> Vec<u8> {
        // Progress is the emitted cursor; the two line buffers above it are
        // the architectural state (re-derivable rows r−1 and r).
        let mut w = Writer::new();
        self.shell.save(&mut w);
        w.u64(self.emitted).u64(self.op as u64);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.shell.load(&mut r)?;
        let emitted = r.u64()?;
        let _op = r.u64()?;
        // Resume by re-reading from the emitted row's window start: rows
        // ≥ emitted were never written, and rewriting an output row is
        // idempotent.
        self.emitted = emitted;
        self.rows.clear();
        self.shell.start_at(emitted.saturating_sub(1));
        Some(())
    }

    fn reset(&mut self) {
        // A fresh kernel that keeps its line buffers' allocation.
        self.shell = StreamShell::new();
        self.start();
    }
}

/// RGBA→luma kernel (the GRS benchmark): sixteen 4-byte pixels per input
/// line, four input lines per 64-byte output line.
#[derive(Debug)]
pub struct GrsKernel {
    meta: AccelMeta,
    shell: StreamShell,
    staging: Vec<u8>,
    out_lines: u64,
}

/// Cycles per input line at 200 MHz (1.25 packets/line ⇒ 0.20 share).
const GRS_LINE_COST: f64 = 6.25;

impl Default for GrsKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl GrsKernel {
    /// Register: source GVA.
    pub const REG_SRC: u64 = StreamShell::REG_SRC;
    /// Register: destination GVA.
    pub const REG_DST: u64 = StreamShell::REG_DST;
    /// Register: input line count (16 RGBA pixels per line).
    pub const REG_LINES: u64 = StreamShell::REG_LINES;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Grs.meta(),
            shell: StreamShell::new(),
            staging: Vec::new(),
            out_lines: 0,
        }
    }

    fn luma_line(line: &[u8; 64]) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, px) in line.chunks_exact(4).enumerate() {
            let (r, g, b) = (px[0] as u32, px[1] as u32, px[2] as u32);
            out[i] = ((77 * r + 150 * g + 29 * b + 128) >> 8).min(255) as u8;
        }
        out
    }
}

impl Kernel for GrsKernel {
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
        self.staging.clear();
        self.out_lines = 0;
        self.shell.start_at(0);
    }

    fn done(&self) -> bool {
        self.shell.engine.input_exhausted()
            && self.staging.is_empty()
            && self.shell.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        let shell = &mut self.shell;
        shell.pump(2.0 * GRS_LINE_COST, now, port);
        while shell.engine.has_next() && shell.pacer.try_spend(GRS_LINE_COST) {
            let (_, line) = shell.engine.next_line().expect("has_next checked");
            self.staging.extend_from_slice(&Self::luma_line(&line));
        }
        // Emit full output lines, and the padded tail once input ends.
        while port.can_issue()
            && (self.staging.len() >= 64
                || (shell.engine.input_exhausted() && !self.staging.is_empty()))
        {
            let mut out = [0u8; 64];
            let take = self.staging.len().min(64);
            out[..take].copy_from_slice(&self.staging[..take]);
            self.staging.drain(..take);
            shell.write_line(self.out_lines, out, now, port);
            self.out_lines += 1;
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.shell.save(&mut w);
        w.u64(self.shell.engine.consumed())
            .u64(self.out_lines)
            .bytes(&self.staging);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.shell.load(&mut r)?;
        let cursor = r.u64()?;
        self.out_lines = r.u64()?;
        self.staging = r.bytes()?.to_vec();
        self.shell.start_at(cursor);
        Some(())
    }

    fn reset(&mut self) {
        *self = GrsKernel::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_algo::image::{gaussian_blur, sobel, Image};
    use optimus_fabric::accelerator::Accelerator;

    fn test_image(rows: usize) -> (Image, Vec<u8>) {
        let mut data = vec![0u8; rows * 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = ((i * 31) % 251) as u8;
        }
        (Image::new(64, rows, 1, data.clone()), data)
    }

    /// Starts `acc` on `lines` lines of `raw` at 0x1000 into 0x4000; the
    /// rig to run it with.
    fn start(acc: &mut dyn Accelerator, raw: &[u8], lines: u64) -> Rig {
        let mut mem = vec![0u8; 0x1000];
        mem.extend_from_slice(raw);
        rig::start(
            acc,
            &[
                (ConvKernel::REG_SRC, 0x1000),
                (ConvKernel::REG_DST, 0x4000),
                (ConvKernel::REG_LINES, lines),
            ],
        );
        Rig::new(mem)
    }

    /// Filters `rows` rows with a fresh `kernel`; returns the output.
    fn filter(kernel: ConvKernel, rows: usize) -> Vec<u8> {
        let (_, raw) = test_image(rows);
        let mut acc = Harnessed::new(kernel);
        let mut rig = start(&mut acc, &raw, rows as u64);
        rig.finish(&mut acc, 100_000);
        rig.mem[0x4000..0x4000 + rows * 64].to_vec()
    }

    #[test]
    fn gaussian_matches_reference() {
        assert_eq!(
            filter(ConvKernel::gaussian(), 16),
            gaussian_blur(&test_image(16).0).data()
        );
    }

    #[test]
    fn sobel_matches_reference() {
        assert_eq!(
            filter(ConvKernel::sobel(), 12),
            sobel(&test_image(12).0).data()
        );
    }

    #[test]
    fn grayscale_matches_reference_luma() {
        let lines = 8u64;
        let mut raw = vec![0u8; (lines * 64) as usize];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = ((i * 7) % 256) as u8;
        }
        let mut acc = Harnessed::new(GrsKernel::new());
        let mut rig = start(&mut acc, &raw, lines);
        rig.finish(&mut acc, 100_000);
        // Reference: luma of each RGBA quadruple.
        let mut expect = Vec::new();
        for px in raw.chunks_exact(4) {
            let (r, g, b) = (px[0] as u32, px[1] as u32, px[2] as u32);
            expect.push(((77 * r + 150 * g + 29 * b + 128) >> 8).min(255) as u8);
        }
        assert_eq!(&rig.mem[0x4000..0x4000 + expect.len()], &expect[..]);
    }

    #[test]
    fn single_row_image_clamps_both_edges() {
        assert_eq!(
            filter(ConvKernel::gaussian(), 1),
            gaussian_blur(&test_image(1).0).data()
        );
    }

    #[test]
    fn reset_kernel_filters_like_a_fresh_one() {
        let (_, raw) = test_image(10);
        for make in [ConvKernel::gaussian, ConvKernel::sobel] {
            let fresh_mem = {
                let mut acc = Harnessed::new(make());
                let mut rig = start(&mut acc, &raw, 10);
                rig.finish(&mut acc, 100_000);
                rig.mem
            };
            // The same job after a reset in the middle of a shorter one.
            let mut acc = Harnessed::new(make());
            start(&mut acc, &raw, 6).run(&mut acc, 35);
            assert!(!acc.is_done());
            acc.reset();
            assert_eq!(acc.kernel().serialize(), make().serialize());
            let mut rig = start(&mut acc, &raw, 10);
            rig.finish(&mut acc, 100_000);
            assert_eq!(rig.mem, fresh_mem);
        }
    }
}
