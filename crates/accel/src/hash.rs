//! The MD5 and SHA benchmark kernels: streaming hashers.
//!
//! Both read a byte stream and absorb it into an incremental digest; the
//! final digest is written to the destination address and mirrored in
//! result registers.
//!
//! * **MD5** runs at 100 MHz and absorbs one full line per cycle — the
//!   single most bandwidth-hungry real-world benchmark (6.4 GB/s, half the
//!   monitor's 12.8 GB/s, hence Table 4's 0.50× MemBench share).
//! * **SHA-512** runs at 200 MHz at one line per 4.5 cycles (≈ 2.8 GB/s,
//!   a 0.22 share).

use crate::harness::Kernel;
use crate::ser::{Reader, Writer};
use crate::stream::StreamShell;
use optimus_algo::md5::Md5;
use optimus_algo::sha2::{Sha512, Sha512Snapshot};
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::time::Cycle;

/// Common registers for both hash kernels.
pub mod reg {
    use crate::stream::StreamShell;

    /// Source GVA.
    pub const SRC: u64 = StreamShell::REG_SRC;
    /// Destination GVA for the final digest line.
    pub const DST: u64 = StreamShell::REG_DST;
    /// Input length in lines.
    pub const LINES: u64 = StreamShell::REG_LINES;
    /// First digest result register (read-only; digest bytes 0..8).
    pub const DIGEST0: u64 = 24;
}

/// What both hashers share: the stream shell, and the digest they write
/// to `dst` once the input is exhausted and mirror in the result
/// registers (empty until then).
#[derive(Debug)]
struct Hashing {
    shell: StreamShell,
    digest: Vec<u8>,
}

impl Hashing {
    fn new() -> Self {
        Self {
            shell: StreamShell::new(),
            digest: Vec::new(),
        }
    }

    fn start_at(&mut self, cursor: u64) {
        self.digest.clear();
        self.shell.start_at(cursor);
    }

    fn read_reg(&self, offset: u64) -> u64 {
        if offset < reg::DIGEST0 {
            return self.shell.read_reg(offset);
        }
        let idx = ((offset - reg::DIGEST0) / 8) as usize;
        self.digest
            .get(idx * 8..idx * 8 + 8)
            .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        !self.digest.is_empty() && self.shell.engine.writes_settled()
    }

    /// Writes the digest `finalize` computes as the destination's first
    /// line, once the input is exhausted and the port takes a write.
    fn finish(&mut self, finalize: impl FnOnce() -> Vec<u8>, now: Cycle, port: &mut AccelPort) {
        if self.shell.engine.input_exhausted() && self.digest.is_empty() && port.can_issue() {
            self.digest = finalize();
            let mut out = [0u8; 64];
            out[..self.digest.len()].copy_from_slice(&self.digest);
            self.shell.write_line(0, out, now, port);
        }
    }

    /// Quiescence hint: with an empty response queue (the harness checks),
    /// a step does something only while the pacer's bank (capped at
    /// `max_bank`) is filling, or if it can issue read-ahead, consume an
    /// arrived line, or write the digest.
    fn next_event(&self, max_bank: f64, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        if !self.shell.pacer.saturated(max_bank) {
            return Some(now);
        }
        let engine = &self.shell.engine;
        let can_read = engine.wants_reads() && port.can_issue();
        let can_finish = engine.input_exhausted() && self.digest.is_empty() && port.can_issue();
        (can_read || engine.has_next() || can_finish).then_some(now)
    }
}

/// MD5 absorbs one line per 100 MHz cycle, banking no more than that.
const MD5_LINE_COST: f64 = 1.0;

/// The MD5 streaming hasher (100 MHz, one line per cycle).
#[derive(Debug)]
pub struct Md5Kernel {
    meta: AccelMeta,
    hashing: Hashing,
    hasher: Md5,
    /// Extra zero bytes appended to the preemption state, modelling a
    /// Cascade-style conservative save of *all* occupied resources (the
    /// paper's Fig. 8 worst-case estimate uses MD5, the largest real-world
    /// benchmark, with all of its state saved).
    state_pad: u64,
}

impl Default for Md5Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5Kernel {
    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Md5.meta(),
            hashing: Hashing::new(),
            hasher: Md5::new(),
            state_pad: 0,
        }
    }

    /// Register: worst-case state padding in bytes (see `state_pad`),
    /// clamped to the device's on-chip RAM.
    pub const REG_STATE_PAD: u64 = 56;
}

impl Kernel for Md5Kernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            // Every save allocates the pad: at most all of on-chip RAM,
            // above Fig 8's 3 MiB worst case.
            Self::REG_STATE_PAD => self.state_pad = value.min(crate::ONCHIP_RAM_BYTES),
            _ => self.hashing.shell.write_reg(offset, value),
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        self.hashing.read_reg(offset)
    }

    fn start(&mut self) {
        self.hasher = Md5::new();
        self.hashing.start_at(0);
    }

    fn done(&self) -> bool {
        self.hashing.done()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        let shell = &mut self.hashing.shell;
        shell.pump(MD5_LINE_COST, now, port);
        while shell.engine.has_next() && shell.pacer.try_spend(MD5_LINE_COST) {
            let (_, line) = shell.engine.next_line().expect("has_next checked");
            self.hasher.update(&line[..]);
        }
        self.hashing
            .finish(|| self.hasher.clone().finalize().to_vec(), now, port);
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.hashing.shell.save(&mut w);
        w.u64(self.hashing.shell.engine.consumed());
        for word in self.hasher.state() {
            w.u64(word as u64);
        }
        w.u64(self.hasher.length_bytes());
        w.u64(self.state_pad);
        w.bytes(&vec![0u8; self.state_pad as usize]);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.hashing.shell.load(&mut r)?;
        let cursor = r.u64()?;
        let mut state = [0u32; 4];
        for word in &mut state {
            *word = r.u64()? as u32;
        }
        let len = r.u64()?;
        self.state_pad = r.u64()?;
        // The pad must be as long as it claims and fit on chip: the next
        // save allocates it.
        let pad_ok =
            self.state_pad <= crate::ONCHIP_RAM_BYTES && r.bytes()?.len() as u64 == self.state_pad;
        if !pad_ok || len % 64 != 0 {
            return None;
        }
        self.hasher = Md5::resume(state, len);
        self.hashing.start_at(cursor);
        Some(())
    }

    fn reset(&mut self) {
        *self = Md5Kernel::new();
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        self.hashing.next_event(MD5_LINE_COST, now, port)
    }
}

/// Per-line cost of the SHA-512 pipeline at 200 MHz.
const SHA_LINE_COST: f64 = 4.5;

/// The SHA-512 streaming hasher (200 MHz, one line per 4.5 cycles).
#[derive(Debug)]
pub struct Sha512Kernel {
    meta: AccelMeta,
    hashing: Hashing,
    hasher: Sha512,
}

impl Default for Sha512Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512Kernel {
    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Sha.meta(),
            hashing: Hashing::new(),
            hasher: Sha512::new(),
        }
    }
}

impl Kernel for Sha512Kernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        self.hashing.shell.write_reg(offset, value);
    }

    fn read_reg(&self, offset: u64) -> u64 {
        self.hashing.read_reg(offset)
    }

    fn start(&mut self) {
        self.hasher = Sha512::new();
        self.hashing.start_at(0);
    }

    fn done(&self) -> bool {
        self.hashing.done()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        let shell = &mut self.hashing.shell;
        shell.pump(2.0 * SHA_LINE_COST, now, port);
        while shell.engine.has_next() && shell.pacer.try_spend(SHA_LINE_COST) {
            let (_, line) = shell.engine.next_line().expect("has_next checked");
            self.hasher.update(&line[..]);
        }
        self.hashing
            .finish(|| self.hasher.clone().finalize().to_vec(), now, port);
    }

    fn serialize(&self) -> Vec<u8> {
        let snap = self.hasher.snapshot();
        let mut w = Writer::new();
        self.hashing.shell.save(&mut w);
        w.u64(self.hashing.shell.engine.consumed());
        for word in snap.state {
            w.u64(word);
        }
        w.u64(snap.length_bytes as u64); // line counts keep this < 2^64
        w.bytes(&snap.buffer);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.hashing.shell.load(&mut r)?;
        let cursor = r.u64()?;
        let mut state = [0u64; 8];
        for word in &mut state {
            *word = r.u64()?;
        }
        let length_bytes = r.u64()? as u128;
        let buffer = r.bytes()?;
        if buffer.len() >= 128 {
            return None; // more than the partial block a save can hold
        }
        self.hasher = Sha512::from_snapshot(&Sha512Snapshot {
            state,
            length_bytes,
            buffer: buffer.to_vec(),
        });
        self.hashing.start_at(cursor);
        Some(())
    }

    fn reset(&mut self) {
        *self = Sha512Kernel::new();
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        self.hashing.next_event(2.0 * SHA_LINE_COST, now, port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    /// A rig holding `data` at `src`.
    fn rig_with(src: usize, data: &[u8]) -> Rig {
        let mut mem = vec![0u8; src];
        mem.extend_from_slice(data);
        Rig::new(mem)
    }

    #[test]
    fn md5_matches_reference() {
        let mut acc = Harnessed::new(Md5Kernel::new());
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 3) as u8).collect();
        let mut rig = rig_with(0x400, &data);
        rig::start(
            &mut acc,
            &[(reg::SRC, 0x400), (reg::DST, 0x1000), (reg::LINES, 16)],
        );
        rig.finish(&mut acc, 10_000);
        let expect = optimus_algo::md5::md5(&data);
        assert_eq!(&rig.mem[0x1000..0x1010], &expect[..]);
        // Digest registers mirror the result.
        assert_eq!(
            acc.mmio_read(accel_reg::APP_BASE + reg::DIGEST0),
            u64::from_le_bytes(expect[0..8].try_into().unwrap())
        );
    }

    #[test]
    fn sha512_matches_reference() {
        let mut acc = Harnessed::new(Sha512Kernel::new());
        let data: Vec<u8> = (0..2048u32).map(|i| (i ^ 0x5A) as u8).collect();
        let mut rig = rig_with(0x800, &data);
        rig::start(
            &mut acc,
            &[(reg::SRC, 0x800), (reg::DST, 0x2000), (reg::LINES, 32)],
        );
        rig.finish(&mut acc, 10_000);
        let expect = optimus_algo::sha2::sha512(&data);
        assert_eq!(&rig.mem[0x2000..0x2040], &expect[..]);
    }

    #[test]
    fn md5_preempt_resume_digest_intact() {
        let mut acc = Harnessed::new(Md5Kernel::new());
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
        let mut rig = rig_with(0x1000, &data);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x10000);
        rig::start(
            &mut acc,
            &[(reg::SRC, 0x1000), (reg::DST, 0x8000), (reg::LINES, 128)],
        );
        rig.run(&mut acc, 40);
        rig.preempt_resume(&mut acc, Md5Kernel::new());
        rig.finish(&mut acc, 100_000);
        assert_eq!(&rig.mem[0x8000..0x8010], &optimus_algo::md5::md5(&data)[..]);
    }

    #[test]
    fn md5_consumes_one_line_per_cycle() {
        // 100 lines should take ≈ 100 kernel cycles once the pipeline fills.
        let mut acc = Harnessed::new(Md5Kernel::new());
        let mut rig = Rig::new(Vec::new());
        rig::start(&mut acc, &[(reg::LINES, 100), (reg::DST, 0x3000)]);
        let finished = rig.finish(&mut acc, 10_000);
        assert!(finished > 0 && finished < 140, "took {finished} cycles");
    }

    #[test]
    fn empty_input_hashes_empty_string() {
        let mut acc = Harnessed::new(Md5Kernel::new());
        let mut rig = Rig::new(Vec::new());
        rig::start(&mut acc, &[(reg::DST, 0x800), (reg::LINES, 0)]);
        rig.finish(&mut acc, 1000);
        assert_eq!(&rig.mem[0x800..0x810], &optimus_algo::md5::md5(b"")[..]);
    }
}
