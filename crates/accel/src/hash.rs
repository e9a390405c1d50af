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
use crate::stream::{Pacer, StreamEngine};
use optimus_algo::md5::Md5;
use optimus_algo::sha2::{Sha512, Sha512Snapshot};
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;

/// Common registers for both hash kernels.
pub mod reg {
    /// Source GVA.
    pub const SRC: u64 = 0;
    /// Destination GVA for the final digest line.
    pub const DST: u64 = 8;
    /// Input length in lines.
    pub const LINES: u64 = 16;
    /// First digest result register (read-only; digest bytes 0..8).
    pub const DIGEST0: u64 = 24;
}

macro_rules! common_regs {
    () => {
        fn write_reg(&mut self, offset: u64, value: u64) {
            match offset {
                reg::SRC => self.src = value,
                reg::DST => self.dst = value,
                reg::LINES => self.lines = value,
                other => self.write_extra_reg(other, value),
            }
        }

        fn read_reg(&self, offset: u64) -> u64 {
            match offset {
                reg::SRC => self.src,
                reg::DST => self.dst,
                reg::LINES => self.lines,
                off if off >= reg::DIGEST0 => {
                    let idx = ((off - reg::DIGEST0) / 8) as usize;
                    self.digest
                        .get(idx * 8..idx * 8 + 8)
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                        .unwrap_or(0)
                }
                _ => 0,
            }
        }
    };
}

/// The MD5 streaming hasher (100 MHz, one line per cycle).
#[derive(Debug)]
pub struct Md5Kernel {
    meta: AccelMeta,
    src: u64,
    dst: u64,
    lines: u64,
    hasher: Md5,
    digest: Vec<u8>,
    digest_written: bool,
    engine: StreamEngine,
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
            src: 0,
            dst: 0,
            lines: 0,
            hasher: Md5::new(),
            digest: Vec::new(),
            digest_written: false,
            engine: StreamEngine::new(0, 0),
            state_pad: 0,
        }
    }

    /// Register: worst-case state padding in bytes (see `state_pad`),
    /// clamped to the device's on-chip RAM.
    pub const REG_STATE_PAD: u64 = 56;
}

impl Md5Kernel {
    fn write_extra_reg(&mut self, offset: u64, value: u64) {
        if offset == Self::REG_STATE_PAD {
            // Every save allocates the pad: at most all of on-chip RAM,
            // above Fig 8's 3 MiB worst case.
            self.state_pad = value.min(crate::ONCHIP_RAM_BYTES);
        }
    }
}

impl Kernel for Md5Kernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    common_regs!();

    fn start(&mut self) {
        self.hasher = Md5::new();
        self.digest.clear();
        self.digest_written = false;
        self.engine = StreamEngine::new(self.src, self.lines);
    }

    fn done(&self) -> bool {
        self.digest_written && self.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        self.engine.absorb(port);
        self.engine.issue_reads(port, now);
        // One line per 100 MHz cycle: no pacer needed, consume at most one
        // in-order line per step.
        if let Some((_, line)) = self.engine.next_line() {
            self.hasher.update(&line[..]);
        }
        if self.engine.input_exhausted() && !self.digest_written && port.can_issue() {
            let digest = self.hasher.clone().finalize();
            self.digest = digest.to_vec();
            let mut out = [0u8; 64];
            out[..16].copy_from_slice(&digest);
            port.write(Gva::new(self.dst), Box::new(out), now);
            self.engine.note_write();
            self.digest_written = true;
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.src).u64(self.dst).u64(self.lines).u64(self.engine.consumed());
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
        self.src = r.u64()?;
        self.dst = r.u64()?;
        self.lines = r.u64()?;
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
        self.digest.clear();
        self.digest_written = false;
        self.engine = StreamEngine::new(self.src, self.lines);
        self.engine.resume_at(cursor);
        Some(())
    }

    fn reset(&mut self) {
        *self = Md5Kernel::new();
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        // With an empty response queue (the harness checks), a step only
        // does something if it can issue read-ahead, consume an arrived
        // line, or write the final digest.
        let can_read = self.engine.wants_reads() && port.can_issue();
        let can_finish =
            self.engine.input_exhausted() && !self.digest_written && port.can_issue();
        if can_read || self.engine.has_next() || can_finish {
            Some(now)
        } else {
            None
        }
    }
}

/// Per-line cost of the SHA-512 pipeline at 200 MHz.
const SHA_LINE_COST: f64 = 4.5;

/// The SHA-512 streaming hasher (200 MHz, one line per 4.5 cycles).
#[derive(Debug)]
pub struct Sha512Kernel {
    meta: AccelMeta,
    src: u64,
    dst: u64,
    lines: u64,
    hasher: Sha512,
    digest: Vec<u8>,
    digest_written: bool,
    engine: StreamEngine,
    pacer: Pacer,
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
            src: 0,
            dst: 0,
            lines: 0,
            hasher: Sha512::new(),
            digest: Vec::new(),
            digest_written: false,
            engine: StreamEngine::new(0, 0),
            pacer: Pacer::new(),
        }
    }
}

impl Sha512Kernel {
    fn write_extra_reg(&mut self, _offset: u64, _value: u64) {}
}

impl Kernel for Sha512Kernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    common_regs!();

    fn start(&mut self) {
        self.hasher = Sha512::new();
        self.digest.clear();
        self.digest_written = false;
        self.engine = StreamEngine::new(self.src, self.lines);
        self.pacer.reset();
    }

    fn done(&self) -> bool {
        self.digest_written && self.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        self.pacer.tick(2.0 * SHA_LINE_COST);
        self.engine.absorb(port);
        self.engine.issue_reads(port, now);
        while self.engine.has_next() && self.pacer.try_spend(SHA_LINE_COST) {
            let (_, line) = self.engine.next_line().expect("has_next checked");
            self.hasher.update(&line[..]);
        }
        if self.engine.input_exhausted() && !self.digest_written && port.can_issue() {
            let digest = self.hasher.clone().finalize();
            self.digest = digest.to_vec();
            let mut out = [0u8; 64];
            out.copy_from_slice(&digest);
            port.write(Gva::new(self.dst), Box::new(out), now);
            self.engine.note_write();
            self.digest_written = true;
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let snap = self.hasher.snapshot();
        let mut w = Writer::new();
        w.u64(self.src).u64(self.dst).u64(self.lines).u64(self.engine.consumed());
        for word in snap.state {
            w.u64(word);
        }
        w.u64(snap.length_bytes as u64); // line counts keep this < 2^64
        w.bytes(&snap.buffer);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.src = r.u64()?;
        self.dst = r.u64()?;
        self.lines = r.u64()?;
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
        self.digest.clear();
        self.digest_written = false;
        self.engine = StreamEngine::new(self.src, self.lines);
        self.engine.resume_at(cursor);
        self.pacer.reset();
        Some(())
    }

    fn reset(&mut self) {
        *self = Sha512Kernel::new();
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        // Same conditions as MD5, plus the pacer: a tick below the credit
        // cap mutates state, so the kernel is only quiescent once the bank
        // is saturated (the min-clamp then re-assigns exactly the cap).
        if !self.pacer.saturated(2.0 * SHA_LINE_COST) {
            return Some(now);
        }
        let can_read = self.engine.wants_reads() && port.can_issue();
        let can_finish =
            self.engine.input_exhausted() && !self.digest_written && port.can_issue();
        if can_read || self.engine.has_next() || can_finish {
            Some(now)
        } else {
            None
        }
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

    fn run_to_done(acc: &mut dyn Accelerator, store: &mut Vec<u8>, limit: Cycle) {
        let mut port = AccelPort::new();
        for now in 0..limit {
            acc.step(now, &mut port);
            service(&mut port, store, now);
            if acc.is_done() {
                return;
            }
        }
        panic!("kernel never finished");
    }

    #[test]
    fn md5_matches_reference() {
        let mut acc = Harnessed::new(Md5Kernel::new());
        let mut store = vec![0u8; 0x4000];
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 3) as u8).collect();
        store[0x400..0x800].copy_from_slice(&data);
        acc.mmio_write(accel_reg::APP_BASE + reg::SRC, 0x400);
        acc.mmio_write(accel_reg::APP_BASE + reg::DST, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + reg::LINES, 16);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        run_to_done(&mut acc, &mut store, 10_000);
        let expect = optimus_algo::md5::md5(&data);
        assert_eq!(&store[0x1000..0x1010], &expect[..]);
        // Digest registers mirror the result.
        assert_eq!(
            acc.mmio_read(accel_reg::APP_BASE + reg::DIGEST0),
            u64::from_le_bytes(expect[0..8].try_into().unwrap())
        );
    }

    #[test]
    fn sha512_matches_reference() {
        let mut acc = Harnessed::new(Sha512Kernel::new());
        let mut store = vec![0u8; 0x4000];
        let data: Vec<u8> = (0..2048u32).map(|i| (i ^ 0x5A) as u8).collect();
        store[0x800..0x1000].copy_from_slice(&data);
        acc.mmio_write(accel_reg::APP_BASE + reg::SRC, 0x800);
        acc.mmio_write(accel_reg::APP_BASE + reg::DST, 0x2000);
        acc.mmio_write(accel_reg::APP_BASE + reg::LINES, 32);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        run_to_done(&mut acc, &mut store, 10_000);
        let expect = optimus_algo::sha2::sha512(&data);
        assert_eq!(&store[0x2000..0x2040], &expect[..]);
    }

    #[test]
    fn md5_preempt_resume_digest_intact() {
        let mut acc = Harnessed::new(Md5Kernel::new());
        let mut port = AccelPort::new();
        let mut store = vec![0u8; 0x20000];
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
        store[0x1000..0x3000].copy_from_slice(&data);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x10000);
        acc.mmio_write(accel_reg::APP_BASE + reg::SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + reg::DST, 0x8000);
        acc.mmio_write(accel_reg::APP_BASE + reg::LINES, 128);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut now = 0;
        for _ in 0..40 {
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
        *acc.kernel_mut() = Md5Kernel::new();
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
        while !acc.is_done() {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            now += 1;
            assert!(now < 100_000);
        }
        assert_eq!(&store[0x8000..0x8010], &optimus_algo::md5::md5(&data)[..]);
    }

    #[test]
    fn md5_consumes_one_line_per_cycle() {
        // 100 lines should take ≈ 100 kernel cycles once the pipeline fills.
        let mut acc = Harnessed::new(Md5Kernel::new());
        let mut port = AccelPort::new();
        let mut store = vec![0u8; 0x4000];
        acc.mmio_write(accel_reg::APP_BASE + reg::LINES, 100);
        acc.mmio_write(accel_reg::APP_BASE + reg::DST, 0x3000);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut finished = 0;
        for now in 0..10_000 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            if acc.is_done() {
                finished = now;
                break;
            }
        }
        assert!(finished > 0 && finished < 140, "took {finished} cycles");
    }

    #[test]
    fn empty_input_hashes_empty_string() {
        let mut acc = Harnessed::new(Md5Kernel::new());
        let mut store = vec![0u8; 0x1000];
        acc.mmio_write(accel_reg::APP_BASE + reg::DST, 0x800);
        acc.mmio_write(accel_reg::APP_BASE + reg::LINES, 0);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        run_to_done(&mut acc, &mut store, 1000);
        assert_eq!(&store[0x800..0x810], &optimus_algo::md5::md5(b"")[..]);
    }
}
