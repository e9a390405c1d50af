//! The AES benchmark: a streaming AES-128 ECB encryptor.
//!
//! Reads plaintext lines (four 16-byte blocks per 64-byte line), encrypts
//! them with the programmed key, and writes ciphertext lines to the
//! destination. The 14-cycle line interval at 200 MHz reproduces the
//! design's measured bandwidth share (Table 4: a co-located MemBench keeps
//! 0.86× of its bandwidth, i.e. AES consumes ≈ 14 % of the monitor's
//! packet slots with its read + write per line).

use crate::harness::Kernel;
use crate::ser::{Reader, Writer};
use crate::stream::{Pacer, StreamEngine};
use optimus_algo::aes::Aes128;
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;

/// Per-line compute cost in 200 MHz cycles (read + write per line ⇒
/// demand = 2/cost of the monitor's packet rate).
const LINE_COST: f64 = 14.0;

/// The AES-128 streaming kernel.
#[derive(Debug)]
pub struct AesKernel {
    meta: AccelMeta,
    src: u64,
    dst: u64,
    lines: u64,
    key: [u8; 16],
    cipher: Option<Aes128>,
    engine: StreamEngine,
    pacer: Pacer,
}

impl Default for AesKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl AesKernel {
    /// Register: source GVA.
    pub const REG_SRC: u64 = 0;
    /// Register: destination GVA.
    pub const REG_DST: u64 = 8;
    /// Register: line count.
    pub const REG_LINES: u64 = 16;
    /// Register: key bytes 0..8 (little-endian).
    pub const REG_KEY0: u64 = 24;
    /// Register: key bytes 8..16 (little-endian).
    pub const REG_KEY1: u64 = 32;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Aes.meta(),
            src: 0,
            dst: 0,
            lines: 0,
            key: [0; 16],
            cipher: None,
            engine: StreamEngine::new(0, 0),
            pacer: Pacer::new(),
        }
    }
}

impl Kernel for AesKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_SRC => self.src = value,
            Self::REG_DST => self.dst = value,
            Self::REG_LINES => self.lines = value,
            Self::REG_KEY0 => self.key[0..8].copy_from_slice(&value.to_le_bytes()),
            Self::REG_KEY1 => self.key[8..16].copy_from_slice(&value.to_le_bytes()),
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_SRC => self.src,
            Self::REG_DST => self.dst,
            Self::REG_LINES => self.lines,
            Self::REG_KEY0 => u64::from_le_bytes(self.key[0..8].try_into().unwrap()),
            Self::REG_KEY1 => u64::from_le_bytes(self.key[8..16].try_into().unwrap()),
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.cipher = Some(Aes128::new(&self.key));
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
            let mut out = *line;
            self.cipher
                .as_ref()
                .expect("start() builds the cipher")
                .encrypt_ecb(&mut out);
            port.write(Gva::new(self.dst + idx * 64), Box::new(out), now);
            self.engine.note_write();
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.src)
            .u64(self.dst)
            .u64(self.lines)
            .u64(self.engine.consumed())
            .bytes(&self.key);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.src = r.u64()?;
        self.dst = r.u64()?;
        self.lines = r.u64()?;
        let cursor = r.u64()?;
        self.key = r.bytes()?.try_into().ok()?;
        self.cipher = Some(Aes128::new(&self.key));
        self.engine = StreamEngine::new(self.src, self.lines);
        self.engine.resume_at(cursor);
        self.pacer.reset();
        Some(())
    }

    fn reset(&mut self) {
        *self = AesKernel::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    /// In-memory loopback service for unit tests.
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

    #[test]
    fn encrypts_correctly_end_to_end() {
        let mut acc = Harnessed::new(AesKernel::new());
        let mut port = AccelPort::new();
        let mut store = vec![0u8; 0x4000];
        let plain: Vec<u8> = (0..512u32).map(|i| (i * 7) as u8).collect();
        store[0x1000..0x1200].copy_from_slice(&plain);

        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_DST, 0x2000);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_LINES, 8);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_KEY0, 0x0807060504030201);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_KEY1, 0x100F0E0D0C0B0A09);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        for now in 0..10_000 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            if acc.is_done() {
                break;
            }
        }
        assert!(acc.is_done());

        let key: [u8; 16] = (1..=16u8).collect::<Vec<_>>().try_into().unwrap();
        let mut expect = plain.clone();
        Aes128::new(&key).encrypt_ecb(&mut expect);
        assert_eq!(&store[0x2000..0x2200], &expect[..]);
    }

    #[test]
    fn pacing_matches_demand_profile() {
        // At one line per 14 cycles with read+write, demand = 2/14 ≈ 0.143.
        let mut acc = Harnessed::new(AesKernel::new());
        let mut port = AccelPort::new();
        let mut store = vec![0u8; 1 << 20];
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_LINES, 500);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_DST, 0x80000);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut cycles = 0u64;
        for now in 0..100_000 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            cycles = now;
            if acc.is_done() {
                break;
            }
        }
        let per_line = cycles as f64 / 500.0;
        assert!(
            (13.0..16.0).contains(&per_line),
            "AES paced at {per_line} cycles/line"
        );
    }

    #[test]
    fn preempt_resume_preserves_ciphertext() {
        let mut acc = Harnessed::new(AesKernel::new());
        let mut port = AccelPort::new();
        let mut store = vec![0u8; 0x20000];
        let plain: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        store[0x1000..0x2000].copy_from_slice(&plain);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x10000);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_SRC, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_DST, 0x4000);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_LINES, 64);
        acc.mmio_write(accel_reg::APP_BASE + AesKernel::REG_KEY0, 42);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        // Run a little, preempt, clobber, resume.
        let mut now = 0;
        for _ in 0..300 {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            now += 1;
        }
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_PREEMPT);
        while acc.status() != optimus_fabric::accelerator::CtrlStatus::Saved {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            now += 1;
        }
        *acc.kernel_mut() = AesKernel::new(); // another vaccel ran here
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
        while !acc.is_done() {
            acc.step(now, &mut port);
            service(&mut port, &mut store, now);
            now += 1;
            assert!(now < 100_000);
        }
        let mut key = [0u8; 16];
        key[0..8].copy_from_slice(&42u64.to_le_bytes());
        let mut expect = plain.clone();
        Aes128::new(&key).encrypt_ecb(&mut expect);
        assert_eq!(&store[0x4000..0x5000], &expect[..]);
    }
}
