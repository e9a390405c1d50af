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
use crate::stream::StreamShell;
use optimus_algo::aes::Aes128;
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::time::Cycle;

/// Per-line compute cost in 200 MHz cycles (read + write per line ⇒
/// demand = 2/cost of the monitor's packet rate).
const LINE_COST: f64 = 14.0;

/// The AES-128 streaming kernel.
#[derive(Debug)]
pub struct AesKernel {
    meta: AccelMeta,
    shell: StreamShell,
    key: [u8; 16],
    cipher: Option<Aes128>,
}

impl Default for AesKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl AesKernel {
    /// Register: source GVA.
    pub const REG_SRC: u64 = StreamShell::REG_SRC;
    /// Register: destination GVA.
    pub const REG_DST: u64 = StreamShell::REG_DST;
    /// Register: line count.
    pub const REG_LINES: u64 = StreamShell::REG_LINES;
    /// Register: key bytes 0..8 (little-endian).
    pub const REG_KEY0: u64 = 24;
    /// Register: key bytes 8..16 (little-endian).
    pub const REG_KEY1: u64 = 32;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Aes.meta(),
            shell: StreamShell::new(),
            key: [0; 16],
            cipher: None,
        }
    }
}

impl Kernel for AesKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_KEY0 => self.key[0..8].copy_from_slice(&value.to_le_bytes()),
            Self::REG_KEY1 => self.key[8..16].copy_from_slice(&value.to_le_bytes()),
            _ => self.shell.write_reg(offset, value),
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_KEY0 => u64::from_le_bytes(self.key[0..8].try_into().unwrap()),
            Self::REG_KEY1 => u64::from_le_bytes(self.key[8..16].try_into().unwrap()),
            _ => self.shell.read_reg(offset),
        }
    }

    fn start(&mut self) {
        self.cipher = Some(Aes128::new(&self.key));
        self.shell.start_at(0);
    }

    fn done(&self) -> bool {
        self.shell.engine.input_exhausted() && self.shell.engine.writes_settled()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        let shell = &mut self.shell;
        shell.pump(2.0 * LINE_COST, now, port);
        while shell.engine.has_next() && port.can_issue() && shell.pacer.try_spend(LINE_COST) {
            let (idx, line) = shell.engine.next_line().expect("has_next checked");
            let mut out = *line;
            self.cipher
                .as_ref()
                .expect("start() builds the cipher")
                .encrypt_ecb(&mut out);
            shell.write_line(idx, out, now, port);
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.shell.save(&mut w);
        w.u64(self.shell.engine.consumed()).bytes(&self.key);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.shell.load(&mut r)?;
        let cursor = r.u64()?;
        self.key = r.bytes()?.try_into().ok()?;
        self.cipher = Some(Aes128::new(&self.key));
        self.shell.start_at(cursor);
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
    use crate::rig::{self, Rig};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    /// Encrypts `plain` from 0x1000 into 0x4000 under `key`, preempted
    /// after `preempt_at` cycles if given; returns the ciphertext.
    fn encrypt(plain: &[u8], key: [u64; 2], preempt_at: Option<Cycle>) -> Vec<u8> {
        let mut acc = Harnessed::new(AesKernel::new());
        let mut rig = Rig::new(vec![0u8; 0x1000]);
        rig.mem.extend_from_slice(plain);
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x10000);
        rig::start(
            &mut acc,
            &[
                (AesKernel::REG_SRC, 0x1000),
                (AesKernel::REG_DST, 0x4000),
                (AesKernel::REG_LINES, plain.len() as u64 / 64),
                (AesKernel::REG_KEY0, key[0]),
                (AesKernel::REG_KEY1, key[1]),
            ],
        );
        if let Some(cycles) = preempt_at {
            rig.run(&mut acc, cycles);
            rig.preempt_resume(&mut acc, AesKernel::new());
        }
        rig.finish(&mut acc, 100_000);
        rig.mem[0x4000..0x4000 + plain.len()].to_vec()
    }

    fn reference(plain: &[u8], key: [u64; 2]) -> Vec<u8> {
        let bytes: Vec<u8> = key.iter().flat_map(|k| k.to_le_bytes()).collect();
        let mut out = plain.to_vec();
        Aes128::new(&bytes.try_into().unwrap()).encrypt_ecb(&mut out);
        out
    }

    #[test]
    fn encrypts_correctly_end_to_end() {
        let plain: Vec<u8> = (0..512u32).map(|i| (i * 7) as u8).collect();
        let key = [0x0807060504030201, 0x100F0E0D0C0B0A09];
        assert_eq!(encrypt(&plain, key, None), reference(&plain, key));
    }

    #[test]
    fn pacing_matches_demand_profile() {
        // At one line per 14 cycles with read+write, demand = 2/14 ≈ 0.143.
        let mut acc = Harnessed::new(AesKernel::new());
        let mut rig = Rig::new(Vec::new());
        rig::start(
            &mut acc,
            &[(AesKernel::REG_LINES, 500), (AesKernel::REG_DST, 0x80000)],
        );
        let per_line = rig.finish(&mut acc, 100_000) as f64 / 500.0;
        assert!(
            (13.0..16.0).contains(&per_line),
            "AES paced at {per_line} cycles/line"
        );
    }

    #[test]
    fn preempt_resume_preserves_ciphertext() {
        let plain: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let key = [42, 0];
        assert_eq!(encrypt(&plain, key, Some(300)), reference(&plain, key));
    }
}
