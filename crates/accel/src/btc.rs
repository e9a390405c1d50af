//! BTC: the bitcoin mining benchmark.
//!
//! Ported from the open-source FPGA miner the paper uses: reads an 80-byte
//! block header (two cache lines) once, then grinds double-SHA-256 over a
//! nonce range at one hash per four 100 MHz cycles — almost entirely
//! compute-bound, touching memory only for the header and the found-nonce
//! report, which is why a co-located MemBench keeps 1.00× of its bandwidth
//! (Table 4).

use crate::harness::Kernel;
use crate::mover::{Gather, Got};
use crate::ser::{Reader, Writer};
use crate::stream::Pacer;
use optimus_algo::bitcoin::{meets_target, BlockHeader};
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::time::Cycle;

/// Cycles per attempted nonce at 100 MHz (a 4-deep hash pipeline).
const HASH_COST: f64 = 4.0;

#[derive(Debug)]
enum Phase {
    /// Reading the header's two lines.
    FetchHeader(Gather),
    Mining,
    Finished,
}

/// The bitcoin miner kernel.
#[derive(Debug)]
pub struct BtcKernel {
    meta: AccelMeta,
    src: u64,
    target_prefix: u32,
    start_nonce: u64,
    count: u64,
    header_bytes: [u8; 80],
    cursor: u64,
    found: u64,
    phase: Phase,
    pacer: Pacer,
}

impl Default for BtcKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl BtcKernel {
    /// Register: GVA of the 80-byte header.
    pub const REG_SRC: u64 = 0;
    /// Register: 4-byte target prefix (low 32 bits).
    pub const REG_TARGET: u64 = 8;
    /// Register: first nonce to try.
    pub const REG_START_NONCE: u64 = 16;
    /// Register: nonces to scan.
    pub const REG_COUNT: u64 = 24;
    /// Register (read-only): found nonce, or `u64::MAX` if none.
    pub const REG_FOUND: u64 = 32;
    /// Register (read-only): nonces attempted.
    pub const REG_ATTEMPTS: u64 = 40;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Btc.meta(),
            src: 0,
            target_prefix: 0,
            start_nonce: 0,
            count: 0,
            header_bytes: [0; 80],
            cursor: 0,
            found: u64::MAX,
            phase: Phase::Finished,
            pacer: Pacer::new(),
        }
    }
}

impl Kernel for BtcKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_SRC => self.src = value,
            Self::REG_TARGET => self.target_prefix = value as u32,
            Self::REG_START_NONCE => self.start_nonce = value,
            Self::REG_COUNT => self.count = value,
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_SRC => self.src,
            Self::REG_TARGET => self.target_prefix as u64,
            Self::REG_START_NONCE => self.start_nonce,
            Self::REG_COUNT => self.count,
            Self::REG_FOUND => self.found,
            Self::REG_ATTEMPTS => self.cursor,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.cursor = 0;
        self.found = u64::MAX;
        self.phase = if self.count == 0 {
            Phase::Finished
        } else {
            Phase::FetchHeader(Gather::new([(self.src, 2)]))
        };
        self.pacer.reset();
    }

    fn done(&self) -> bool {
        matches!(self.phase, Phase::Finished)
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        match &mut self.phase {
            // Both reads go out in the first cycle; mining starts on the
            // step after the last line lands, and a master-aborted line
            // ends the job unmined.
            Phase::FetchHeader(fetch) => match fetch.poll(port, now, 2) {
                Got::Pending => {}
                Got::Aborted => self.phase = Phase::Finished,
                Got::Lines => {
                    self.header_bytes[..64].copy_from_slice(fetch.line(0));
                    self.header_bytes[64..].copy_from_slice(&fetch.line(1)[..16]);
                    self.phase = Phase::Mining;
                }
            },
            Phase::Mining => {
                self.pacer.tick(4.0 * HASH_COST);
                while self.cursor < self.count && self.pacer.try_spend(HASH_COST) {
                    let mut header = BlockHeader::from_bytes(&self.header_bytes);
                    header.nonce = (self.start_nonce + self.cursor) as u32;
                    if meets_target(&header.pow_hash(), self.target_prefix.to_be_bytes()) {
                        self.found = header.nonce as u64;
                        self.cursor += 1;
                        self.phase = Phase::Finished;
                        return;
                    }
                    self.cursor += 1;
                }
                if self.cursor >= self.count {
                    self.phase = Phase::Finished;
                }
            }
            Phase::Finished => {}
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.src)
            .u64(self.target_prefix as u64)
            .u64(self.start_nonce)
            .u64(self.count)
            .u64(self.cursor)
            .u64(self.found)
            .bytes(&self.header_bytes);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.src = r.u64()?;
        self.target_prefix = r.u64()? as u32;
        self.start_nonce = r.u64()?;
        self.count = r.u64()?;
        self.cursor = r.u64()?;
        self.found = r.u64()?;
        self.header_bytes = r.bytes()?.try_into().ok()?;
        self.phase = if self.found != u64::MAX || self.cursor >= self.count {
            Phase::Finished
        } else {
            Phase::Mining
        };
        self.pacer.reset();
        Some(())
    }

    fn reset(&mut self) {
        *self = BtcKernel::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harnessed;
    use crate::rig::{self, Rig};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    /// Mines `count` nonces against `target` over the example header;
    /// returns (found, attempts, the cycle the job finished in).
    fn mine(target: u32, count: u64) -> (u64, u64, Cycle) {
        let mut acc = Harnessed::new(BtcKernel::new());
        let mut mem = vec![0u8; 0x100];
        mem.extend_from_slice(&BlockHeader::example().to_bytes());
        rig::start(
            &mut acc,
            &[
                (BtcKernel::REG_SRC, 0x100),
                (BtcKernel::REG_TARGET, target as u64),
                (BtcKernel::REG_COUNT, count),
            ],
        );
        let finished = Rig::new(mem).finish(&mut acc, 1_000_000);
        (
            acc.mmio_read(accel_reg::APP_BASE + BtcKernel::REG_FOUND),
            acc.mmio_read(accel_reg::APP_BASE + BtcKernel::REG_ATTEMPTS),
            finished,
        )
    }

    #[test]
    fn finds_the_same_nonce_as_software() {
        let target = 0x0FFF_FFFFu32;
        let expect = optimus_algo::bitcoin::mine_range(
            &BlockHeader::example(),
            target.to_be_bytes(),
            0,
            10_000,
        );
        let (found, attempts, _) = mine(target, 10_000);
        assert_eq!(found, expect.unwrap() as u64);
        assert_eq!(attempts, found + 1);
    }

    #[test]
    fn exhausted_range_reports_no_nonce() {
        let (found, attempts, _) = mine(0, 200);
        assert_eq!(found, u64::MAX);
        assert_eq!(attempts, 200);
    }

    #[test]
    fn paces_four_cycles_per_hash() {
        // 100 hashes × 4 cycles + header fetch.
        let (.., finished) = mine(0, 100);
        assert!((390..500).contains(&finished), "took {finished}");
    }
}
