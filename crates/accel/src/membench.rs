//! MemBench: the bandwidth-saturating micro-benchmark (§6.1).
//!
//! "MemBench concurrently issues random DMA read and write requests in
//! order to saturate HARP's bandwidth. The random reads and writes result
//! in the worst-case effects of IOTLB misses." The kernel issues one
//! request per 400 MHz cycle (as many as the port will take), at uniformly
//! random line addresses within its region, in read-only, write-only, or
//! mixed mode. It implements the full preemption interface — its state is
//! just the RNG and the operation counter.

use crate::harness::Kernel;
use crate::mover;
use crate::ser::{Reader, Writer};
use optimus_fabric::accelerator::{AccelMeta, AccelPort};
use optimus_sim::rng::Xoshiro256;
use optimus_sim::time::Cycle;

/// Access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbMode {
    /// Random reads only.
    Read,
    /// Random writes only.
    Write,
    /// Alternating reads and writes.
    Mixed,
}

impl MbMode {
    fn from_u64(v: u64) -> Self {
        match v {
            1 => MbMode::Write,
            2 => MbMode::Mixed,
            _ => MbMode::Read,
        }
    }

    fn to_u64(self) -> u64 {
        match self {
            MbMode::Read => 0,
            MbMode::Write => 1,
            MbMode::Mixed => 2,
        }
    }
}

/// The MemBench kernel.
#[derive(Debug)]
pub struct MbKernel {
    meta: AccelMeta,
    region: u64,
    bytes: u64,
    mode: MbMode,
    ops_target: u64,
    issued: u64,
    completed: u64,
    rng: Xoshiro256,
    seed: u64,
}

impl MbKernel {
    /// Register: region base GVA.
    pub const REG_REGION: u64 = 0;
    /// Register: region size in bytes.
    pub const REG_BYTES: u64 = 8;
    /// Register: access mode (0 read / 1 write / 2 mixed).
    pub const REG_MODE: u64 = 16;
    /// Register: operations to perform (0 = run until preempted).
    pub const REG_OPS: u64 = 24;
    /// Register: RNG seed.
    pub const REG_SEED: u64 = 32;
    /// Register (read-only): operations completed.
    pub const REG_COMPLETED: u64 = 40;

    /// Creates an idle kernel.
    pub fn new(seed: u64) -> Self {
        Self {
            meta: crate::registry::AccelKind::Mb.meta(),
            region: 0,
            bytes: 0,
            mode: MbMode::Read,
            ops_target: 0,
            issued: 0,
            completed: 0,
            rng: Xoshiro256::seed_from(seed),
            seed,
        }
    }
}

impl Kernel for MbKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_REGION => self.region = value,
            Self::REG_BYTES => self.bytes = value,
            Self::REG_MODE => self.mode = MbMode::from_u64(value),
            Self::REG_OPS => self.ops_target = value,
            Self::REG_SEED => self.seed = value,
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_REGION => self.region,
            Self::REG_BYTES => self.bytes,
            Self::REG_MODE => self.mode.to_u64(),
            Self::REG_OPS => self.ops_target,
            Self::REG_SEED => self.seed,
            Self::REG_COMPLETED => self.completed,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.issued = 0;
        self.completed = 0;
        self.rng = Xoshiro256::seed_from(self.seed);
    }

    fn done(&self) -> bool {
        self.ops_target > 0 && self.completed >= self.ops_target
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        while port.pop_response().is_some() {
            self.completed += 1;
        }
        if self.bytes < 64 {
            return;
        }
        let lines = self.bytes / 64;
        // One request per 400 MHz cycle — the saturating pattern.
        if (self.ops_target == 0 || self.issued < self.ops_target) && port.can_issue() {
            let line = self.rng.gen_range(0..lines);
            let gva = mover::line(self.region, line);
            let write = match self.mode {
                MbMode::Read => false,
                MbMode::Write => true,
                MbMode::Mixed => self.issued % 2 == 1,
            };
            if write {
                let mut data = [0u8; 64];
                data[..8].copy_from_slice(&self.issued.to_le_bytes());
                port.write(gva, Box::new(data), now);
            } else {
                port.read(gva, now);
            }
            self.issued += 1;
        }
    }

    fn on_drain_response(&mut self, _resp: optimus_fabric::accelerator::AccelResponse) {
        // A drained op is a retired op. Counting it here makes
        // `completed == issued` by the time the engine serializes (the
        // port is fully drained first), so `restore`'s `issued =
        // completed` rewind is exact: no op is replayed against an RNG
        // that already drew its address, which would send the replay to
        // a different line than the one the original write landed on.
        self.completed += 1;
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.region)
            .u64(self.bytes)
            .u64(self.mode.to_u64())
            .u64(self.ops_target)
            .u64(self.completed)
            .u64(self.seed);
        for word in self.rng.state() {
            w.u64(word);
        }
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.region = r.u64()?;
        self.bytes = r.u64()?;
        self.mode = MbMode::from_u64(r.u64()?);
        self.ops_target = r.u64()?;
        self.completed = r.u64()?;
        self.seed = r.u64()?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        self.rng = Xoshiro256::from_state(state);
        self.issued = self.completed;
        Some(())
    }

    fn reset(&mut self) {
        *self = MbKernel::new(self.seed);
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        // With no responses queued (the harness checks), a step only does
        // something if it can issue: region valid, ops remaining, port
        // willing. Otherwise the kernel idles against port backpressure.
        if self.bytes < 64 {
            return None;
        }
        let want_issue = self.ops_target == 0 || self.issued < self.ops_target;
        if want_issue && port.can_issue() {
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
    use crate::rig::{self, Rig};
    use optimus_fabric::accelerator::Accelerator;
    use optimus_fabric::mmio::accel_reg;

    #[test]
    fn issues_one_request_per_cycle() {
        let mut acc = Harnessed::new(MbKernel::new(1));
        rig::start(
            &mut acc,
            &[(MbKernel::REG_BYTES, 1 << 20), (MbKernel::REG_OPS, 500)],
        );
        let finished = Rig::new(Vec::new()).finish(&mut acc, 5_000);
        assert!(finished > 0 && finished < 600, "took {finished} cycles");
    }

    #[test]
    fn unbounded_mode_never_finishes() {
        let mut acc = Harnessed::new(MbKernel::new(2));
        rig::start(&mut acc, &[(MbKernel::REG_BYTES, 1 << 16)]);
        Rig::new(Vec::new()).run(&mut acc, 1000);
        assert!(!acc.is_done());
        assert!(acc.mmio_read(accel_reg::APP_BASE + MbKernel::REG_COMPLETED) > 500);
    }

    #[test]
    fn mixed_mode_alternates() {
        let mut k = MbKernel::new(3);
        k.write_reg(MbKernel::REG_BYTES, 1 << 16);
        k.write_reg(MbKernel::REG_MODE, 2);
        k.start();
        let mut port = AccelPort::new();
        let mut reads = 0;
        let mut writes = 0;
        for now in 0..100 {
            k.step(now, &mut port);
            while let Some(req) = port.take_pending() {
                if req.write.is_some() {
                    writes += 1;
                    port.deliver(req.tag, None, now);
                } else {
                    reads += 1;
                    port.deliver(req.tag, Some(Box::new([0; 64])), now);
                }
            }
        }
        assert_eq!(reads, 50);
        assert_eq!(writes, 50);
    }

    #[test]
    fn addresses_stay_inside_region() {
        let mut k = MbKernel::new(4);
        k.write_reg(MbKernel::REG_REGION, 0x10000);
        k.write_reg(MbKernel::REG_BYTES, 0x1000);
        k.start();
        let mut port = AccelPort::new();
        for now in 0..200 {
            k.step(now, &mut port);
            while let Some(req) = port.take_pending() {
                assert!(req.gva.raw() >= 0x10000 && req.gva.raw() < 0x11000);
                assert!(req.gva.is_aligned(64));
                port.deliver(req.tag, Some(Box::new([0; 64])), now);
            }
        }
    }

    #[test]
    fn preempt_resume_preserves_counters() {
        let mut acc = Harnessed::new(MbKernel::new(5));
        let mut rig = Rig::new(Vec::new());
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x10000);
        rig::start(
            &mut acc,
            &[(MbKernel::REG_BYTES, 0x8000), (MbKernel::REG_OPS, 1000)],
        );
        rig.run(&mut acc, 300);
        assert!(acc.kernel().completed > 100);
        rig.preempt_resume(&mut acc, MbKernel::new(0));
        rig.finish(&mut acc, 100_000);
        assert_eq!(acc.kernel().completed, 1000);
    }
}
