//! WildDma: the adversarial isolation prober.
//!
//! WildDma interleaves a well-behaved MemBench-style stream inside its own
//! region with *wild* probes aimed at guest addresses its tenant was never
//! given — past the end of the slice, into the IOTLB-mitigation gap, or at
//! a neighbouring tenant's slice. A correct hypervisor master-aborts every
//! wild probe at the auditor window (reads return no data, writes touch
//! nothing) while the legitimate stream completes bit-identically to a run
//! without the wild traffic. The kernel keeps its own tag ledger because a
//! master-aborted read response (`data: None`) is indistinguishable from a
//! write acknowledgment on the wire.
//!
//! Legit reads sample the *lower* half of the region and legit writes land
//! in the *upper* half, so the read checksum never races the kernel's own
//! stores: it fingerprints exactly the bytes the guest placed there before
//! CMD_START and is therefore schedule-independent — the observable the
//! noninterference suite compares across aggressor configurations.
//!
//! All addressing is counter-indexed (`SplitMix64::mix` over the op index)
//! rather than drawn from a stateful RNG stream, so preempt/resume restores
//! from counters alone and a replayed op always targets the line the
//! original did.

use crate::harness::Kernel;
use crate::mover::line;
use crate::ser::{Reader, Writer};
use optimus_fabric::accelerator::{AccelMeta, AccelPort, AccelResponse};
use optimus_mem::addr::Gva;
use optimus_sim::hashing::FastMap;
use optimus_sim::rng::SplitMix64;
use optimus_sim::time::Cycle;

/// What an in-flight tag was issued for. Needed to classify responses:
/// `data: None` means "write ack" for legit writes but "master abort" for
/// wild reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    LegitRead,
    LegitWrite,
    WildRead,
    WildWrite,
}

/// The WildDma kernel.
pub struct WildKernel {
    meta: AccelMeta,
    region: u64,
    bytes: u64,
    ops_target: u64,
    wild_base: u64,
    wild_bytes: u64,
    wild_every: u64,
    seed: u64,
    /// Legit ops issued; rewound to `completed` on restore.
    legit_issued: u64,
    /// Legit ops retired (response seen and folded).
    completed: u64,
    /// Wild probes issued; rewound to `wild_done` on restore.
    wild_issued: u64,
    /// Wild probes retired (master-abort or ack observed).
    wild_done: u64,
    /// XOR-fold over legit read data — commutative, so response reordering
    /// across channels does not change the fingerprint.
    checksum: u64,
    /// Wild *reads* that came back with data. Any nonzero value is an
    /// isolation breach: the fabric let a probe outside the window read
    /// host memory.
    wild_leaked: u64,
    /// Legit ops that came back master-aborted (read with no data). Any
    /// nonzero value means the auditor window is clamping legal traffic.
    legit_aborted: u64,
    /// Tag → (what it was issued for, target GVA). The GVA is folded into
    /// each legit read's checksum contribution so lines with equal content
    /// at different addresses still fingerprint distinctly.
    in_flight: FastMap<u32, (OpKind, u64)>,
}

impl WildKernel {
    /// Register: legitimate region base GVA.
    pub const REG_REGION: u64 = 0;
    /// Register: legitimate region size in bytes.
    pub const REG_BYTES: u64 = 8;
    /// Register: legitimate operations to perform.
    pub const REG_OPS: u64 = 16;
    /// Register: base GVA for wild probes (point it outside the slice).
    pub const REG_WILD_BASE: u64 = 24;
    /// Register: span of the wild probe area in bytes (0 = one line).
    pub const REG_WILD_BYTES: u64 = 32;
    /// Register: issue one wild probe after every N legit ops (0 = none).
    pub const REG_WILD_EVERY: u64 = 40;
    /// Register: address-hash seed.
    pub const REG_SEED: u64 = 48;
    /// Register (read-only): legit operations completed.
    pub const REG_COMPLETED: u64 = 56;
    /// Register (read-only): XOR-fold checksum over legit read data.
    pub const REG_CHECKSUM: u64 = 64;
    /// Register (read-only): wild probes issued.
    pub const REG_WILD_ISSUED: u64 = 72;
    /// Register (read-only): wild probes retired.
    pub const REG_WILD_DONE: u64 = 80;
    /// Register (read-only): wild reads that returned data (breaches).
    pub const REG_WILD_LEAKED: u64 = 88;
    /// Register (read-only): legit ops that were master-aborted.
    pub const REG_LEGIT_ABORTED: u64 = 96;

    /// Creates an idle kernel.
    pub fn new(seed: u64) -> Self {
        Self {
            meta: crate::registry::AccelKind::Wild.meta(),
            region: 0,
            bytes: 0,
            ops_target: 0,
            wild_base: 0,
            wild_bytes: 0,
            wild_every: 0,
            seed,
            legit_issued: 0,
            completed: 0,
            wild_issued: 0,
            wild_done: 0,
            checksum: 0,
            wild_leaked: 0,
            legit_aborted: 0,
            in_flight: FastMap::default(),
        }
    }

    /// Wild probes owed by the schedule: one per `wild_every` legit ops.
    fn wild_quota(&self) -> u64 {
        if self.wild_every == 0 {
            0
        } else {
            self.legit_issued / self.wild_every
        }
    }

    fn total_wild(&self) -> u64 {
        if self.wild_every == 0 {
            0
        } else {
            self.ops_target / self.wild_every
        }
    }

    /// Counter-indexed line address inside `[base, base + span)`.
    fn line_at(seed: u64, index: u64, base: u64, span: u64) -> Gva {
        let lines = (span / 64).max(1);
        let h = SplitMix64::mix(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        line(base, h % lines)
    }

    /// Commutative 64-bit fold of a cache line at a given address.
    fn fold_line(gva: u64, data: &[u8; 64]) -> u64 {
        let mut acc = 0u64;
        for chunk in data.chunks_exact(8) {
            acc ^= u64::from_le_bytes(chunk.try_into().unwrap());
        }
        SplitMix64::mix(acc ^ gva)
    }

    fn classify(&mut self, resp: AccelResponse) {
        let Some((kind, gva)) = self.in_flight.remove(&resp.tag.0) else {
            return;
        };
        match kind {
            OpKind::LegitRead => {
                match resp.data {
                    Some(line) => self.checksum ^= Self::fold_line(gva, &line),
                    None => self.legit_aborted += 1,
                }
                self.completed += 1;
            }
            OpKind::LegitWrite => self.completed += 1,
            OpKind::WildRead => {
                if resp.data.is_some() {
                    self.wild_leaked += 1;
                }
                self.wild_done += 1;
            }
            OpKind::WildWrite => self.wild_done += 1,
        }
    }
}

impl Kernel for WildKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_REGION => self.region = value,
            Self::REG_BYTES => self.bytes = value,
            Self::REG_OPS => self.ops_target = value,
            Self::REG_WILD_BASE => self.wild_base = value,
            Self::REG_WILD_BYTES => self.wild_bytes = value,
            Self::REG_WILD_EVERY => self.wild_every = value,
            Self::REG_SEED => self.seed = value,
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_REGION => self.region,
            Self::REG_BYTES => self.bytes,
            Self::REG_OPS => self.ops_target,
            Self::REG_WILD_BASE => self.wild_base,
            Self::REG_WILD_BYTES => self.wild_bytes,
            Self::REG_WILD_EVERY => self.wild_every,
            Self::REG_SEED => self.seed,
            Self::REG_COMPLETED => self.completed,
            Self::REG_CHECKSUM => self.checksum,
            Self::REG_WILD_ISSUED => self.wild_issued,
            Self::REG_WILD_DONE => self.wild_done,
            Self::REG_WILD_LEAKED => self.wild_leaked,
            Self::REG_LEGIT_ABORTED => self.legit_aborted,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.legit_issued = 0;
        self.completed = 0;
        self.wild_issued = 0;
        self.wild_done = 0;
        self.checksum = 0;
        self.wild_leaked = 0;
        self.legit_aborted = 0;
        self.in_flight = FastMap::default();
    }

    fn done(&self) -> bool {
        self.ops_target > 0
            && self.completed >= self.ops_target
            && self.wild_done >= self.total_wild()
            && self.in_flight.is_empty()
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        while let Some(resp) = port.pop_response() {
            self.classify(resp);
        }
        if self.bytes < 64 || self.ops_target == 0 || !port.can_issue() {
            return;
        }
        // Schedule: after every `wild_every` legit ops, one wild probe.
        if self.wild_issued < self.wild_quota() {
            let idx = self.wild_issued;
            let gva = Self::line_at(
                self.seed ^ 0x5157_494c_4444_4d41, // "WILDDMA" stream split
                idx,
                self.wild_base,
                self.wild_bytes,
            );
            let (kind, tag) = if idx % 2 == 0 {
                (OpKind::WildRead, port.read(gva, now))
            } else {
                let mut data = [0u8; 64];
                data[..8].copy_from_slice(&idx.to_le_bytes());
                (OpKind::WildWrite, port.write(gva, Box::new(data), now))
            };
            self.in_flight.insert(tag.0, (kind, gva.raw()));
            self.wild_issued += 1;
        } else if self.legit_issued < self.ops_target {
            let idx = self.legit_issued;
            // Reads sample the lower half, writes land in the upper half
            // (see module docs); a region below 128 bytes degenerates to
            // overlapping one-line halves.
            let half = (self.bytes / 2).max(64);
            let (kind, gva) = if idx % 2 == 1 {
                (
                    OpKind::LegitWrite,
                    Self::line_at(self.seed, idx, self.region + self.bytes - half, half),
                )
            } else {
                (OpKind::LegitRead, Self::line_at(self.seed, idx, self.region, half))
            };
            let tag = if kind == OpKind::LegitWrite {
                let mut data = [0u8; 64];
                data[..8].copy_from_slice(&idx.to_le_bytes());
                data[8..16].copy_from_slice(&self.seed.to_le_bytes());
                port.write(gva, Box::new(data), now)
            } else {
                port.read(gva, now)
            };
            self.in_flight.insert(tag.0, (kind, gva.raw()));
            self.legit_issued += 1;
        }
    }

    fn on_drain_response(&mut self, resp: AccelResponse) {
        // Retiring drained ops here keeps `issued == retired` by the time
        // the harness serializes (the port drains first), so restore's
        // counter rewind replays nothing — same argument as MemBench, plus
        // it guarantees each legit read folds into the checksum exactly
        // once.
        self.classify(resp);
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.region)
            .u64(self.bytes)
            .u64(self.ops_target)
            .u64(self.wild_base)
            .u64(self.wild_bytes)
            .u64(self.wild_every)
            .u64(self.seed)
            .u64(self.completed)
            .u64(self.wild_done)
            .u64(self.checksum)
            .u64(self.wild_leaked)
            .u64(self.legit_aborted);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.region = r.u64()?;
        self.bytes = r.u64()?;
        self.ops_target = r.u64()?;
        self.wild_base = r.u64()?;
        self.wild_bytes = r.u64()?;
        self.wild_every = r.u64()?;
        self.seed = r.u64()?;
        self.completed = r.u64()?;
        self.wild_done = r.u64()?;
        self.checksum = r.u64()?;
        self.wild_leaked = r.u64()?;
        self.legit_aborted = r.u64()?;
        self.legit_issued = self.completed;
        self.wild_issued = self.wild_done;
        self.in_flight = FastMap::default();
        Some(())
    }

    fn reset(&mut self) {
        *self = WildKernel::new(self.seed);
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        if self.bytes < 64 || self.ops_target == 0 {
            return None;
        }
        let want_issue = self.wild_issued < self.wild_quota() || self.legit_issued < self.ops_target;
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

    /// The toy auditor window: requests at or above it master-abort.
    const WINDOW: u64 = 0x10000;

    /// Runs `ops` legit ops with a wild probe every `wild_every` into a
    /// fabric that aborts from `window` up; returns the finished kernel.
    fn run_seeded(seed: u64, ops: u64, wild_every: u64, window: u64) -> WildKernel {
        let mut acc = Harnessed::new(WildKernel::new(seed));
        rig::start(
            &mut acc,
            &[
                (WildKernel::REG_BYTES, 0x4000),
                (WildKernel::REG_OPS, ops),
                (WildKernel::REG_WILD_BASE, WINDOW + 0x100_0000),
                (WildKernel::REG_WILD_BYTES, 0x10000),
                (WildKernel::REG_WILD_EVERY, wild_every),
            ],
        );
        let mut rig = Rig::new(Vec::new());
        rig.window = window;
        rig.finish(&mut acc, 100_000);
        std::mem::replace(acc.kernel_mut(), WildKernel::new(0))
    }

    #[test]
    fn aborted_wild_probes_leave_legit_checksum_unchanged() {
        let clean = run_seeded(7, 500, 0, WINDOW);
        let wild = run_seeded(7, 500, 4, WINDOW);
        assert_eq!(clean.completed, 500);
        assert_eq!(wild.completed, 500);
        assert_eq!(wild.wild_issued, 125);
        assert_eq!(wild.wild_done, 125);
        assert_eq!(wild.wild_leaked, 0);
        assert_eq!(wild.legit_aborted, 0);
        assert_ne!(clean.checksum, 0);
        assert_eq!(clean.checksum, wild.checksum);
    }

    #[test]
    fn wild_read_that_returns_data_counts_as_leak() {
        // A broken fabric that answers every read, in or out of window.
        let k = run_seeded(1, 8, 1, u64::MAX);
        assert!(k.wild_leaked > 0, "leaky reads must be flagged");
    }

    #[test]
    fn preempt_resume_preserves_checksum_and_schedule() {
        let mut acc = Harnessed::new(WildKernel::new(9));
        let mut rig = Rig::new(Vec::new());
        rig.window = WINDOW;
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x8000);
        rig::start(
            &mut acc,
            &[
                (WildKernel::REG_BYTES, 0x4000),
                (WildKernel::REG_OPS, 600),
                (WildKernel::REG_WILD_BASE, WINDOW + 0x40_0000),
                (WildKernel::REG_WILD_EVERY, 3),
            ],
        );
        rig.run(&mut acc, 200);
        assert!(acc.kernel().completed > 50);
        rig.preempt_resume(&mut acc, WildKernel::new(0));
        rig.finish(&mut acc, 200_000);
        let resumed = acc.kernel();
        assert_eq!(resumed.completed, 600);
        assert_eq!(resumed.wild_done, 200);
        assert_eq!(resumed.wild_leaked, 0);
        assert_eq!(resumed.legit_aborted, 0);
        let uninterrupted = run_seeded(9, 600, 3, WINDOW);
        assert_eq!(resumed.checksum, uninterrupted.checksum);
    }
}
