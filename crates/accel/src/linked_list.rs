//! LinkedList: the latency-bound pointer-chasing micro-benchmark (§6.1).
//!
//! "LinkedList sequentially fetches cache line sized nodes from a linked
//! list distributed randomly in DRAM … creating a latency bottleneck."
//! The kernel keeps exactly **one** DMA outstanding: each node's first
//! eight bytes hold the guest virtual address of the next node, so the next
//! read cannot issue before the previous one returns — the fundamental
//! limitation of irregular pointer-chasing applications.
//!
//! It implements the preemption interface with the paper's own example of
//! minimal state: "when preempting a linked-list walker, saving the address
//! of the next node can be sufficient" (§4.2).

use crate::harness::Kernel;
use crate::ser::{Reader, Writer};
use optimus_fabric::accelerator::{AccelMeta, AccelPort, AccelResponse};
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;

/// The LinkedList walker kernel.
#[derive(Debug)]
pub struct LlKernel {
    meta: AccelMeta,
    start_node: u64,
    steps_target: u64,
    current: u64,
    steps: u64,
    outstanding: bool,
    /// A hop's read came back master-aborted: the walk is over.
    aborted: bool,
}

impl Default for LlKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl LlKernel {
    /// Register: GVA of the first node.
    pub const REG_START: u64 = 0;
    /// Register: hops to perform (0 = walk until preempted).
    pub const REG_STEPS: u64 = 8;
    /// Register (read-only): hops completed.
    pub const REG_DONE_STEPS: u64 = 16;
    /// Register (read-only): current node GVA.
    pub const REG_CURRENT: u64 = 24;

    /// Creates an idle kernel.
    pub fn new() -> Self {
        Self {
            meta: crate::registry::AccelKind::Ll.meta(),
            start_node: 0,
            steps_target: 0,
            current: 0,
            steps: 0,
            outstanding: false,
            aborted: false,
        }
    }

    fn absorb(&mut self, resp: AccelResponse) {
        match resp.data {
            Some(data) => {
                self.current = u64::from_le_bytes(data[0..8].try_into().unwrap());
                self.steps += 1;
            }
            None => self.aborted = true,
        }
        self.outstanding = false;
    }
}

impl Kernel for LlKernel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_START => self.start_node = value,
            Self::REG_STEPS => self.steps_target = value,
            _ => {}
        }
    }

    fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_START => self.start_node,
            Self::REG_STEPS => self.steps_target,
            Self::REG_DONE_STEPS => self.steps,
            Self::REG_CURRENT => self.current,
            _ => 0,
        }
    }

    fn start(&mut self) {
        self.current = self.start_node;
        self.steps = 0;
        self.outstanding = false;
        self.aborted = false;
    }

    fn done(&self) -> bool {
        let walked = self.steps_target > 0 && self.steps >= self.steps_target;
        self.aborted || (walked && !self.outstanding)
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        while let Some(resp) = port.pop_response() {
            self.absorb(resp);
        }
        let want_more = self.steps_target == 0 || self.steps < self.steps_target;
        if !self.outstanding && want_more && port.can_issue() {
            port.read(Gva::new(self.current), now);
            self.outstanding = true;
        }
    }

    fn on_drain_response(&mut self, resp: AccelResponse) {
        // The drained read completes the hop: fold it into the walk state so
        // the saved "address of the next node" is exact.
        self.absorb(resp);
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.start_node)
            .u64(self.steps_target)
            .u64(self.current)
            .u64(self.steps);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader::new(bytes);
        self.start_node = r.u64()?;
        self.steps_target = r.u64()?;
        self.current = r.u64()?;
        self.steps = r.u64()?;
        self.outstanding = false;
        self.aborted = false;
        Some(())
    }

    fn reset(&mut self) {
        *self = LlKernel::new();
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        // Latency-bound: with one hop in flight and an empty response queue
        // (the harness checks), a step neither absorbs nor issues — the >90%
        // idle case fast-forward exists for. The wake-up comes from the
        // response delivery, which the device tracks independently.
        let want_more = self.steps_target == 0 || self.steps < self.steps_target;
        if !self.outstanding && want_more && port.can_issue() {
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

    /// A ring of 1024 nodes at GVA 0: node i points to node (7i + 1) mod 1024.
    fn ring() -> Rig {
        let mut mem = vec![0u8; 1024 * 64];
        for (i, node) in mem.chunks_exact_mut(64).enumerate() {
            node[..8].copy_from_slice(&((i as u64 * 7 + 1) % 1024 * 64).to_le_bytes());
        }
        Rig::new(mem)
    }

    /// The node `hops` hops from node 0.
    fn after(hops: usize) -> u64 {
        (0..hops).fold(0, |node, _| (node * 7 + 1) % 1024) * 64
    }

    #[test]
    fn walks_the_chain() {
        let mut acc = Harnessed::new(LlKernel::new());
        rig::start(
            &mut acc,
            &[(LlKernel::REG_START, 0), (LlKernel::REG_STEPS, 10)],
        );
        ring().finish(&mut acc, 1000);
        assert_eq!(
            acc.mmio_read(accel_reg::APP_BASE + LlKernel::REG_CURRENT),
            after(10)
        );
    }

    #[test]
    fn keeps_exactly_one_outstanding() {
        let mut k = LlKernel::new();
        k.write_reg(LlKernel::REG_STEPS, 0);
        k.start();
        let mut rig = ring();
        for now in 0..50 {
            k.step(now, &mut rig.port);
            // Never more than one pending + in-flight.
            assert!(rig.port.outstanding() <= 1);
            // Delay service by a few cycles to prove it does not pipeline.
            if now % 5 == 0 {
                rig.serve();
            }
        }
    }

    #[test]
    fn preempt_saves_next_node_address() {
        let mut acc = Harnessed::new(LlKernel::new());
        // State buffer above the 0..0x10000 node space.
        let mut rig = ring();
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x20000);
        rig::start(&mut acc, &[(LlKernel::REG_STEPS, 100)]);
        rig.run(&mut acc, 37);
        assert!(acc.kernel().steps < 100, "preempted mid-walk");
        // Resume on a "different physical accelerator" (fresh kernel).
        rig.preempt_resume(&mut acc, LlKernel::new());
        rig.finish(&mut acc, 100_000);
        assert_eq!(acc.kernel().steps, 100);
        // The walk end point equals an uninterrupted walk's end point.
        assert_eq!(acc.kernel().current, after(100));
    }

    #[test]
    fn state_blob_is_minimal() {
        // Four u64 words: the paper's "address of the next node" plus
        // counters and configuration.
        let k = LlKernel::new();
        assert_eq!(k.serialize().len(), 32);
    }
}
