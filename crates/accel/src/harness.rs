//! The preemption-interface control machine, shared by every benchmark.
//!
//! The paper's preemption interface (§4.2) is a contract between the
//! hypervisor and the accelerator: control registers to start / preempt /
//! resume, a state-size register, a state-buffer address register, and a
//! status register that reports `Saved` only after all in-flight
//! transactions have been processed and the execution state has landed in
//! memory. [`Harnessed`] implements that contract once, generically;
//! benchmarks implement only the [`Kernel`] trait (their registers, their
//! compute, their serializable state).

use optimus_fabric::accelerator::{AccelMeta, AccelPort, AccelResponse, Accelerator, CtrlStatus};
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::preempt::{PreemptEngine, PreemptProgress};
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;

/// The compute core of a benchmark accelerator.
///
/// Kernels must follow the *prefix-progress* convention: all externally
/// visible progress (hash state updates, output writes, result registers)
/// is committed in input order, so that the state serialized at a drain
/// point describes a clean prefix of the job. The harness guarantees
/// [`Kernel::step`] is never called between a preempt command and the
/// subsequent resume.
pub trait Kernel: Send {
    /// Static metadata (Table 1/Table 2 inputs).
    fn meta(&self) -> &AccelMeta;

    /// Writes an application register (offset relative to `APP_BASE`).
    fn write_reg(&mut self, offset: u64, value: u64);

    /// Reads an application register (offset relative to `APP_BASE`).
    fn read_reg(&self, offset: u64) -> u64;

    /// Latches the programmed registers and begins a fresh job.
    fn start(&mut self);

    /// Whether the current job has finished.
    fn done(&self) -> bool;

    /// One cycle of the kernel's clock while running.
    fn step(&mut self, now: Cycle, port: &mut AccelPort);

    /// A response that arrived while draining for preemption. Most kernels
    /// ignore it (their progress cursor already excludes un-retired work);
    /// latency-bound kernels like LinkedList fold it into their state.
    fn on_drain_response(&mut self, _resp: AccelResponse) {}

    /// Serializes the architectural state to save on preemption.
    fn serialize(&self) -> Vec<u8>;

    /// Restores state saved by [`serialize`](Self::serialize); `None` if
    /// the blob does not decode (the guest may rewrite its saved state).
    fn restore(&mut self, bytes: &[u8]) -> Option<()>;

    /// Returns all state to power-on values.
    fn reset(&mut self);

    /// Quiescence hint while the harness is in the running phase; mirrors
    /// [`optimus_fabric::accelerator::Accelerator::next_event`]. A kernel
    /// may return `None` (or a future cycle) only when its `step` is a pure
    /// no-op until then given an empty response queue — the harness already
    /// forces an event whenever responses are queued. The default
    /// `Some(now)` never skips.
    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        let _ = port;
        Some(now)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Running,
    Draining,
    Saving,
    Saved,
    Restoring,
    Done,
}

/// An [`Accelerator`] built from a [`Kernel`] plus the shared preemption
/// machinery.
pub struct Harnessed<K: Kernel> {
    kernel: K,
    phase: Phase,
    engine: PreemptEngine,
}

impl<K: Kernel> Harnessed<K> {
    /// Wraps a kernel.
    pub fn new(kernel: K) -> Self {
        Self {
            kernel,
            phase: Phase::Idle,
            engine: PreemptEngine::new(),
        }
    }

    /// The wrapped kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Mutable kernel access (tests and direct configuration).
    pub fn kernel_mut(&mut self) -> &mut K {
        &mut self.kernel
    }
}

impl<K: Kernel> Accelerator for Harnessed<K> {
    fn meta(&self) -> &AccelMeta {
        self.kernel.meta()
    }

    fn reset(&mut self) {
        self.kernel.reset();
        self.phase = Phase::Idle;
        self.engine = PreemptEngine::new();
    }

    fn mmio_write(&mut self, offset: u64, value: u64) {
        match offset {
            accel_reg::CTRL_CMD => match value {
                accel_reg::CMD_START => {
                    self.kernel.start();
                    self.phase = if self.kernel.done() {
                        Phase::Done
                    } else {
                        Phase::Running
                    };
                }
                accel_reg::CMD_PREEMPT => match self.phase {
                    // A completed job still saves its (final) state so that
                    // a later resume reads a valid blob, not stale memory.
                    Phase::Running | Phase::Done => self.phase = Phase::Draining,
                    Phase::Idle => self.phase = Phase::Saved,
                    _ => {}
                },
                accel_reg::CMD_RESUME => {
                    if self.phase == Phase::Saved || self.phase == Phase::Idle {
                        self.engine.begin_restore();
                        self.phase = Phase::Restoring;
                    }
                }
                _ => {}
            },
            accel_reg::CTRL_STATE_ADDR => self.engine.set_state_addr(Gva::new(value)),
            off if off >= accel_reg::APP_BASE => {
                self.kernel.write_reg(off - accel_reg::APP_BASE, value)
            }
            _ => {}
        }
    }

    fn mmio_read(&mut self, offset: u64) -> u64 {
        match offset {
            accel_reg::CTRL_STATUS => self.status() as u64,
            accel_reg::CTRL_STATE_SIZE => self.kernel.serialize().len() as u64,
            off if off >= accel_reg::APP_BASE => self.kernel.read_reg(off - accel_reg::APP_BASE),
            _ => 0,
        }
    }

    fn peek_reg(&self, offset: u64) -> u64 {
        self.kernel.read_reg(offset)
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        match self.phase {
            Phase::Idle | Phase::Saved | Phase::Done => {}
            Phase::Running => {
                self.kernel.step(now, port);
                if self.kernel.done() {
                    self.phase = Phase::Done;
                }
            }
            Phase::Draining => {
                while let Some(resp) = port.pop_response() {
                    self.kernel.on_drain_response(resp);
                }
                if port.is_drained() {
                    self.engine.begin_save(self.kernel.serialize());
                    self.phase = Phase::Saving;
                }
            }
            Phase::Saving => {
                if self.engine.step(now, port) == PreemptProgress::SaveDone {
                    self.phase = Phase::Saved;
                }
            }
            Phase::Restoring => match self.engine.step(now, port) {
                PreemptProgress::RestoreDone(bytes) if self.kernel.restore(&bytes).is_some() => {
                    self.phase = if self.kernel.done() {
                        Phase::Done
                    } else {
                        Phase::Running
                    };
                }
                PreemptProgress::RestoreDone(_) | PreemptProgress::RestoreFailed => {
                    // An unreadable or undecodable blob: the job is lost
                    // and the slot comes back empty.
                    self.kernel.reset();
                    self.phase = Phase::Idle;
                }
                _ => {}
            },
        }
    }

    fn status(&self) -> CtrlStatus {
        match self.phase {
            Phase::Idle => CtrlStatus::Idle,
            Phase::Running | Phase::Draining | Phase::Restoring => CtrlStatus::Running,
            Phase::Saving => CtrlStatus::Saving,
            Phase::Saved => CtrlStatus::Saved,
            Phase::Done => CtrlStatus::Done,
        }
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        match self.phase {
            Phase::Idle | Phase::Saved | Phase::Done => None,
            Phase::Running => {
                // The kernel sees the queued responses on its next step, so
                // that is always an event; otherwise defer to its own hint.
                if port.queued_responses() > 0 {
                    Some(now)
                } else {
                    self.kernel.next_event(now, port)
                }
            }
            Phase::Draining => {
                if port.queued_responses() > 0 || port.is_drained() {
                    Some(now)
                } else {
                    None
                }
            }
            Phase::Saving | Phase::Restoring => {
                if port.queued_responses() > 0 || (self.engine.wants_issue() && port.can_issue()) {
                    Some(now)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{self, Rig};

    /// A kernel that counts steps up to a programmed target.
    struct Counter {
        meta: AccelMeta,
        target: u64,
        count: u64,
    }

    impl Counter {
        fn new() -> Self {
            Self {
                meta: AccelMeta {
                    name: "CNT",
                    description: "step counter",
                    freq_mhz: 400,
                    verilog_loc: 0,
                    alm_pct: 0.1,
                    bram_pct: 0.0,
                    alm_scale8: 8.0,
                    bram_scale8: 8.0,
                    state_bytes: 16,
                    demand: 0.0,
                },
                target: 0,
                count: 0,
            }
        }
    }

    impl Kernel for Counter {
        fn meta(&self) -> &AccelMeta {
            &self.meta
        }
        fn write_reg(&mut self, offset: u64, value: u64) {
            if offset == 0 {
                self.target = value;
            }
        }
        fn read_reg(&self, offset: u64) -> u64 {
            match offset {
                0 => self.target,
                8 => self.count,
                _ => 0,
            }
        }
        fn start(&mut self) {
            self.count = 0;
        }
        fn done(&self) -> bool {
            self.count >= self.target
        }
        fn step(&mut self, _now: Cycle, _port: &mut AccelPort) {
            self.count += 1;
        }
        fn serialize(&self) -> Vec<u8> {
            let mut v = self.target.to_le_bytes().to_vec();
            v.extend_from_slice(&self.count.to_le_bytes());
            v
        }
        fn restore(&mut self, bytes: &[u8]) -> Option<()> {
            let mut r = crate::ser::Reader::new(bytes);
            self.target = r.u64()?;
            self.count = r.u64()?;
            Some(())
        }
        fn reset(&mut self) {
            self.target = 0;
            self.count = 0;
        }
    }

    #[test]
    fn start_run_done() {
        let mut acc = Harnessed::new(Counter::new());
        rig::start(&mut acc, &[(0, 5)]);
        assert_eq!(acc.status(), CtrlStatus::Running);
        Rig::new(Vec::new()).run(&mut acc, 10);
        assert!(acc.is_done());
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE + 8), 5);
    }

    #[test]
    fn preempt_resume_round_trip_preserves_progress() {
        let mut acc = Harnessed::new(Counter::new());
        let mut rig = Rig::new(Vec::new());
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x1000);
        rig::start(&mut acc, &[(0, 100)]);
        rig.run(&mut acc, 30);
        // Clobber the kernel (as if another vaccel ran) and resume.
        rig.preempt_resume(&mut acc, Counter::new());
        rig.finish(&mut acc, 2000);
        assert_eq!(acc.kernel().target, 100);
        assert_eq!(acc.kernel().count, 100);
        // The save landed after exactly the 30 steps run before it.
        let saved = &rig.mem[0x1000 + 8..0x1000 + 24];
        assert_eq!(saved, [100u64.to_le_bytes(), 30u64.to_le_bytes()].concat());
    }

    #[test]
    fn undecodable_blob_ends_the_restore_idle_and_restartable() {
        let mut acc = Harnessed::new(Counter::new());
        // A header naming 8 payload bytes where the counter needs 16.
        let mut rig = Rig::new(vec![0u8; 0x1040]);
        rig.mem[0x1000..0x1008].copy_from_slice(&8u64.to_le_bytes());
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x1000);
        acc.mmio_write(accel_reg::APP_BASE, 7);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
        rig.run_until(&mut acc, 100, |a| a.status() == CtrlStatus::Idle);
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE), 0, "kernel reset");
        rig::start(&mut acc, &[(0, 3)]);
        rig.run(&mut acc, 10);
        assert!(acc.is_done());
    }

    #[test]
    fn preempt_while_idle_is_trivially_saved() {
        let mut acc = Harnessed::new(Counter::new());
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_PREEMPT);
        assert_eq!(acc.status(), CtrlStatus::Saved);
    }

    #[test]
    fn state_size_register_reports_length() {
        let mut acc = Harnessed::new(Counter::new());
        assert_eq!(acc.mmio_read(accel_reg::CTRL_STATE_SIZE), 16);
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut acc = Harnessed::new(Counter::new());
        rig::start(&mut acc, &[(0, 5)]);
        acc.reset();
        assert_eq!(acc.status(), CtrlStatus::Idle);
        assert_eq!(acc.mmio_read(accel_reg::APP_BASE), 0);
    }

    /// Drives a bare engine against the rig until it leaves `InProgress`.
    fn stream(engine: &mut PreemptEngine, rig: &mut Rig) -> PreemptProgress {
        for _ in 0..10_000 {
            match engine.step(rig.now, &mut rig.port) {
                PreemptProgress::InProgress => rig.serve(),
                done => return done,
            }
            rig.now += 1;
        }
        panic!("engine never completed");
    }

    #[test]
    fn save_then_restore_round_trips() {
        let mut engine = PreemptEngine::new();
        engine.set_state_addr(Gva::new(0x100 * 64));
        let state: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut rig = Rig::new(Vec::new());
        engine.begin_save(state.clone());
        assert!(engine.is_active());
        assert_eq!(stream(&mut engine, &mut rig), PreemptProgress::SaveDone);
        assert!(!engine.is_active());
        engine.begin_restore();
        assert_eq!(
            stream(&mut engine, &mut rig),
            PreemptProgress::RestoreDone(state)
        );
    }

    #[test]
    fn empty_state_still_writes_the_header_line() {
        let mut engine = PreemptEngine::new();
        let mut rig = Rig::new(Vec::new());
        engine.begin_save(Vec::new());
        assert_eq!(stream(&mut engine, &mut rig), PreemptProgress::SaveDone);
        assert_eq!(rig.mem.len(), 64);
        engine.begin_restore();
        assert_eq!(
            stream(&mut engine, &mut rig),
            PreemptProgress::RestoreDone(Vec::new())
        );
    }
}
