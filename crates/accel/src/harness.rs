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
//!
//! The data movement is the crate's one line mover: a save is a scatter
//! of the framed blob (an 8-byte length header, the state, zero padding
//! to a whole line), and a restore gathers the header line, then the body
//! it names. Each latches the state-buffer address when it begins, and
//! only the port bounds the restore's reads.

use crate::mover::{line, Gather, Got, Scatter};
use optimus_fabric::accelerator::{AccelMeta, AccelPort, AccelResponse, Accelerator, CtrlStatus};
use optimus_fabric::mmio::accel_reg;
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

#[derive(Debug)]
enum Phase {
    Idle,
    Running,
    Draining,
    /// Writing the framed blob.
    Saving(Vec<u8>, Scatter),
    Saved,
    /// Reading line 0, whose header names the blob's length.
    RestoringHeader(Gather),
    /// Reading the rest of the blob: the header line, the payload length
    /// it names, the body.
    Restoring(Box<[u8; 64]>, usize, Gather),
    Done,
}

/// The blob a save writes. The length header makes it self-describing, so
/// a resume, possibly after other virtual accelerators used this physical
/// accelerator, recovers the exact length from memory alone.
fn frame(state: Vec<u8>) -> Vec<u8> {
    let len = state.len() as u64;
    let mut blob = len.to_le_bytes().to_vec();
    blob.extend_from_slice(&state);
    blob.resize(accel_reg::framed_state_bytes(len).expect("state fits memory") as usize, 0);
    blob
}

/// The payload length a blob's header names and the lines its frame
/// spans (header included), or `None` for a length no save could have
/// written.
fn framing(header: u64) -> Option<(usize, usize)> {
    let lines = accel_reg::framed_state_bytes(header)? / 64;
    Some((usize::try_from(header).ok()?, usize::try_from(lines).ok()?))
}

/// An [`Accelerator`] built from a [`Kernel`] plus the shared preemption
/// machinery.
pub struct Harnessed<K: Kernel> {
    kernel: K,
    phase: Phase,
    /// The `CTRL_STATE_ADDR` register: the GVA of the state buffer.
    state_addr: u64,
}

impl<K: Kernel> Harnessed<K> {
    /// Wraps a kernel.
    pub fn new(kernel: K) -> Self {
        Self {
            kernel,
            phase: Phase::Idle,
            state_addr: 0,
        }
    }

    /// The phase a job resumes in: running, or done if it already is.
    fn job_phase(&self) -> Phase {
        if self.kernel.done() {
            Phase::Done
        } else {
            Phase::Running
        }
    }

    /// Ends a restore: the kernel resumes from the blob's payload, or, for
    /// a blob that could not be read back or does not decode, the job is
    /// lost and the slot comes back empty.
    fn end_restore(&mut self, payload: Option<&[u8]>) {
        self.phase = match payload {
            Some(payload) if self.kernel.restore(payload).is_some() => self.job_phase(),
            _ => {
                self.kernel.reset();
                Phase::Idle
            }
        };
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
        self.state_addr = 0;
    }

    fn mmio_write(&mut self, offset: u64, value: u64) {
        match offset {
            accel_reg::CTRL_CMD => match value {
                accel_reg::CMD_START => {
                    self.kernel.start();
                    self.phase = self.job_phase();
                }
                accel_reg::CMD_PREEMPT => match self.phase {
                    // A completed job still saves its (final) state so that
                    // a later resume reads a valid blob, not stale memory.
                    Phase::Running | Phase::Done => self.phase = Phase::Draining,
                    Phase::Idle => self.phase = Phase::Saved,
                    _ => {}
                },
                accel_reg::CMD_RESUME => {
                    if matches!(self.phase, Phase::Saved | Phase::Idle) {
                        self.phase = Phase::RestoringHeader(Gather::of_lines(&[self.state_addr]));
                    }
                }
                _ => {}
            },
            accel_reg::CTRL_STATE_ADDR => self.state_addr = value,
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
        match &mut self.phase {
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
                    let blob = frame(self.kernel.serialize());
                    let scatter = Scatter::new(self.state_addr, blob.len() as u64 / 64);
                    self.phase = Phase::Saving(blob, scatter);
                }
            }
            Phase::Saving(blob, scatter) => {
                let at = |i: u64| blob[64 * i as usize..][..64].try_into().unwrap();
                if scatter.poll(port, now, at) {
                    self.phase = Phase::Saved;
                }
            }
            Phase::RestoringHeader(header) => match header.poll(port, now, 1) {
                Got::Pending => {}
                Got::Aborted => self.end_restore(None),
                Got::Lines => {
                    let head = Box::new(*header.line(0));
                    match framing(u64::from_le_bytes(head[..8].try_into().unwrap())) {
                        // The cycle that receives the header issues no
                        // body read.
                        Some((len, lines)) if lines > 1 => {
                            let body =
                                Gather::new([(line(self.state_addr, 1).raw(), lines as u64 - 1)]);
                            self.phase = Phase::Restoring(head, len, body);
                        }
                        framed => self.end_restore(framed.map(|(len, _)| &head[8..8 + len])),
                    }
                }
            },
            Phase::Restoring(head, len, body) => match body.poll(port, now, usize::MAX) {
                Got::Pending => {}
                Got::Aborted => self.end_restore(None),
                Got::Lines => {
                    let mut blob = head[8..].to_vec();
                    body.lines().for_each(|l| blob.extend_from_slice(l));
                    blob.truncate(*len);
                    self.end_restore(Some(&blob));
                }
            },
        }
    }

    fn status(&self) -> CtrlStatus {
        match self.phase {
            Phase::Idle => CtrlStatus::Idle,
            Phase::Running | Phase::Draining | Phase::RestoringHeader(_) | Phase::Restoring(..) => {
                CtrlStatus::Running
            }
            Phase::Saving(..) => CtrlStatus::Saving,
            Phase::Saved => CtrlStatus::Saved,
            Phase::Done => CtrlStatus::Done,
        }
    }

    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        let mover_event = |wants_issue: bool| {
            (port.queued_responses() > 0 || (wants_issue && port.can_issue())).then_some(now)
        };
        match &self.phase {
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
            Phase::Saving(_, scatter) => mover_event(scatter.wants_issue()),
            Phase::RestoringHeader(gather) | Phase::Restoring(_, _, gather) => {
                mover_event(gather.wants_issue())
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
        /// Saved after the counters, to make the blob span lines.
        pad: Vec<u8>,
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
                pad: Vec::new(),
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
            v.extend_from_slice(&self.pad);
            v
        }
        fn restore(&mut self, bytes: &[u8]) -> Option<()> {
            let mut r = crate::ser::Reader::new(bytes);
            self.target = r.u64()?;
            self.count = r.u64()?;
            self.pad = bytes[16..].to_vec();
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

    #[test]
    fn save_then_restore_round_trips() {
        // 8 + 16 + 200 bytes: a header line and three body lines.
        let pad: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut acc = Harnessed::new(Counter::new());
        let mut rig = Rig::new(Vec::new());
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x100 * 64);
        rig::start(&mut acc, &[(0, 100)]);
        acc.kernel_mut().pad = pad.clone();
        rig.run(&mut acc, 30);
        rig.preempt_resume(&mut acc, Counter::new());
        rig.finish(&mut acc, 2000);
        assert_eq!(acc.kernel().pad, pad);
        assert_eq!(acc.kernel().count, 100);
    }

    #[test]
    fn empty_state_still_writes_the_header_line() {
        assert_eq!(frame(Vec::new()), [0u8; 64]);
        assert_eq!(framing(0), Some((0, 1)));
    }

    #[test]
    fn a_one_line_blob_restores_in_the_header_cycle() {
        let mut acc = Harnessed::new(Counter::new());
        let mut rig = Rig::new(Vec::new());
        rig::start(&mut acc, &[(0, 100)]);
        rig.run(&mut acc, 30);
        rig.preempt_resume(&mut acc, Counter::new());
        // Cycle 0 reads the header line; cycle 1 receives it and resumes.
        rig.run(&mut acc, 2);
        assert!(matches!(acc.phase, Phase::Running));
        assert_eq!(acc.kernel().count, 30);
    }

    /// Resumes a counter from a blob at 0x1000 whose header is `header`
    /// (its body reads as zeros), with reads at or past `window`
    /// master-aborting; runs until the slot comes back idle or `cycles`
    /// cycles have passed.
    fn restore_from(header: u64, window: u64, cycles: Cycle) -> (Harnessed<Counter>, Rig) {
        let mut acc = Harnessed::new(Counter::new());
        let mut rig = Rig::new(vec![0u8; 0x1000]);
        rig.mem.extend_from_slice(&header.to_le_bytes());
        rig.window = window;
        acc.mmio_write(accel_reg::CTRL_STATE_ADDR, 0x1000);
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
        while rig.now < cycles && acc.status() != CtrlStatus::Idle {
            rig.run(&mut acc, 1);
        }
        (acc, rig)
    }

    #[test]
    fn unreadable_or_impossible_blobs_fail_the_restore() {
        // The header line master-aborts; a header whose frame overflows; a
        // line past the header master-aborts.
        for (header, window) in [(64, 0x1000), (u64::MAX, u64::MAX), (1000, 0x1000 + 3 * 64)] {
            let (acc, rig) = restore_from(header, window, 1000);
            assert_eq!(acc.status(), CtrlStatus::Idle, "header {header}");
            assert!(rig.port.is_drained());
        }
        // A length no save wrote streams on (until the hypervisor's
        // preempt timeout), but holds only the lines actually issued.
        let (acc, _) = restore_from(1 << 40, u64::MAX, 1000);
        match &acc.phase {
            Phase::Restoring(_, _, body) => assert!(body.held() <= 1000 * 4),
            _ => panic!("restore should still be streaming"),
        }
    }

    #[test]
    fn only_the_port_bounds_restore_reads() {
        // A 300-line blob whose body is never served: the restore keeps
        // issuing until the port's outstanding limit, not a stream window.
        let (mut acc, mut rig) = restore_from(300 * 64, u64::MAX, 2);
        for _ in 0..200 {
            acc.step(rig.now, &mut rig.port);
            while rig.port.take_pending().is_some() {}
            rig.now += 1;
        }
        assert_eq!(rig.port.outstanding(), optimus_cci::params::MAX_OUTSTANDING);
    }
}
