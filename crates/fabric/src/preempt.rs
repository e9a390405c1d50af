//! Reusable implementation of the preemption interface's data movement.
//!
//! OPTIMUS leaves *what* to save to the accelerator designer (§4.2) — a
//! linked-list walker saves one pointer, a hash accelerator saves its
//! digest state — but the mechanics are common to every design: after the
//! hypervisor's `CMD_PREEMPT`, drain in-flight transactions, stream the
//! serialized state to the guest-provided memory buffer as ordinary DMA
//! writes, and raise `Saved`; on `CMD_RESUME`, stream it back and continue.
//!
//! [`PreemptEngine`] implements exactly that streaming, so each benchmark
//! only supplies `serialize`/`deserialize` of its architectural state.

use crate::accelerator::AccelPort;
use optimus_mem::addr::Gva;
use optimus_sim::hashing::FastMap;
use optimus_sim::time::Cycle;

/// Progress of an active save or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreemptProgress {
    /// Still streaming.
    InProgress,
    /// All state lines written and acknowledged.
    SaveDone,
    /// All state lines read back; the payload is the serialized state.
    RestoreDone(Vec<u8>),
    /// The blob could not be read back: a line master-aborted (the buffer
    /// address lies outside the tenant's window) or the header names a
    /// length no save could have written. The guest owns the buffer, so
    /// this is its job's loss, not an engine fault; the engine is idle.
    RestoreFailed,
    /// Engine idle.
    Idle,
}

#[derive(Debug)]
enum Mode {
    Idle,
    Saving {
        buffer: Vec<u8>,
        issued: usize,
        acked: usize,
    },
    /// First restore stage: fetch line 0, which carries the length header.
    RestoringHeader {
        issued: bool,
    },
    Restoring {
        /// The lines issued so far. It grows as lines issue and is never
        /// sized from the guest-written header, so a lying header costs
        /// only what the port really streams before the hypervisor's
        /// preempt timeout resets the slot.
        buffer: Vec<u8>,
        payload_len: usize,
        /// Lines the blob spans, header line included.
        lines: usize,
        received: usize,
        /// Tag → line index of each outstanding line read, so responses
        /// that the channel fabric reorders still land in their own line
        /// slot. A map, not a scan: multi-megabyte states stream tens of
        /// thousands of lines, and a per-response linear search turns the
        /// restore quadratic.
        tags: FastMap<u32, usize>,
        /// A line master-aborted: issue nothing more, and report the
        /// failure once the reads already in flight have returned.
        failed: bool,
    },
}

/// The payload length a blob's header names and the lines its frame
/// spans (header included), or `None` for a length no save could have
/// written.
fn framing(header: u64) -> Option<(usize, usize)> {
    let payload_len = usize::try_from(header).ok()?;
    Some((payload_len, payload_len.checked_add(8)?.div_ceil(64)))
}

/// Streams serialized accelerator state to/from the state buffer.
#[derive(Debug)]
pub struct PreemptEngine {
    state_addr: Gva,
    mode: Mode,
}

impl Default for PreemptEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PreemptEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self {
            state_addr: Gva::new(0),
            mode: Mode::Idle,
        }
    }

    /// Sets the guest virtual address of the state buffer (the
    /// `CTRL_STATE_ADDR` register).
    pub fn set_state_addr(&mut self, gva: Gva) {
        self.state_addr = gva;
    }

    /// The configured state buffer address.
    pub fn state_addr(&self) -> Gva {
        self.state_addr
    }

    /// Whether a save or restore is in flight.
    pub fn is_active(&self) -> bool {
        !matches!(self.mode, Mode::Idle)
    }

    /// Whether the engine would issue a request if the port allowed it.
    ///
    /// Fast-forward hint: while active but not wanting to issue, the engine
    /// is purely waiting on responses, so a `step` with an empty response
    /// queue is a no-op.
    pub fn wants_issue(&self) -> bool {
        match &self.mode {
            Mode::Idle => false,
            Mode::Saving { buffer, issued, .. } => *issued < buffer.len() / 64,
            Mode::RestoringHeader { issued } => !*issued,
            Mode::Restoring {
                buffer,
                lines,
                failed,
                ..
            } => !*failed && buffer.len() / 64 < *lines,
        }
    }

    /// Begins saving `state`. The blob is made self-describing (an 8-byte
    /// length header is prepended) so that a later resume — possibly after
    /// other virtual accelerators used this physical accelerator — can
    /// recover the exact length from memory alone.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already active.
    pub fn begin_save(&mut self, state: Vec<u8>) {
        assert!(!self.is_active(), "preempt engine already active");
        let mut framed = Vec::with_capacity(8 + state.len());
        framed.extend_from_slice(&(state.len() as u64).to_le_bytes());
        framed.extend_from_slice(&state);
        while framed.len() % 64 != 0 {
            framed.push(0);
        }
        self.mode = Mode::Saving {
            buffer: framed,
            issued: 0,
            acked: 0,
        };
    }

    /// Begins restoring state from the buffer. The length is read back from
    /// the blob's own header.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already active.
    pub fn begin_restore(&mut self) {
        assert!(!self.is_active(), "preempt engine already active");
        self.mode = Mode::RestoringHeader { issued: false };
    }

    fn restore_failed(&mut self) -> PreemptProgress {
        self.mode = Mode::Idle;
        PreemptProgress::RestoreFailed
    }

    /// Advances the streaming by one accelerator cycle.
    ///
    /// The caller must route *all* port responses here while the engine is
    /// active (the accelerator is drained of application traffic first, so
    /// there is no ambiguity).
    pub fn step(&mut self, now: Cycle, port: &mut AccelPort) -> PreemptProgress {
        match &mut self.mode {
            Mode::Idle => PreemptProgress::Idle,
            Mode::Saving {
                buffer,
                issued,
                acked,
            } => {
                let total_lines = buffer.len() / 64;
                // Consume write acknowledgments.
                while let Some(resp) = port.pop_response() {
                    debug_assert!(resp.data.is_none(), "unexpected read during save");
                    *acked += 1;
                }
                // Issue further write lines.
                while *issued < total_lines && port.can_issue() {
                    let mut line = [0u8; 64];
                    line.copy_from_slice(&buffer[*issued * 64..*issued * 64 + 64]);
                    port.write(
                        Gva::new(self.state_addr.raw() + (*issued as u64) * 64),
                        Box::new(line),
                        now,
                    );
                    *issued += 1;
                }
                if *acked == total_lines {
                    self.mode = Mode::Idle;
                    PreemptProgress::SaveDone
                } else {
                    PreemptProgress::InProgress
                }
            }
            Mode::RestoringHeader { issued } => {
                if let Some(resp) = port.pop_response() {
                    // The header read was the only one in flight, so a
                    // failure here leaves the port drained.
                    let Some(data) = resp.data else {
                        return self.restore_failed();
                    };
                    let header = u64::from_le_bytes(data[0..8].try_into().unwrap());
                    let Some((payload_len, lines)) = framing(header) else {
                        return self.restore_failed();
                    };
                    if lines == 1 {
                        self.mode = Mode::Idle;
                        return PreemptProgress::RestoreDone(data[8..8 + payload_len].to_vec());
                    }
                    self.mode = Mode::Restoring {
                        buffer: data.to_vec(),
                        payload_len,
                        lines,
                        received: 1,
                        tags: FastMap::default(),
                        failed: false,
                    };
                    return PreemptProgress::InProgress;
                }
                if !*issued && port.can_issue() {
                    port.read(self.state_addr, now);
                    *issued = true;
                }
                PreemptProgress::InProgress
            }
            Mode::Restoring {
                buffer,
                payload_len,
                lines,
                received,
                tags,
                failed,
            } => {
                while let Some(resp) = port.pop_response() {
                    // Lines issue in order, but reads striped across
                    // channels can complete out of order — place each
                    // response by its tag, not by arrival order.
                    let line_idx = tags
                        .remove(&resp.tag.0)
                        .expect("restore response tag matches an issued line read");
                    match resp.data {
                        Some(data) => {
                            buffer[line_idx * 64..line_idx * 64 + 64].copy_from_slice(&data[..])
                        }
                        None => *failed = true,
                    }
                    *received += 1;
                }
                if *failed {
                    if port.is_drained() {
                        return self.restore_failed();
                    }
                    return PreemptProgress::InProgress;
                }
                while buffer.len() / 64 < *lines && port.can_issue() {
                    let issued = buffer.len() / 64;
                    let tag =
                        port.read(Gva::new(self.state_addr.raw() + (issued as u64) * 64), now);
                    tags.insert(tag.0, issued);
                    buffer.extend_from_slice(&[0; 64]);
                }
                if *received == *lines {
                    let payload_len = *payload_len;
                    let out = buffer[8..8 + payload_len].to_vec();
                    self.mode = Mode::Idle;
                    PreemptProgress::RestoreDone(out)
                } else {
                    PreemptProgress::InProgress
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Restores from a buffer whose line 0 holds `header` and whose other
    /// lines read as zeros, except `abort`, which master-aborts; returns
    /// the outcome after `cycles` cycles (or on completion).
    fn restore_from(
        engine: &mut PreemptEngine,
        header: u64,
        abort: u64,
        cycles: u64,
    ) -> PreemptProgress {
        let mut port = AccelPort::new();
        engine.begin_restore();
        for now in 0..cycles {
            match engine.step(now, &mut port) {
                PreemptProgress::InProgress => {}
                done => return done,
            }
            while let Some(req) = port.take_pending() {
                let line = req.gva.raw() / 64;
                let mut data = [0u8; 64];
                data[..8].copy_from_slice(&header.to_le_bytes());
                let data =
                    (line != abort).then(|| Box::new(if line == 0 { data } else { [0; 64] }));
                port.deliver(req.tag, data, now);
            }
        }
        PreemptProgress::InProgress
    }

    #[test]
    fn unreadable_or_impossible_blobs_fail_the_restore() {
        let mut engine = PreemptEngine::new();
        // The header line master-aborts; a header whose frame overflows; a
        // line past the header master-aborts.
        for (header, abort) in [(64, 0), (u64::MAX, u64::MAX), (1000, 3)] {
            let got = restore_from(&mut engine, header, abort, 1000);
            assert_eq!(got, PreemptProgress::RestoreFailed, "header {header}");
            assert!(!engine.is_active());
        }
        // A length no save wrote streams on (until the hypervisor's
        // preempt timeout), but holds only the lines actually issued.
        assert_eq!(restore_from(&mut engine, 1 << 40, u64::MAX, 1000), PreemptProgress::InProgress);
        match &engine.mode {
            Mode::Restoring { buffer, .. } => assert!(buffer.len() <= 1000 * 64 * 4),
            _ => panic!("restore should still be streaming"),
        }
    }

    #[test]
    fn idle_engine_reports_idle() {
        let mut engine = PreemptEngine::new();
        let mut port = AccelPort::new();
        assert_eq!(engine.step(0, &mut port), PreemptProgress::Idle);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_begin_panics() {
        let mut engine = PreemptEngine::new();
        engine.begin_save(vec![0; 64]);
        engine.begin_restore();
    }
}
