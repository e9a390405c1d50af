//! A minimal reference accelerator for exercising the fabric.
//!
//! [`StreamCopier`] reads a range of lines from a source GVA, XORs every
//! byte with a constant, and writes the result to a destination GVA. It is
//! deliberately trivial — its purpose is to validate the full
//! monitor/auditor/tree/IOMMU path (and the preemption protocol) in fabric
//! and hypervisor tests without pulling in the real benchmark crate.
//! The real Table 1 accelerators live in `optimus-accel`.

use crate::accelerator::{AccelMeta, AccelPort, Accelerator, CtrlStatus};
use crate::mmio::accel_reg;
use crate::preempt::{PreemptEngine, PreemptProgress};
use optimus_mem::addr::Gva;
use optimus_sim::time::Cycle;

/// Execution phase of the copier.
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

/// A preemptible streaming XOR-copy accelerator (tests only).
#[derive(Debug)]
pub struct StreamCopier {
    meta: AccelMeta,
    phase: Phase,
    src: u64,
    dst: u64,
    lines: u64,
    xor: u8,
    /// Next line to read.
    read_cursor: u64,
    /// Next line to write (writes are issued strictly in order, so the
    /// written region is always a prefix — the invariant preemption needs).
    write_cursor: u64,
    /// Write acknowledgments retired.
    written: u64,
    engine: PreemptEngine,
    /// Read tag → line index.
    inflight_reads: std::collections::HashMap<u32, u64>,
    /// Lines read but not yet written (reorder buffer).
    reorder: std::collections::HashMap<u64, Box<[u8; 64]>>,
}

impl Default for StreamCopier {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamCopier {
    /// Application register: source GVA.
    pub const REG_SRC: u64 = accel_reg::APP_BASE;
    /// Application register: destination GVA.
    pub const REG_DST: u64 = accel_reg::APP_BASE + 8;
    /// Application register: number of lines to copy.
    pub const REG_LINES: u64 = accel_reg::APP_BASE + 16;
    /// Application register: XOR constant (low byte used).
    pub const REG_XOR: u64 = accel_reg::APP_BASE + 24;

    /// Creates an idle copier.
    pub fn new() -> Self {
        Self {
            meta: AccelMeta {
                name: "COPY",
                description: "XOR stream copier (test fixture)",
                freq_mhz: 400,
                verilog_loc: 0,
                alm_pct: 0.5,
                bram_pct: 0.0,
                alm_scale8: 8.0,
                bram_scale8: 8.0,
                state_bytes: 64,
                demand: 0.5,
            },
            phase: Phase::Idle,
            src: 0,
            dst: 0,
            lines: 0,
            xor: 0,
            read_cursor: 0,
            write_cursor: 0,
            written: 0,
            engine: PreemptEngine::new(),
            inflight_reads: std::collections::HashMap::new(),
            reorder: std::collections::HashMap::new(),
        }
    }

    fn serialize_state(&self) -> Vec<u8> {
        // The minimal state a designer would save (§4.2): configuration plus
        // the write cursor, which is the resume point because writes retire
        // in order.
        let mut out = Vec::with_capacity(64);
        for v in [self.src, self.dst, self.lines, self.write_cursor, self.xor as u64] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Restores [`serialize_state`](Self::serialize_state)'s layout;
    /// `None` if the blob is too short to hold it.
    fn restore_state(&mut self, bytes: &[u8]) -> Option<()> {
        let word = |i: usize| Some(u64::from_le_bytes(*bytes.get(8 * i..)?.first_chunk()?));
        self.src = word(0)?;
        self.dst = word(1)?;
        self.lines = word(2)?;
        self.write_cursor = word(3)?;
        self.xor = word(4)? as u8;
        self.read_cursor = self.write_cursor;
        self.written = self.write_cursor;
        Some(())
    }
}

impl Accelerator for StreamCopier {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn reset(&mut self) {
        *self = StreamCopier::new();
    }

    fn mmio_write(&mut self, offset: u64, value: u64) {
        match offset {
            accel_reg::CTRL_CMD => match value {
                accel_reg::CMD_START => {
                    self.read_cursor = 0;
                    self.write_cursor = 0;
                    self.written = 0;
                    self.inflight_reads.clear();
                    self.reorder.clear();
                    self.phase = if self.lines == 0 { Phase::Done } else { Phase::Running };
                }
                accel_reg::CMD_PREEMPT => {
                    if self.phase == Phase::Running {
                        self.phase = Phase::Draining;
                    } else if matches!(self.phase, Phase::Idle | Phase::Done) {
                        // Nothing running: trivially saved.
                        self.phase = Phase::Saved;
                    }
                }
                accel_reg::CMD_RESUME => {
                    self.engine.begin_restore();
                    self.phase = Phase::Restoring;
                }
                _ => {}
            },
            accel_reg::CTRL_STATE_ADDR => self.engine.set_state_addr(Gva::new(value)),
            Self::REG_SRC => self.src = value,
            Self::REG_DST => self.dst = value,
            Self::REG_LINES => self.lines = value,
            Self::REG_XOR => self.xor = value as u8,
            _ => {}
        }
    }

    fn mmio_read(&mut self, offset: u64) -> u64 {
        match offset {
            accel_reg::CTRL_STATUS => self.status() as u64,
            accel_reg::CTRL_STATE_SIZE => self.meta.state_bytes,
            Self::REG_SRC => self.src,
            Self::REG_DST => self.dst,
            Self::REG_LINES => self.lines,
            Self::REG_XOR => self.xor as u64,
            _ => 0,
        }
    }

    fn step(&mut self, now: Cycle, port: &mut AccelPort) {
        match self.phase {
            Phase::Idle | Phase::Saved | Phase::Done => {}
            Phase::Running => {
                // Retire responses: read data enters the reorder buffer,
                // write acknowledgments count toward completion.
                while let Some(resp) = port.pop_response() {
                    match resp.data {
                        Some(line) => {
                            let idx = self
                                .inflight_reads
                                .remove(&resp.tag.0)
                                .expect("read tag tracked");
                            self.reorder.insert(idx, line);
                        }
                        None => self.written += 1,
                    }
                }
                // Issue writes strictly in line order.
                while port.can_issue() {
                    let Some(line) = self.reorder.remove(&self.write_cursor) else {
                        break;
                    };
                    let mut out = *line;
                    for b in out.iter_mut() {
                        *b ^= self.xor;
                    }
                    port.write(Gva::new(self.dst + self.write_cursor * 64), Box::new(out), now);
                    self.write_cursor += 1;
                }
                // Issue the next read (bounded reorder window).
                if self.read_cursor < self.lines && self.reorder.len() < 16 && port.can_issue() {
                    let tag = port.read(Gva::new(self.src + self.read_cursor * 64), now);
                    self.inflight_reads.insert(tag.0, self.read_cursor);
                    self.read_cursor += 1;
                }
                if self.written == self.lines {
                    self.phase = Phase::Done;
                }
            }
            Phase::Draining => {
                // Stop issuing; let everything in flight land.
                while let Some(resp) = port.pop_response() {
                    if resp.data.is_some() {
                        let idx = self.inflight_reads.remove(&resp.tag.0).expect("tracked");
                        self.reorder.insert(idx, resp.data.unwrap());
                    } else {
                        self.written += 1;
                    }
                }
                if port.is_drained() {
                    // Because writes retire in order and all issued writes
                    // have now acked, the written prefix is exactly
                    // [0, write_cursor); the save point is the write cursor.
                    self.reorder.clear();
                    self.inflight_reads.clear();
                    self.engine.begin_save(self.serialize_state());
                    self.phase = Phase::Saving;
                }
            }
            Phase::Saving => {
                if self.engine.step(now, port) == PreemptProgress::SaveDone {
                    self.phase = Phase::Saved;
                }
            }
            Phase::Restoring => match self.engine.step(now, port) {
                PreemptProgress::RestoreDone(bytes) if self.restore_state(&bytes).is_some() => {
                    self.inflight_reads.clear();
                    self.reorder.clear();
                    self.phase = if self.written == self.lines {
                        Phase::Done
                    } else {
                        Phase::Running
                    };
                }
                PreemptProgress::RestoreDone(_) | PreemptProgress::RestoreFailed => {
                    *self = StreamCopier::new();
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
        // Quiescence hint: each arm mirrors `step` — `Some(now)` whenever
        // that arm could pop a response, issue a request, or change phase.
        match self.phase {
            Phase::Idle | Phase::Saved | Phase::Done => None,
            Phase::Running => {
                if port.queued_responses() > 0 || self.written == self.lines {
                    return Some(now);
                }
                let write_ready = self.reorder.contains_key(&self.write_cursor);
                let read_ready = self.read_cursor < self.lines && self.reorder.len() < 16;
                if port.can_issue() && (write_ready || read_ready) {
                    Some(now)
                } else {
                    None
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

    #[test]
    fn registers_read_back() {
        let mut c = StreamCopier::new();
        c.mmio_write(StreamCopier::REG_SRC, 0x1000);
        c.mmio_write(StreamCopier::REG_LINES, 42);
        assert_eq!(c.mmio_read(StreamCopier::REG_SRC), 0x1000);
        assert_eq!(c.mmio_read(StreamCopier::REG_LINES), 42);
        assert_eq!(c.mmio_read(accel_reg::CTRL_STATE_SIZE), 64);
    }

    #[test]
    fn zero_line_job_is_immediately_done() {
        let mut c = StreamCopier::new();
        c.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        assert!(c.is_done());
    }

    #[test]
    fn state_serialization_round_trips() {
        let mut c = StreamCopier::new();
        c.src = 0x111;
        c.dst = 0x222;
        c.lines = 33;
        c.write_cursor = 7;
        c.xor = 0xAB;
        let bytes = c.serialize_state();
        let mut d = StreamCopier::new();
        assert_eq!(d.restore_state(&bytes), Some(()));
        assert_eq!((d.src, d.dst, d.lines, d.write_cursor, d.read_cursor, d.xor),
                   (0x111, 0x222, 33, 7, 7, 0xAB));
        assert_eq!(d.restore_state(&bytes[..39]), None);
    }

    #[test]
    fn preempt_while_idle_reports_saved() {
        let mut c = StreamCopier::new();
        c.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_PREEMPT);
        assert_eq!(c.status(), CtrlStatus::Saved);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut c = StreamCopier::new();
        c.mmio_write(StreamCopier::REG_LINES, 9);
        c.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        c.reset();
        assert_eq!(c.status(), CtrlStatus::Idle);
        assert_eq!(c.mmio_read(StreamCopier::REG_LINES), 0);
    }
}
