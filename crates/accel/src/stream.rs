//! Read-ahead streaming with in-order retirement, and the shell every
//! streaming kernel is built from.
//!
//! Every throughput-oriented benchmark shares the same skeleton: issue
//! pipelined line reads ahead of the compute, retire lines *in input
//! order* into the compute (hash update, cipher, filter…), optionally
//! write transformed lines back, and pace the whole pipeline at the
//! kernel's per-line compute cost. [`StreamEngine`] implements the read
//! side once; [`StreamShell`] adds the SRC/DST/LINES registers, the
//! [`Pacer`] and the blob prefix around it, so a kernel supplies only its
//! compute and the state that compute carries.
//!
//! In-order retirement is also what makes preemption sound: the consume
//! cursor is a clean prefix, so a kernel's saved state is just "the job
//! configuration plus the consume cursor plus the compute state at that
//! cursor".
//!
//! A read that comes back master-aborted (no data: its line lies outside
//! the tenant's window) ends the stream short: the engine issues nothing
//! more, and once the reads still in flight have returned the input counts
//! as exhausted, so the job ends as soon as its writes settle.

use crate::mover::line;
use crate::ser::{Reader, Writer};
use optimus_fabric::accelerator::AccelPort;
use optimus_sim::hashing::FastMap;
use optimus_sim::time::Cycle;

/// Read-ahead window in lines. Must cover bandwidth × round-trip: MD5's
/// 0.25 lines/fabric-cycle demand at a ~300-cycle loaded round trip needs
/// ~80 outstanding; CCI-P supports hundreds. Kept a power of two so the
/// reorder ring indexes with a mask.
const STREAM_WINDOW: usize = 128;

/// Pipelined line reader with in-order retirement.
///
/// The reorder stage is a ring, not a map: every line index awaiting
/// consumption lies in `[consume_cursor, consume_cursor + window)` — the
/// issue loop never reads ahead more than `window` lines past the
/// consume point — so indices are unique modulo the window and slot
/// `idx % window` is collision-free by construction.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    src: u64,
    total_lines: u64,
    read_cursor: u64,
    consume_cursor: u64,
    reorder: Vec<Option<Box<[u8; 64]>>>,
    reordered: usize,
    /// Tag → line index of every read in flight. A response whose tag is
    /// not here answers a write.
    inflight: FastMap<u32, u64>,
    window: usize,
    write_acks: u64,
    writes_issued: u64,
    /// A read came back master-aborted: nothing more is issued.
    aborted: bool,
}

impl StreamEngine {
    /// Creates an engine reading `total_lines` lines from `src`.
    pub fn new(src: u64, total_lines: u64) -> Self {
        Self {
            src,
            total_lines,
            read_cursor: 0,
            consume_cursor: 0,
            reorder: (0..STREAM_WINDOW).map(|_| None).collect(),
            reordered: 0,
            inflight: FastMap::default(),
            window: STREAM_WINDOW,
            write_acks: 0,
            writes_issued: 0,
            aborted: false,
        }
    }

    /// Restarts the stream at line `cursor` (preemption resume).
    pub fn resume_at(&mut self, cursor: u64) {
        self.read_cursor = cursor;
        self.consume_cursor = cursor;
        self.reorder.iter_mut().for_each(|slot| *slot = None);
        self.reordered = 0;
        self.inflight.clear();
        self.write_acks = self.writes_issued; // nothing outstanding after drain
        self.aborted = false;
    }

    #[inline]
    fn slot(&self, idx: u64) -> usize {
        idx as usize & (self.window - 1)
    }

    /// The in-order consumption point (lines fully fed to the compute).
    pub fn consumed(&self) -> u64 {
        self.consume_cursor
    }

    /// Whether the stream ended short: a read master-aborted and every
    /// read still in flight has returned, so no further line arrives.
    pub fn aborted(&self) -> bool {
        self.aborted && self.inflight.is_empty()
    }

    /// Whether no further line will retire: every line has been consumed,
    /// or the stream [`aborted`](Self::aborted).
    pub fn input_exhausted(&self) -> bool {
        self.consume_cursor >= self.total_lines || self.aborted()
    }

    /// Whether every write issued through [`note_write`](Self::note_write)
    /// has been acknowledged.
    pub fn writes_settled(&self) -> bool {
        self.write_acks >= self.writes_issued
    }

    /// Records that the kernel issued a write through the port (so the
    /// engine can account its acknowledgment).
    pub fn note_write(&mut self) {
        self.writes_issued += 1;
    }

    /// Absorbs all delivered responses: read data enters the reorder
    /// buffer, a read without data marks the stream aborted, and write
    /// acknowledgments are counted.
    pub fn absorb(&mut self, port: &mut AccelPort) {
        while let Some(resp) = port.pop_response() {
            match (self.inflight.remove(&resp.tag.0), resp.data) {
                (Some(idx), Some(line)) => {
                    let slot = self.slot(idx);
                    debug_assert!(self.reorder[slot].is_none(), "ring slot collision");
                    self.reorder[slot] = Some(line);
                    self.reordered += 1;
                }
                (Some(_), None) => self.aborted = true,
                (None, None) => self.write_acks += 1,
                (None, Some(_)) => {}
            }
        }
    }

    /// Issues read-ahead requests up to the window.
    pub fn issue_reads(&mut self, port: &mut AccelPort, now: Cycle) {
        while self.wants_reads() && port.can_issue() {
            let tag = port.read(line(self.src, self.read_cursor), now);
            self.inflight.insert(tag.0, self.read_cursor);
            self.read_cursor += 1;
        }
    }

    /// Whether [`issue_reads`](Self::issue_reads) would issue anything given
    /// a willing port (fast-forward hint: engine-side conditions only).
    pub fn wants_reads(&self) -> bool {
        !self.aborted
            && self.read_cursor < self.total_lines
            && self.reordered + self.inflight.len() < self.window
    }

    /// Whether the next in-order line has arrived.
    pub fn has_next(&self) -> bool {
        self.reorder[self.slot(self.consume_cursor)].is_some()
    }

    /// Pops the next in-order line if it has arrived.
    pub fn next_line(&mut self) -> Option<(u64, Box<[u8; 64]>)> {
        let slot = self.slot(self.consume_cursor);
        let line = self.reorder[slot].take()?;
        self.reordered -= 1;
        let idx = self.consume_cursor;
        self.consume_cursor += 1;
        Some((idx, line))
    }
}

/// The shell of a streaming kernel: the SRC, DST and LINES registers, the
/// engine reading `lines` lines from `src`, and the pacer the kernel
/// spends its per-line cost from.
#[derive(Debug)]
pub struct StreamShell {
    /// Source GVA.
    pub(crate) src: u64,
    /// Destination GVA.
    pub(crate) dst: u64,
    /// Input length in lines.
    pub(crate) lines: u64,
    /// The current job's read-ahead engine.
    pub(crate) engine: StreamEngine,
    /// The kernel's compute credit.
    pub(crate) pacer: Pacer,
}

impl StreamShell {
    /// Register: source GVA.
    pub const REG_SRC: u64 = 0;
    /// Register: destination GVA.
    pub const REG_DST: u64 = 8;
    /// Register: input length in lines.
    pub const REG_LINES: u64 = 16;

    /// A shell with every register zero and no job.
    pub(crate) fn new() -> Self {
        Self {
            src: 0,
            dst: 0,
            lines: 0,
            engine: StreamEngine::new(0, 0),
            pacer: Pacer::new(),
        }
    }

    /// Writes SRC, DST or LINES; other offsets are ignored.
    pub(crate) fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            Self::REG_SRC => self.src = value,
            Self::REG_DST => self.dst = value,
            Self::REG_LINES => self.lines = value,
            _ => {}
        }
    }

    /// Reads SRC, DST or LINES; other offsets read as 0.
    pub(crate) fn read_reg(&self, offset: u64) -> u64 {
        match offset {
            Self::REG_SRC => self.src,
            Self::REG_DST => self.dst,
            Self::REG_LINES => self.lines,
            _ => 0,
        }
    }

    /// Starts the programmed stream at line `cursor` with no banked
    /// credit: 0 for a fresh job, the saved cursor on restore.
    pub(crate) fn start_at(&mut self, cursor: u64) {
        self.engine = StreamEngine::new(self.src, self.lines);
        self.engine.resume_at(cursor);
        self.pacer.reset();
    }

    /// The prologue of every step: bank a cycle of credit (capped at
    /// `max_bank`), absorb the delivered responses, issue read-ahead.
    #[inline]
    pub(crate) fn pump(&mut self, max_bank: f64, now: Cycle, port: &mut AccelPort) {
        self.pacer.tick(max_bank);
        self.engine.absorb(port);
        self.engine.issue_reads(port, now);
    }

    /// Writes `out` to output line `idx` (at `dst + 64·idx`), accounted
    /// for [`StreamEngine::writes_settled`].
    pub(crate) fn write_line(&mut self, idx: u64, out: [u8; 64], now: Cycle, port: &mut AccelPort) {
        port.write(line(self.dst, idx), Box::new(out), now);
        self.engine.note_write();
    }

    /// Appends the state blob's prefix: SRC, DST, LINES.
    pub(crate) fn save(&self, w: &mut Writer) {
        w.u64(self.src).u64(self.dst).u64(self.lines);
    }

    /// Reads back the prefix [`save`](Self::save) wrote.
    pub(crate) fn load(&mut self, r: &mut Reader) -> Option<()> {
        self.src = r.u64()?;
        self.dst = r.u64()?;
        self.lines = r.u64()?;
        Some(())
    }
}

/// Fractional-cost pacing: a kernel earns 1 credit per cycle of its own
/// clock and spends `cost` credits per unit of work, allowing non-integer
/// per-line costs (e.g. SHA-512's 4.5 cycles per line).
#[derive(Debug, Clone, Copy, Default)]
pub struct Pacer {
    credit: f64,
}

impl Pacer {
    /// Creates a pacer with no banked credit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accrues one cycle of credit (capped to avoid unbounded bursts).
    pub fn tick(&mut self, max_bank: f64) {
        self.credit = (self.credit + 1.0).min(max_bank);
    }

    /// Whether the bank is at its cap, making a further
    /// [`tick`](Self::tick) with the same `max_bank` a bitwise no-op (the
    /// min-clamp assigns exactly `max_bank` again). Fast-forward hint: a
    /// kernel whose only remaining activity is credit accrual is quiescent
    /// once saturated.
    pub fn saturated(&self, max_bank: f64) -> bool {
        self.credit >= max_bank
    }

    /// Attempts to spend `cost` credits; returns whether the work may run.
    pub fn try_spend(&mut self, cost: f64) -> bool {
        if self.credit + 1e-9 >= cost {
            self.credit -= cost;
            true
        } else {
            false
        }
    }

    /// Clears banked credit (job start / resume).
    pub fn reset(&mut self) {
        self.credit = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::Rig;
    use optimus_mem::addr::Gva;

    /// A rig whose first `n` lines carry their own index in byte 0.
    fn indexed(n: usize) -> Rig {
        let mut mem = vec![0u8; n * 64];
        for i in 0..n {
            mem[i * 64] = i as u8;
        }
        Rig::new(mem)
    }

    #[test]
    fn lines_retire_in_order() {
        let mut eng = StreamEngine::new(0, 20);
        let mut rig = indexed(20);
        let mut seen = Vec::new();
        while !eng.input_exhausted() {
            eng.issue_reads(&mut rig.port, rig.now);
            rig.serve();
            eng.absorb(&mut rig.port);
            while let Some((idx, line)) = eng.next_line() {
                assert_eq!(line[0] as u64, idx);
                seen.push(idx);
            }
            rig.now += 1;
            assert!(rig.now < 200, "the stream never ended");
        }
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn window_bounds_outstanding_reads() {
        let mut eng = StreamEngine::new(0, 1000);
        let mut port = AccelPort::new();
        // Never service: the engine must stop at its window even though the
        // port allows more (port pending capacity also gates).
        for now in 0..100 {
            eng.issue_reads(&mut port, now);
            // Drain the port's pending stage without answering.
            while port.take_pending().is_some() {}
        }
        assert!(eng.inflight.len() <= 128);
    }

    #[test]
    fn resume_at_discards_speculative_state() {
        let mut eng = StreamEngine::new(0, 100);
        let mut rig = indexed(100);
        eng.issue_reads(&mut rig.port, 0);
        rig.serve();
        eng.absorb(&mut rig.port);
        eng.next_line();
        eng.next_line();
        assert_eq!(eng.consumed(), 2);
        eng.resume_at(2);
        assert_eq!(eng.consumed(), 2);
        assert!(eng.reorder.iter().all(|slot| slot.is_none()));
        assert_eq!(eng.reordered, 0);
        assert!(eng.inflight.is_empty());
    }

    #[test]
    fn write_accounting() {
        let mut eng = StreamEngine::new(0, 1);
        let mut rig = Rig::new(Vec::new());
        assert!(eng.writes_settled());
        eng.note_write();
        rig.port.write(Gva::new(0), Box::new([0; 64]), 0);
        assert!(!eng.writes_settled());
        rig.serve();
        eng.absorb(&mut rig.port);
        assert!(eng.writes_settled());
    }

    #[test]
    fn an_aborted_read_ends_the_stream_once_in_flight_reads_return() {
        // Lines from 6 on lie outside the window.
        let mut eng = StreamEngine::new(0, 64);
        let mut rig = indexed(64);
        rig.window = 6 * 64;
        let mut consumed = Vec::new();
        while !eng.input_exhausted() {
            eng.issue_reads(&mut rig.port, rig.now);
            rig.serve();
            eng.absorb(&mut rig.port);
            consumed.extend(std::iter::from_fn(|| eng.next_line().map(|(i, _)| i)));
            rig.now += 1;
            assert!(rig.now < 100, "the aborted stream never ended");
        }
        // The lines before the hole retire in order; nothing more issues.
        assert!(eng.aborted());
        assert_eq!(consumed, [0, 1, 2, 3, 4, 5]);
        assert!(!eng.wants_reads());
        let issued = eng.read_cursor;
        eng.issue_reads(&mut rig.port, rig.now);
        assert_eq!(eng.read_cursor, issued);
        // A restart clears the abort.
        eng.resume_at(0);
        assert!(!eng.aborted() && eng.wants_reads());
    }

    #[test]
    fn pacer_fractional_costs() {
        let mut p = Pacer::new();
        let mut work = 0;
        for _ in 0..45 {
            p.tick(16.0);
            if p.try_spend(4.5) {
                work += 1;
            }
        }
        assert_eq!(work, 10); // 45 cycles / 4.5 per unit
    }

    #[test]
    fn pacer_bank_is_capped() {
        let mut p = Pacer::new();
        for _ in 0..1000 {
            p.tick(8.0);
        }
        // Only 8 credits banked: at cost 1, at most 8 units immediately.
        let mut burst = 0;
        while p.try_spend(1.0) {
            burst += 1;
        }
        assert_eq!(burst, 8);
    }
}
