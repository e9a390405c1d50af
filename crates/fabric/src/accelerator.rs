//! The accelerator abstraction and its DMA port.
//!
//! Every benchmark in `optimus-accel` implements [`Accelerator`]: a
//! cycle-stepped state machine with an MMIO register file and a DMA port.
//! The trait bakes in the paper's *preemption interface* (§4.2): a set of
//! privileged control registers through which the hypervisor starts,
//! preempts, and resumes jobs, with execution state saved to a guest-
//! provided memory buffer via ordinary DMA writes.
//!
//! [`AccelPort`] is the accelerator side of the auditor link. It enforces
//! the structural contract of CCI-P pipelining (bounded outstanding
//! requests), matches responses to requests by tag, and doubles as the
//! measurement point for per-accelerator bandwidth and latency.

use crate::auditor::OutboundReq;
use optimus_cci::packet::{Line, Tag};
use optimus_cci::params::MAX_OUTSTANDING;
use optimus_mem::addr::Gva;
use optimus_sim::hashing::FastMap;
use optimus_sim::stats::{LatencyStats, ThroughputMeter};
use optimus_sim::time::Cycle;
use std::collections::VecDeque;

/// Static description of an accelerator configuration (Table 1 + Table 2
/// inputs).
#[derive(Debug, Clone)]
pub struct AccelMeta {
    /// Short name as used in the paper's tables (e.g. `"AES"`).
    pub name: &'static str,
    /// One-line description (Table 1's "Description" column).
    pub description: &'static str,
    /// Synthesized clock frequency in MHz (Table 1).
    pub freq_mhz: u64,
    /// Lines of Verilog in the original implementation (Table 1).
    pub verilog_loc: u32,
    /// Single-instance ALM utilization %, from the synthesis report
    /// (Table 2's pass-through column).
    pub alm_pct: f64,
    /// Single-instance BRAM utilization % (Table 2's pass-through column).
    pub bram_pct: f64,
    /// Measured 8-instance replication factor for ALMs (toolchain input;
    /// >8 means routing overhead, <8 means the synthesizer found sharing).
    pub alm_scale8: f64,
    /// Measured 8-instance replication factor for BRAM.
    pub bram_scale8: f64,
    /// Architectural state saved on preemption, in bytes.
    pub state_bytes: u64,
    /// Nominal fraction of the 12.8 GB/s monitor bandwidth the accelerator
    /// demands when running alone (documentation/validation only; actual
    /// demand emerges from the state machine).
    pub demand: f64,
}

/// Values of the `CTRL_STATUS` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum CtrlStatus {
    /// No job programmed.
    Idle = 0,
    /// Executing a job.
    Running = 1,
    /// Draining in-flight transactions and writing state to memory.
    Saving = 2,
    /// State saved; safe to schedule another virtual accelerator.
    Saved = 3,
    /// Job complete.
    Done = 4,
}

impl CtrlStatus {
    /// Decodes a register value (unknown values read as `Idle`).
    pub fn from_u64(v: u64) -> Self {
        match v {
            1 => CtrlStatus::Running,
            2 => CtrlStatus::Saving,
            3 => CtrlStatus::Saved,
            4 => CtrlStatus::Done,
            _ => CtrlStatus::Idle,
        }
    }
}

/// A response delivered to the accelerator by its auditor.
#[derive(Debug, Clone)]
pub struct AccelResponse {
    /// The tag of the originating request.
    pub tag: Tag,
    /// The line read, or `None` for a write acknowledgment.
    pub data: Option<Box<Line>>,
}

/// The accelerator side of the auditor link.
#[derive(Debug)]
pub struct AccelPort {
    next_tag: u32,
    /// Tag → (issue cycle, is_write). Keyed by simulator-generated tags,
    /// so the fast deterministic hasher applies (this map is touched
    /// twice per DMA — the hottest map in the workspace).
    in_flight: FastMap<u32, (Cycle, bool)>,
    pending: VecDeque<OutboundReq>,
    responses: VecDeque<AccelResponse>,
    latency: LatencyStats,
    meter: ThroughputMeter,
    read_bytes: u64,
    write_bytes: u64,
    stale_discarded: u64,
}

/// How many issued-but-not-yet-forwarded requests a port buffers before the
/// accelerator must stall (the register stage between accelerator and
/// auditor).
const PORT_PENDING_CAPACITY: usize = 4;

impl Default for AccelPort {
    fn default() -> Self {
        Self::new()
    }
}

impl AccelPort {
    /// Creates an idle port.
    pub fn new() -> Self {
        Self {
            next_tag: 0,
            in_flight: FastMap::default(),
            pending: VecDeque::new(),
            responses: VecDeque::new(),
            latency: LatencyStats::new(),
            meter: ThroughputMeter::new(),
            read_bytes: 0,
            write_bytes: 0,
            stale_discarded: 0,
        }
    }

    /// Whether the accelerator may issue another request this cycle.
    pub fn can_issue(&self) -> bool {
        self.pending.len() < PORT_PENDING_CAPACITY && self.in_flight.len() < MAX_OUTSTANDING
    }

    /// Issues a line read at `gva`.
    ///
    /// # Panics
    ///
    /// Panics if called while [`can_issue`](Self::can_issue) is false —
    /// accelerators must respect backpressure.
    pub fn read(&mut self, gva: Gva, now: Cycle) -> Tag {
        assert!(self.can_issue(), "accelerator issued past backpressure");
        let tag = Tag(self.next_tag);
        self.next_tag = self.next_tag.wrapping_add(1);
        self.in_flight.insert(tag.0, (now, false));
        self.pending.push_back(OutboundReq {
            gva,
            write: None,
            tag,
        });
        tag
    }

    /// Issues a line write of `data` at `gva`.
    ///
    /// # Panics
    ///
    /// Panics if called while [`can_issue`](Self::can_issue) is false.
    pub fn write(&mut self, gva: Gva, data: Box<Line>, now: Cycle) -> Tag {
        assert!(self.can_issue(), "accelerator issued past backpressure");
        let tag = Tag(self.next_tag);
        self.next_tag = self.next_tag.wrapping_add(1);
        self.in_flight.insert(tag.0, (now, true));
        self.pending.push_back(OutboundReq {
            gva,
            write: Some(data),
            tag,
        });
        tag
    }

    /// Pops the next delivered response, if any.
    pub fn pop_response(&mut self) -> Option<AccelResponse> {
        self.responses.pop_front()
    }

    /// Number of delivered responses the accelerator has not yet popped.
    ///
    /// Used by the fast-forward machinery: a non-empty response queue means
    /// the next `step` is never a no-op, regardless of what the
    /// accelerator's own quiescence hint says.
    pub fn queued_responses(&self) -> usize {
        self.responses.len()
    }

    /// Number of requests issued but not yet answered.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// True when no requests are pending or in flight — the quiesced
    /// condition the preemption interface waits for.
    pub fn is_drained(&self) -> bool {
        self.in_flight.is_empty() && self.pending.is_empty()
    }

    // ---- device-side interface -------------------------------------------

    /// Takes the oldest not-yet-forwarded request (auditor side).
    pub fn take_pending(&mut self) -> Option<OutboundReq> {
        self.pending.pop_front()
    }

    /// Peeks whether a request is waiting to be forwarded.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Delivers a response from the auditor. Unknown tags (stale responses
    /// from before a reset) are discarded and counted.
    ///
    /// Returns whether the response matched an in-flight request, so the
    /// device can fold stale discards into its own integrity accounting
    /// exactly once (the port-local counter alone was invisible to
    /// `HvStats.discarded_dma`).
    pub fn deliver(&mut self, tag: Tag, data: Option<Box<Line>>, now: Cycle) -> bool {
        match self.in_flight.remove(&tag.0) {
            Some((issued_at, is_write)) => {
                self.latency.record(now.saturating_sub(issued_at));
                let bytes = 64;
                if is_write {
                    self.write_bytes += bytes;
                } else {
                    self.read_bytes += bytes;
                }
                self.meter.add_bytes(bytes);
                self.responses.push_back(AccelResponse { tag, data });
                true
            }
            None => {
                self.stale_discarded += 1;
                false
            }
        }
    }

    /// Clears all port state (accelerator reset). In-flight responses that
    /// arrive later are dropped as stale.
    pub fn reset(&mut self) {
        self.in_flight.clear();
        self.pending.clear();
        self.responses.clear();
    }

    // ---- measurement ------------------------------------------------------

    /// Starts a throughput measurement window.
    pub fn open_window(&mut self, now: Cycle) {
        self.meter.open_window(now);
    }

    /// Ends the throughput measurement window.
    pub fn close_window(&mut self, now: Cycle) {
        self.meter.close_window(now);
    }

    /// Bytes moved inside the window.
    pub fn window_bytes(&self) -> u64 {
        self.meter.bytes()
    }

    /// Per-request latency statistics (mutable: the harness takes them at
    /// window open to exclude warm-up).
    pub fn latency_stats(&mut self) -> &mut LatencyStats {
        &mut self.latency
    }

    /// Lifetime (read, write) byte counters.
    pub fn byte_counts(&self) -> (u64, u64) {
        (self.read_bytes, self.write_bytes)
    }

    /// Stale responses discarded since construction.
    pub fn stale_discarded(&self) -> u64 {
        self.stale_discarded
    }
}

/// A simulated FPGA accelerator.
///
/// Implementations are cycle-stepped state machines: [`step`](Self::step)
/// is invoked on every rising edge of the accelerator's own clock (derived
/// from the 400 MHz fabric clock via its divider), and may issue at most a
/// handful of DMA requests through the port per step, subject to
/// [`AccelPort::can_issue`].
pub trait Accelerator: Send {
    /// Static metadata (Table 1/Table 2 inputs).
    fn meta(&self) -> &AccelMeta;

    /// Hardware reset: return all architectural state to power-on values.
    fn reset(&mut self);

    /// MMIO register write (page-relative offset).
    fn mmio_write(&mut self, offset: u64, value: u64);

    /// MMIO register read (page-relative offset).
    fn mmio_read(&mut self, offset: u64) -> u64;

    /// One cycle of the accelerator's clock domain.
    fn step(&mut self, now: Cycle, port: &mut AccelPort);

    /// Current control status (mirrors the `CTRL_STATUS` register without
    /// MMIO side effects).
    fn status(&self) -> CtrlStatus;

    /// Side-effect-free peek at an *application* register (offset relative
    /// to [`crate::mmio::accel_reg::APP_BASE`]). The hypervisor uses this
    /// to harvest a completed job's result registers when it evicts the
    /// tenant from the physical slot; accelerators without readable
    /// application state can keep the all-zero default.
    fn peek_reg(&self, offset: u64) -> u64 {
        let _ = offset;
        0
    }

    /// Whether the programmed job has completed.
    fn is_done(&self) -> bool {
        self.status() == CtrlStatus::Done
    }

    /// Quiescence hint for event-horizon fast-forwarding.
    ///
    /// Returning `Some(t)` with `t > now` (or `None`, meaning "indefinitely
    /// quiescent") asserts that every [`step`](Self::step) before `t` is a
    /// *pure no-op* — no state change, no port activity — provided nothing
    /// touches the accelerator or its port in the gap. The device caches
    /// the hint per slot and skips the accelerator's steps until it is due,
    /// while other slots run on; it re-polls the hint after a response
    /// delivery, an MMIO read or write, the auditor taking a pending
    /// request (which frees [`AccelPort::can_issue`]), or a reset. It also
    /// wakes the accelerator on its next edge while responses are queued,
    /// so hints only need to reason about the accelerator's own state and
    /// the port's issue capacity.
    ///
    /// The default `Some(now)` ("an event this cycle") disables skipping, so
    /// implementations are correct by default and opt in incrementally.
    fn next_event(&self, now: Cycle, port: &AccelPort) -> Option<Cycle> {
        let _ = port;
        Some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_sequential() {
        let mut p = AccelPort::new();
        let t1 = p.read(Gva::new(0), 0);
        let t2 = p.write(Gva::new(64), Box::new([0; 64]), 0);
        assert_ne!(t1, t2);
        assert_eq!(p.outstanding(), 2);
        assert!(p.has_pending());
    }

    #[test]
    fn pending_capacity_applies_backpressure() {
        let mut p = AccelPort::new();
        for i in 0..PORT_PENDING_CAPACITY {
            assert!(p.can_issue(), "slot {i}");
            p.read(Gva::new(i as u64 * 64), 0);
        }
        assert!(!p.can_issue());
        p.take_pending().unwrap();
        assert!(p.can_issue());
    }

    #[test]
    #[should_panic(expected = "backpressure")]
    fn issuing_past_backpressure_panics() {
        let mut p = AccelPort::new();
        for i in 0..=PORT_PENDING_CAPACITY {
            p.read(Gva::new(i as u64 * 64), 0);
        }
    }

    #[test]
    fn deliver_matches_tag_and_records_latency() {
        let mut p = AccelPort::new();
        let t = p.read(Gva::new(0), 100);
        p.take_pending();
        p.deliver(t, Some(Box::new([9; 64])), 300);
        let r = p.pop_response().unwrap();
        assert_eq!(r.tag, t);
        assert_eq!(r.data.unwrap()[0], 9);
        assert_eq!(p.latency_stats().mean_cycles(), 200.0);
        assert_eq!(p.byte_counts(), (64, 0));
        assert!(p.is_drained());
    }

    #[test]
    fn stale_responses_after_reset_are_discarded() {
        let mut p = AccelPort::new();
        let t = p.read(Gva::new(0), 0);
        p.take_pending();
        p.reset();
        p.deliver(t, Some(Box::new([0; 64])), 50);
        assert!(p.pop_response().is_none());
        assert_eq!(p.stale_discarded(), 1);
    }

    #[test]
    fn window_meters_only_bracketed_bytes() {
        let mut p = AccelPort::new();
        let t0 = p.read(Gva::new(0), 0);
        p.take_pending();
        p.deliver(t0, Some(Box::new([0; 64])), 10); // before window
        p.open_window(100);
        let t1 = p.write(Gva::new(64), Box::new([1; 64]), 100);
        p.take_pending();
        p.deliver(t1, None, 150);
        p.close_window(200);
        assert_eq!(p.window_bytes(), 64);
        assert_eq!(p.byte_counts(), (64, 64));
    }

    #[test]
    fn ctrl_status_decodes() {
        assert_eq!(CtrlStatus::from_u64(0), CtrlStatus::Idle);
        assert_eq!(CtrlStatus::from_u64(3), CtrlStatus::Saved);
        assert_eq!(CtrlStatus::from_u64(99), CtrlStatus::Idle);
    }
}
