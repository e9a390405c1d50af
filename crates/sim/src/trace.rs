//! Flight recorder: cycle-stamped event tracing for the whole stack.
//!
//! Every layer of the simulator (hypervisor traps, IOTLB fills, channel
//! arbitration, mux-tree grants, preemption phases) can emit events into
//! a bounded per-thread ring buffer. The recorder exports Chrome
//! `trace_event` JSON that loads directly into Perfetto / `chrome://tracing`,
//! with one track per vAccel, per DMA link, and per mux node. Aggregate
//! counts live in the [`crate::metrics`] plane, not here.
//!
//! # Gating
//!
//! Tracing is **off by default** and enabled by the `OPTIMUS_TRACE`
//! environment variable (see [`crate::plane::env_gate`] for the accepted
//! values), sampled once per thread; tests can override per thread with
//! [`set_enabled`].
//! When disabled every emit helper returns after a single thread-local
//! flag read, so instrumented hot paths cost one predictable branch.
//! Instrumentation is read-only with respect to simulation state — a
//! traced run and an untraced run of the same workload produce bit-equal
//! fingerprints (enforced by a differential property test in
//! `optimus-core`).
//!
//! # Bounds
//!
//! The ring buffer holds [`DEFAULT_CAPACITY`] events (override with
//! `OPTIMUS_TRACE_CAP`); when full, the oldest events are overwritten
//! and counted in [`dropped`], so memory stays bounded no matter how
//! long the run.
//!
//! The recorder is thread-local on purpose: `cargo test` runs each test
//! on its own thread, so concurrent tests never interleave events, and
//! the hot path takes no lock.

use crate::time::Cycle;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Default ring-buffer capacity, in events.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Microseconds per fabric cycle (400 MHz fabric → 2.5 ns → 0.0025 µs),
/// the unit Chrome trace timestamps are expressed in.
const US_PER_CYCLE: f64 = 0.0025;

/// Maximum number of key/value arguments attached to one event.
const MAX_ARGS: usize = 3;

/// A Perfetto track: a (process, thread) pair. Processes group the
/// architectural layers; threads are the per-instance lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    pid: u32,
    tid: u32,
}

impl Track {
    /// Hypervisor-global lane (scheduler decisions, slice boundaries).
    pub const fn hypervisor() -> Track {
        Track { pid: 1, tid: 0 }
    }

    /// One lane per vAccel (traps, hypercalls, preemption phases).
    pub const fn vaccel(id: u32) -> Track {
        Track { pid: 1, tid: 1 + id }
    }

    /// The IOMMU / IOTLB lane (hits, misses, evictions, page walks).
    pub const fn iommu() -> Track {
        Track { pid: 2, tid: 0 }
    }

    /// The channel-selector lane (UPI/PCIe switches).
    pub const fn channels() -> Track {
        Track { pid: 2, tid: 1 }
    }

    /// One lane per physical-accelerator DMA link (round-trips).
    pub const fn link(accel: usize) -> Track {
        Track {
            pid: 2,
            tid: 2 + accel as u32,
        }
    }

    /// One lane per mux-tree node (grants and stalls).
    pub const fn mux_node(node: usize) -> Track {
        Track {
            pid: 3,
            tid: node as u32,
        }
    }

    /// One lane per accelerator slot / auditor (save/restore streaming).
    pub const fn accel(slot: usize) -> Track {
        Track {
            pid: 4,
            tid: slot as u32,
        }
    }

    /// Human-readable process name for the Perfetto process rail.
    fn process_name(self) -> &'static str {
        match self.pid {
            1 => "hypervisor",
            2 => "host-interface",
            3 => "mux-tree",
            _ => "accelerators",
        }
    }

    /// Human-readable thread (track) name.
    fn thread_name(self) -> String {
        match (self.pid, self.tid) {
            (1, 0) => "scheduler".to_string(),
            (1, t) => format!("vaccel{}", t - 1),
            (2, 0) => "iommu".to_string(),
            (2, 1) => "channel-selector".to_string(),
            (2, t) => format!("link{}", t - 2),
            (3, t) => format!("node{t}"),
            (_, t) => format!("accel{t}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A span with a known duration at emit time (`ph: "X"`).
    Complete,
    /// Opening edge of a nesting span (`ph: "B"`).
    Begin,
    /// Closing edge of a nesting span (`ph: "E"`).
    End,
    /// Flow-arrow start (`ph: "s"`): the `dur` field carries the flow id.
    FlowStart,
    /// Flow-arrow finish (`ph: "f"`, binding `bp: "e"`); id in `dur`.
    FlowEnd,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    track: Track,
    name: &'static str,
    kind: EventKind,
    ts: Cycle,
    dur: Cycle,
    args: [(&'static str, u64); MAX_ARGS],
    nargs: u8,
}

#[derive(Debug, Default)]
struct Recorder {
    buf: Vec<Event>,
    /// Next overwrite position once `buf.len() == cap`.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl Recorder {
    fn with_capacity(cap: usize) -> Recorder {
        Recorder {
            cap: cap.max(1),
            ..Recorder::default()
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events in emission (chronological) order.
    fn ordered(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }
}

fn env_capacity() -> usize {
    std::env::var("OPTIMUS_TRACE_CAP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_CAPACITY)
}

thread_local! {
    static ENABLED: Cell<bool> = Cell::new(crate::plane::env_gate("OPTIMUS_TRACE", false));
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::with_capacity(env_capacity()));
}

/// Returns `true` if the flight recorder is capturing on this thread.
///
/// A single thread-local read; instrumentation sites branch on this and
/// fall through untouched when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|c| c.get())
}

/// Overrides the `OPTIMUS_TRACE` gate for the current thread (used by
/// tests and the differential trace-on/off property).
pub fn set_enabled(on: bool) {
    ENABLED.with(|c| c.set(on));
}

/// Discards all recorded events (capacity is kept).
pub fn reset() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.buf.clear();
        r.head = 0;
        r.dropped = 0;
    });
}

/// Resizes the ring buffer (dropping anything recorded so far).
pub fn set_capacity(cap: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::with_capacity(cap));
}

/// Number of events currently held in the ring.
pub fn event_count() -> usize {
    RECORDER.with(|r| r.borrow().buf.len())
}

/// Number of events overwritten because the ring was full.
pub fn dropped() -> u64 {
    RECORDER.with(|r| r.borrow().dropped)
}

/// Events drained from one thread's recorder for replay on another (the
/// trace leg of [`crate::plane::Chunk`]).
#[derive(Debug, Default)]
pub(crate) struct TraceChunk {
    events: Vec<Event>,
    dropped: u64,
}

/// Drains this thread's recorder (events in emission order; the recorder
/// is left empty with its capacity kept).
pub(crate) fn take_chunk() -> TraceChunk {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let events: Vec<Event> = r.ordered().copied().collect();
        r.buf.clear();
        r.head = 0;
        TraceChunk {
            events,
            dropped: std::mem::take(&mut r.dropped),
        }
    })
}

/// Replays a chunk into this thread's recorder as if its events had been
/// emitted here: ring bounds and drop accounting apply as usual.
pub(crate) fn absorb_chunk(chunk: TraceChunk) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        for ev in chunk.events {
            r.push(ev);
        }
        r.dropped += chunk.dropped;
    });
}

#[inline]
fn emit(track: Track, name: &'static str, kind: EventKind, ts: Cycle, dur: Cycle, args: &[(&'static str, u64)]) {
    let mut packed = [("", 0u64); MAX_ARGS];
    let nargs = args.len().min(MAX_ARGS);
    packed[..nargs].copy_from_slice(&args[..nargs]);
    RECORDER.with(|r| {
        r.borrow_mut().push(Event {
            track,
            name,
            kind,
            ts,
            dur,
            args: packed,
            nargs: nargs as u8,
        })
    });
}

/// Emits a point-in-time marker at cycle `ts`.
#[inline]
pub fn instant(track: Track, name: &'static str, ts: Cycle, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    emit(track, name, EventKind::Instant, ts, 0, args);
}

/// Emits a span whose duration is already known (e.g. a trap cost or a
/// DMA round-trip), stamped at its *start* cycle.
#[inline]
pub fn complete(track: Track, name: &'static str, ts: Cycle, dur: Cycle, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    emit(track, name, EventKind::Complete, ts, dur, args);
}

/// Opens a nesting span (close it with [`end`] on the same track).
#[inline]
pub fn begin(track: Track, name: &'static str, ts: Cycle, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    emit(track, name, EventKind::Begin, ts, 0, args);
}

/// Closes the innermost open span on `track`.
#[inline]
pub fn end(track: Track, name: &'static str, ts: Cycle) {
    if !enabled() {
        return;
    }
    emit(track, name, EventKind::End, ts, 0, &[]);
}

/// Opens a flow arrow (Perfetto `ph:"s"`): connect with a later
/// [`flow_end`] carrying the same `id` (the job-lifecycle journal keys
/// flows by `JobId`, so one job reads as one connected lane across
/// preemption, migration, and share handoffs).
#[inline]
pub fn flow_start(track: Track, name: &'static str, ts: Cycle, id: u64) {
    if !enabled() {
        return;
    }
    emit(track, name, EventKind::FlowStart, ts, id, &[]);
}

/// Terminates a flow arrow (Perfetto `ph:"f"`, `bp:"e"`) opened by a
/// [`flow_start`] with the same `id`.
#[inline]
pub fn flow_end(track: Track, name: &'static str, ts: Cycle, id: u64) {
    if !enabled() {
        return;
    }
    emit(track, name, EventKind::FlowEnd, ts, id, &[]);
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders everything recorded on this thread as Chrome `trace_event`
/// JSON (the format Perfetto and `chrome://tracing` load natively).
///
/// Events are sorted by cycle timestamp, so the `cycle` argument of
/// successive `traceEvents` entries is monotone non-decreasing —
/// exploited by the CI trace validator. Timestamps (`ts`) and durations
/// (`dur`) are in microseconds of simulated time; the raw fabric-cycle
/// stamp rides along in `args.cycle` (and `args.dur_cycles` for spans).
pub fn chrome_trace_json() -> String {
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut events: Vec<&Event> = r.ordered().collect();
        events.sort_by_key(|e| e.ts);

        let tracks: BTreeSet<Track> = events.iter().map(|e| e.track).collect();
        let pids: BTreeSet<u32> = tracks.iter().map(|t| t.pid).collect();

        let mut out = String::with_capacity(events.len() * 128 + 1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("\n  ");
        };

        for &pid in &pids {
            sep(&mut out, &mut first);
            let name = tracks
                .iter()
                .find(|t| t.pid == pid)
                .map(|t| t.process_name())
                .unwrap_or("?");
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for track in &tracks {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":",
                track.pid, track.tid
            );
            push_json_str(&mut out, &track.thread_name());
            out.push_str("}}");
        }

        for e in events {
            sep(&mut out, &mut first);
            let ph = match e.kind {
                EventKind::Instant => "i",
                EventKind::Complete => "X",
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::FlowStart => "s",
                EventKind::FlowEnd => "f",
            };
            let _ = write!(
                out,
                "{{\"ph\":\"{ph}\",\"pid\":{},\"tid\":{},\"name\":",
                e.track.pid, e.track.tid
            );
            push_json_str(&mut out, e.name);
            let _ = write!(out, ",\"ts\":{:.4}", e.ts as f64 * US_PER_CYCLE);
            if e.kind == EventKind::Complete {
                let _ = write!(out, ",\"dur\":{:.4}", e.dur as f64 * US_PER_CYCLE);
            }
            if e.kind == EventKind::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if matches!(e.kind, EventKind::FlowStart | EventKind::FlowEnd) {
                // Flow id rides in `dur`; the journal passes the JobId.
                let _ = write!(out, ",\"cat\":\"job\",\"id\":{}", e.dur);
                if e.kind == EventKind::FlowEnd {
                    out.push_str(",\"bp\":\"e\"");
                }
            }
            let _ = write!(out, ",\"args\":{{\"cycle\":{}", e.ts);
            if e.kind == EventKind::Complete {
                let _ = write!(out, ",\"dur_cycles\":{}", e.dur);
            }
            for &(k, v) in &e.args[..e.nargs as usize] {
                out.push(',');
                push_json_str(&mut out, k);
                let _ = write!(out, ":{v}");
            }
            out.push_str("}}");
        }

        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}}}}\n",
            r.dropped
        );
        out
    })
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each #[test] runs on its own thread, so the thread-local recorder
    // is naturally isolated between tests.

    #[test]
    fn disabled_recorder_stays_empty() {
        set_enabled(false);
        instant(Track::iommu(), "iotlb_miss", 10, &[]);
        complete(Track::vaccel(0), "mmio_trap", 5, 800, &[]);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        set_enabled(true);
        set_capacity(4);
        for i in 0..6u64 {
            instant(Track::hypervisor(), "tick", i, &[("i", i)]);
        }
        assert_eq!(event_count(), 4);
        assert_eq!(dropped(), 2);
        let json = chrome_trace_json();
        // Oldest two (cycle 0 and 1) were overwritten.
        assert!(!json.contains("\"cycle\":0,"));
        assert!(!json.contains("\"cycle\":1,"));
        assert!(json.contains("\"cycle\":2"));
        assert!(json.contains("\"cycle\":5"));
        assert!(json.contains("\"dropped_events\":2"));
    }

    #[test]
    fn chrome_json_has_metadata_and_sorted_cycles() {
        set_enabled(true);
        reset();
        // Emit deliberately out of cycle order (a span stamped at its
        // start can be emitted after later instants).
        instant(Track::iommu(), "iotlb_miss", 40, &[("set", 7)]);
        complete(Track::link(0), "dma_read", 12, 100, &[("bytes", 64)]);
        begin(Track::vaccel(0), "preempt.drain", 50, &[]);
        end(Track::vaccel(0), "preempt.drain", 90);
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"vaccel0\""));
        assert!(json.contains("\"name\":\"link0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        // Sorted: the dma_read at cycle 12 precedes the miss at 40.
        let dma = json.find("dma_read").unwrap();
        let miss = json.find("iotlb_miss").unwrap();
        assert!(dma < miss);
        // 12 cycles = 0.03 µs.
        assert!(json.contains("\"ts\":0.0300"));
    }

    #[test]
    fn flow_events_render_with_id_and_binding_point() {
        set_enabled(true);
        reset();
        flow_start(Track::vaccel(0), "job", 100, 0x1_0000_0007);
        flow_end(Track::vaccel(3), "job", 900, 0x1_0000_0007);
        let json = chrome_trace_json();
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"cat\":\"job\",\"id\":4294967303"));
        assert!(json.contains("\"bp\":\"e\""));
        // Flows never leak a dur field (the id rides there internally).
        assert!(!json.contains("\"dur\":"));
        reset();
    }

    #[test]
    fn reset_clears_events() {
        set_enabled(true);
        instant(Track::channels(), "channel_switch", 1, &[]);
        reset();
        assert_eq!(event_count(), 0);
        assert_eq!(dropped(), 0);
    }
}
