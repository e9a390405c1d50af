//! The protocol the four recording planes share.
//!
//! [`trace`], [`metrics`], [`journal`] and [`spec`] each keep their own
//! thread-local store and their own record path; what they have in common
//! lives here, once:
//!
//! * **One gate rule** — [`env_gate`] parses `OPTIMUS_TRACE`,
//!   `OPTIMUS_METRICS`, `OPTIMUS_JOURNAL` and `OPTIMUS_SPEC` alike, sampled
//!   once per thread; `set_enabled` on each plane overrides it per thread.
//! * **One gate hand-off** — a thread that dispatches work to another
//!   [`Gates::capture`]s its four gates and the worker [`Gates::apply`]s
//!   them, in both directions: a worker never falls back to the
//!   environment, which a runtime `set_enabled` may have overridden.
//! * **One chunk hand-off** — a worker stepping device `d` receives `d`'s
//!   spec model ([`Chunk::lend`]), and after the step drains everything the
//!   step recorded ([`Chunk::take`]); the dispatching thread merges the
//!   chunks **in device-index order** ([`Chunk::absorb`]).
//!
//! # Why the merge equals the serial recording
//!
//! A device's step touches no other device's state, so what one `take`
//! drains is exactly what a serial run would have recorded for that device
//! over that span. Absorbing in device-index order then reproduces the
//! serial order plane by plane: trace events append in emission order
//! through the ordinary ring (bounds and `dropped` accounting included);
//! metrics cells add (commutative) and gauges are device-disjoint; a job
//! lives on one device at a time, so its journal phases append in
//! timestamp order; a spec model is keyed by its device, and violations
//! append under the usual retention cap. Exports are therefore
//! byte-identical for any worker count.

use crate::{journal, metrics, spec, trace};

/// Reads a plane's environment gate: unset or empty selects `default_on`;
/// `0`, `off`, `false` and `no` (ASCII case-insensitive) turn the plane
/// off; any other value turns it on.
pub fn env_gate(var: &str, default_on: bool) -> bool {
    match std::env::var(var) {
        Ok(v) if !v.is_empty() => {
            !["0", "off", "false", "no"].iter().any(|off| v.eq_ignore_ascii_case(off))
        }
        _ => default_on,
    }
}

/// The four planes' per-thread gates, captured on one thread to be
/// applied on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gates {
    trace: bool,
    metrics: bool,
    journal: bool,
    spec: bool,
}

impl Gates {
    /// The calling thread's gates.
    pub fn capture() -> Gates {
        Gates {
            trace: trace::enabled(),
            metrics: metrics::enabled(),
            journal: journal::enabled(),
            spec: spec::enabled(),
        }
    }

    /// Sets every gate of the calling thread, on *and* off.
    pub fn apply(self) {
        trace::set_enabled(self.trace);
        metrics::set_enabled(self.metrics);
        journal::set_enabled(self.journal);
        spec::set_enabled(self.spec);
    }
}

/// What the planes hold for one device, in transit between threads. A
/// plane whose gate is off on the producing thread contributes nothing.
#[derive(Debug)]
pub struct Chunk {
    trace: Option<trace::TraceChunk>,
    metrics: Option<metrics::MetricsChunk>,
    journal: Option<journal::JournalChunk>,
    spec: Option<spec::DeviceChunk>,
}

impl Chunk {
    /// Before a span, on the dispatching thread: lifts `device`'s spec
    /// model out for the worker that will step it (the only plane whose
    /// record path reads earlier state).
    pub fn lend(device: u32) -> Chunk {
        Chunk {
            trace: None,
            metrics: None,
            journal: None,
            spec: spec::enabled().then(|| spec::take_chunk(device)),
        }
    }

    /// After stepping `device`, on the worker: drains the trace events,
    /// metrics cells and journal records the step produced, plus the
    /// device's spec model and the violations found.
    pub fn take(device: u32) -> Chunk {
        Chunk {
            trace: trace::enabled().then(trace::take_chunk),
            metrics: metrics::enabled().then(metrics::take_chunk),
            journal: journal::enabled().then(journal::take_chunk),
            spec: spec::enabled().then(|| spec::take_chunk(device)),
        }
    }

    /// Merges the chunk into the calling thread's planes as if its
    /// contents had been recorded here. Call in device-index order.
    pub fn absorb(self) {
        if let Some(c) = self.trace {
            trace::absorb_chunk(c);
        }
        if let Some(c) = self.metrics {
            metrics::absorb_chunk(c);
        }
        if let Some(c) = self.journal {
            journal::absorb_chunk(c);
        }
        if let Some(c) = self.spec {
            spec::absorb_chunk(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Phase;
    use crate::trace::Track;

    // Each #[test] runs on its own thread, so the planes' thread-local
    // stores are naturally isolated between tests.

    fn all(on: bool) -> Gates {
        Gates { trace: on, metrics: on, journal: on, spec: on }
    }

    /// Runs `f` on a fresh thread under `gates` and returns the chunk it
    /// drained for `device`.
    fn on_worker(gates: Gates, device: u32, lent: Chunk, f: impl FnOnce() + Send) -> Chunk {
        std::thread::scope(|s| {
            s.spawn(move || {
                gates.apply();
                lent.absorb();
                f();
                Chunk::take(device)
            })
            .join()
            .expect("worker")
        })
    }

    #[test]
    fn env_gate_accepts_one_spelling_for_every_plane() {
        // A variable no plane reads, so no concurrently starting test
        // thread samples it.
        const VAR: &str = "OPTIMUS_PLANE_TEST_GATE";
        for default_on in [true, false] {
            std::env::remove_var(VAR);
            assert_eq!(env_gate(VAR, default_on), default_on, "unset");
            std::env::set_var(VAR, "");
            assert_eq!(env_gate(VAR, default_on), default_on, "empty");
            for off in ["0", "off", "OFF", "false", "no"] {
                std::env::set_var(VAR, off);
                assert!(!env_gate(VAR, default_on), "{off:?} must turn the plane off");
            }
            for on in ["1", "on", "yes"] {
                std::env::set_var(VAR, on);
                assert!(env_gate(VAR, default_on), "{on:?} must turn the plane on");
            }
        }
        std::env::remove_var(VAR);
    }

    #[test]
    fn gates_round_trip_through_a_thread_in_both_directions() {
        for on in [true, false] {
            all(on).apply();
            let sent = Gates::capture();
            assert_eq!(sent, all(on));
            let seen = std::thread::spawn(move || {
                // Start from the opposite state, so `apply` has to move
                // every gate whichever way `sent` points.
                all(!on).apply();
                sent.apply();
                Gates::capture()
            })
            .join()
            .expect("worker");
            assert_eq!(seen, sent);
        }
    }

    #[test]
    fn disabled_planes_contribute_nothing() {
        all(false).apply();
        let chunk = Chunk::take(0);
        assert!(chunk.trace.is_none() && chunk.metrics.is_none());
        assert!(chunk.journal.is_none() && chunk.spec.is_none());
    }

    #[test]
    fn trace_merges_in_absorb_order_through_the_ring() {
        all(false).apply();
        trace::set_enabled(true);
        trace::set_capacity(3);
        let gates = Gates::capture();
        trace::instant(Track::hypervisor(), "main", 5, &[]);
        // Two devices, same cycle stamps: the export's stable sort keeps
        // emission order, so absorb order is what the file shows.
        let chunks: Vec<Chunk> = (0..2u32)
            .map(|dev| {
                on_worker(gates, dev, Chunk::lend(dev), move || {
                    trace::set_capacity(1);
                    // The worker's own ring drops the first event …
                    trace::instant(Track::accel(dev as usize), "lost", 9, &[]);
                    let args = [("dev", dev as u64)];
                    trace::complete(Track::accel(dev as usize), "kept", 10, 4, &args);
                })
            })
            .collect();
        assert_eq!(trace::event_count(), 1, "workers recorded into their own rings");
        for c in chunks {
            c.absorb();
        }
        // … and that drop is carried over; the main ring (capacity 3)
        // holds main + two kept events without dropping more.
        assert_eq!(trace::event_count(), 3);
        assert_eq!(trace::dropped(), 2);
        let json = trace::chrome_trace_json();
        let first = json.find("\"dev\":0").expect("device 0 event");
        let second = json.find("\"dev\":1").expect("device 1 event");
        assert!(first < second, "absorb order lost");
        assert!(!json.contains("lost"));
        // One more absorbed event overflows the main ring: bounds apply
        // on absorb exactly as on emit.
        on_worker(gates, 2, Chunk::lend(2), || {
            trace::instant(Track::accel(2), "overflow", 11, &[]);
        })
        .absorb();
        assert_eq!(trace::event_count(), 3);
        assert_eq!(trace::dropped(), 3);
        assert!(!trace::chrome_trace_json().contains("\"main\""));
    }

    #[test]
    fn metrics_counters_add_and_gauges_overwrite() {
        all(false).apply();
        metrics::set_enabled(true);
        let gates = Gates::capture();
        metrics::inc(metrics::FABRIC_MUX_GRANTS, 1, 5);
        metrics::set_gauge(metrics::FABRIC_FAIRNESS_JAIN, 0, 0.25);
        let chunk = on_worker(gates, 0, Chunk::lend(0), || {
            metrics::inc(metrics::FABRIC_MUX_GRANTS, 1, 10);
            metrics::observe(metrics::CCI_DMA_RT_CYCLES, 1, 333);
            metrics::set_gauge(metrics::FABRIC_FAIRNESS_JAIN, 0, 0.75);
            metrics::inc_at(metrics::NODE_CHUNKS, 1, 0, 2);
        });
        assert_eq!(metrics::counter_value(metrics::FABRIC_MUX_GRANTS, 0, 1), 5);
        chunk.absorb();
        assert_eq!(metrics::counter_value(metrics::FABRIC_MUX_GRANTS, 0, 1), 15);
        assert_eq!(metrics::counter_value(metrics::NODE_CHUNKS, 1, 0), 2);
        assert_eq!(metrics::hist_count(metrics::CCI_DMA_RT_CYCLES, 0, 1), 1);
        assert_eq!(metrics::hist_sum(metrics::CCI_DMA_RT_CYCLES, 0, 1), 333);
        assert_eq!(metrics::gauge_value(metrics::FABRIC_FAIRNESS_JAIN, 0, 0), 0.75);
    }

    #[test]
    fn journal_merge_fills_stub_metadata_in_order() {
        all(false).apply();
        journal::set_enabled(true);
        let gates = Gates::capture();
        journal::submit(5, "tenant-a", 1, 0, 4096, 100);
        // The worker sees only the phases, not the submit metadata.
        on_worker(gates, 0, Chunk::lend(0), || {
            journal::phase(5, Phase::Installed, 150);
            journal::phase(5, Phase::Executing, 160);
        })
        .absorb();
        journal::phase(5, Phase::Complete, 400);
        let recs = journal::export();
        assert_eq!(recs.len(), 1);
        assert_eq!((recs[0].tenant.as_str(), recs[0].payload_bytes), ("tenant-a", 4096));
        let names: Vec<&str> = recs[0].phases.iter().map(|(p, _)| p.name()).collect();
        assert_eq!(names, ["submit", "queued", "installed", "executing", "complete"]);
    }

    #[test]
    fn spec_model_travels_out_and_back_with_its_violations() {
        all(false).apply();
        spec::set_enabled(true);
        let gates = Gates::capture();
        spec::map_page(3, 0x0, 0x1000, 0x1000, true, 5);
        spec::bind_slot(3, 0, 5);
        spec::check_dma(3, 0, 0x40, 0xbad0, false); // one violation before the span
        let lent = Chunk::lend(3);
        // The model left with the chunk: the same access now finds no
        // device at all.
        spec::check_dma(3, 0, 0x40, 0x1040, false);
        assert_eq!(spec::violations().last().map(|v| v.kind), Some("dma_unmodeled_device"));
        spec::reset();
        on_worker(gates, 3, lent, || {
            spec::check_dma(3, 0, 0x40, 0x1040, false); // clean: the model arrived
            spec::check_dma(3, 0, 0x40, 0xbad1, false); // one violation in the span
        })
        .absorb();
        let kinds: Vec<_> = spec::violations().iter().map(|v| v.kind).collect();
        assert_eq!(kinds, ["dma_wrong_hpa", "dma_wrong_hpa"], "earlier violation first");
        assert_eq!(spec::violation_count(), 2);
        // The returned model still checks.
        spec::check_dma(3, 0, 0x80, 0x1080, false);
        assert_eq!(spec::violation_count(), 2);
    }

    #[test]
    fn spec_violation_cap_is_honoured_on_absorb() {
        all(false).apply();
        spec::set_enabled(true);
        let gates = Gates::capture();
        let n = spec::MAX_RETAINED as u64;
        for i in 0..n - 1 {
            spec::check_dma(0, 0, i * 64, 0, false);
        }
        // Device 1's span adds ten more than fit.
        let chunk = on_worker(gates, 1, Chunk::lend(1), move || {
            for i in 0..11 {
                spec::check_dma(1, 0, i * 64, 0, false);
            }
        });
        chunk.absorb();
        assert_eq!(spec::violations().len(), spec::MAX_RETAINED);
        assert_eq!(spec::violation_count(), n + 10);
        assert_eq!(spec::violations().last().map(|v| v.device), Some(1));
    }
}
