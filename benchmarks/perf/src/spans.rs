//! The harness's own span recorder.
//!
//! Spans wrap the *public calls* the harness makes into each layer —
//! nothing inside the simulator is instrumented. Records live in memory
//! as `{id, parent, name, start_ns, end_ns}` and are written once, at
//! exit, as a Chrome trace (`SPANS_<workload>.json`, loadable in
//! Perfetto). A disabled recorder costs one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. `id` is the record's index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder with a parent stack.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.recs.len();
        let start_ns = self.now_ns();
        self.recs.push(SpanRec {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span. Spans close innermost-first.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        self.recs[id].end_ns = self.now_ns();
    }

    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Chrome `trace_event` JSON: one complete (`"ph":"X"`) event per
    /// span, microsecond timestamps, id and parent under `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, r) in self.recs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                r.name,
                r.start_ns as f64 / 1e3,
                r.end_ns.saturating_sub(r.start_ns) as f64 / 1e3,
                r.id,
                parent,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap (the
/// recorder is single-threaded and spans close innermost-first), so the
/// covered part is the sum of their durations.
pub fn self_times_ns(recs: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = recs.iter().map(|r| r.end_ns - r.start_ns).collect();
    for r in recs {
        if let Some(p) = r.parent {
            own[p] = own[p].saturating_sub(r.end_ns - r.start_ns);
        }
    }
    own
}

/// Total self time per span name, in first-appearance order.
pub fn self_time_by_name(recs: &[SpanRec]) -> Vec<(&'static str, u64, usize)> {
    let own = self_times_ns(recs);
    let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
    for (r, &t) in recs.iter().zip(&own) {
        match out.iter_mut().find(|(n, _, _)| *n == r.name) {
            Some(e) => {
                e.1 += t;
                e.2 += 1;
            }
            None => out.push((r.name, t, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // root [0,100) with two back-to-back children [10,40) and [40,90).
        let recs = [
            rec(0, None, 0, 100),
            rec(1, Some(0), 10, 40),
            rec(2, Some(0), 40, 90),
        ];
        assert_eq!(self_times_ns(&recs), vec![20, 30, 50]);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // root [0,100) > child [20,80) > grandchild [30,50): the root
        // loses the child's 60, not also the grandchild's 20.
        let recs = [
            rec(0, None, 0, 100),
            rec(1, Some(0), 20, 80),
            rec(2, Some(1), 30, 50),
        ];
        assert_eq!(self_times_ns(&recs), vec![40, 40, 20]);
        // Self times of a tree always add up to the root's duration.
        assert_eq!(self_times_ns(&recs).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut s = Spans::new(true);
        let root = s.begin("workload");
        let a = s.begin("setup");
        s.end(a);
        let b = s.begin("timed");
        let c = s.begin("hv.run");
        s.end(c);
        s.end(b);
        s.end(root);
        let parents: Vec<_> = s.records().iter().map(|r| (r.name, r.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("workload", None),
                ("setup", Some(0)),
                ("timed", Some(0)),
                ("hv.run", Some(2))
            ]
        );
        let json = s.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let a = s.begin("x");
        s.end(a);
        assert!(s.records().is_empty());
    }

    #[test]
    fn self_time_by_name_merges_repeats() {
        let mut recs = vec![
            rec(0, None, 0, 100),
            rec(1, Some(0), 0, 30),
            rec(2, Some(0), 30, 70),
        ];
        recs[1].name = "run";
        recs[2].name = "run";
        let by = self_time_by_name(&recs);
        assert_eq!(by, vec![("t", 30, 1), ("run", 70, 2)]);
    }
}
