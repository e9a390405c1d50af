//! Measurement utilities for the benchmark harness.
//!
//! Every figure in the paper reports either a latency distribution
//! ([`LatencyStats`]) or an aggregate bandwidth over a measurement window
//! ([`ThroughputMeter`]). The paper's numbers are steady-state, so the
//! harness excludes warm-up: it takes the latency accumulators and opens
//! the throughput window once caches, IOTLBs, and arbitration pipelines
//! have settled.

use crate::time::{cycles_to_ns, gbps, Cycle};
use std::collections::BTreeMap;

/// Samples below this many cycles are counted in a dense array.
const DENSE_LIMIT: Cycle = 1 << 16;

/// Online latency accumulator (count / mean / min / max / percentiles).
///
/// An exact counting histogram: latencies are small integers, so a dense
/// array of counts for values below 2^16 cycles (grown only to the largest
/// such sample seen) plus a sorted map for rarer larger values gives the
/// same nearest-rank percentiles a sorted copy of every sample would, in
/// kilobytes. A running sum keeps the mean exact.
///
/// # Examples
///
/// ```
/// use optimus_sim::stats::LatencyStats;
///
/// let mut stats = LatencyStats::new();
/// for v in [10, 20, 30] {
///     stats.record(v);
/// }
/// assert_eq!(stats.count(), 3);
/// assert_eq!(stats.mean_cycles(), 20.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    /// `dense[v]` = samples equal to `v`, for `v < DENSE_LIMIT`.
    dense: Vec<u64>,
    /// Sample counts by value, for values of at least `DENSE_LIMIT`.
    sparse: BTreeMap<Cycle, u64>,
    count: u64,
    sum: u64,
    max: Cycle,
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample, in fabric cycles.
    pub fn record(&mut self, cycles: Cycle) {
        self.add(cycles, 1);
    }

    fn add(&mut self, cycles: Cycle, n: u64) {
        if cycles < DENSE_LIMIT {
            let v = cycles as usize;
            if v >= self.dense.len() {
                self.dense.resize(v + 1, 0);
            }
            self.dense[v] += n;
        } else {
            *self.sparse.entry(cycles).or_default() += n;
        }
        self.count += n;
        self.sum += cycles * n;
        self.max = self.max.max(cycles);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in fabric cycles (0 if empty).
    pub fn mean_cycles(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Mean latency in nanoseconds (0 if empty).
    pub fn mean_ns(&self) -> f64 {
        self.mean_cycles() * cycles_to_ns(1)
    }

    /// `(value, count)` for every recorded value, ascending.
    fn counts(&self) -> impl Iterator<Item = (Cycle, u64)> + '_ {
        let dense = self.dense.iter().enumerate().map(|(v, &n)| (v as Cycle, n));
        dense.filter(|&(_, n)| n > 0).chain(self.sparse.iter().map(|(&v, &n)| (v, n)))
    }

    /// Minimum sample in cycles (0 if empty).
    pub fn min_cycles(&self) -> Cycle {
        self.counts().next().map_or(0, |(v, _)| v)
    }

    /// Maximum sample in cycles (0 if empty).
    pub fn max_cycles(&self) -> Cycle {
        self.max
    }

    /// Exact percentile (`q` in `[0, 1]`) in cycles; 0 if empty.
    ///
    /// Uses the standard *nearest-rank* definition: the smallest sample
    /// such that at least `q · N` samples are less than or equal to it
    /// (rank `⌈q·N⌉`, with `q = 0` mapping to the minimum). For an
    /// even-count sample the median is therefore the *lower* middle
    /// element, never an interpolated or upper value.
    ///
    /// ```
    /// use optimus_sim::stats::LatencyStats;
    ///
    /// let mut stats = LatencyStats::new();
    /// for v in [1, 2, 3, 4] {
    ///     stats.record(v);
    /// }
    /// assert_eq!(stats.percentile_cycles(0.5), 2); // nearest rank ⌈0.5·4⌉ = 2
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile_cycles(&self, q: f64) -> Cycle {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0, 1]");
        let rank = ((self.count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (v, n) in self.counts() {
            seen += n;
            if seen >= rank {
                return v;
            }
        }
        0
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        for (v, n) in other.counts() {
            self.add(v, n);
        }
    }
}

/// Byte counter over an explicit measurement window.
///
/// Components call [`add_bytes`](Self::add_bytes) on every data transfer;
/// the harness brackets the steady-state region with
/// [`open_window`](Self::open_window) / [`close_window`](Self::close_window)
/// and reads back GB/s.
///
/// # Examples
///
/// ```
/// use optimus_sim::stats::ThroughputMeter;
///
/// let mut m = ThroughputMeter::new();
/// m.open_window(0);
/// m.add_bytes(64 * 400_000_000);
/// m.close_window(400_000_000); // one second of fabric cycles
/// assert!((m.gbps() - 25.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputMeter {
    bytes: u64,
    window_start: Cycle,
    window_end: Option<Cycle>,
    counting: bool,
    window_inverted: bool,
}

impl ThroughputMeter {
    /// Creates a meter; counting is disabled until a window opens.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts the measurement window at cycle `now`, zeroing the counter.
    pub fn open_window(&mut self, now: Cycle) {
        self.bytes = 0;
        self.window_start = now;
        self.window_end = None;
        self.counting = true;
        self.window_inverted = false;
    }

    /// Ends the measurement window at cycle `now`.
    ///
    /// Closing a window *before* it opened means the measurement code is
    /// mis-bracketed: this panics in debug builds and latches
    /// [`window_inverted`](Self::window_inverted) in release builds (the
    /// window length still clamps to zero so `gbps()` never goes
    /// negative, but the mistake is no longer silent).
    pub fn close_window(&mut self, now: Cycle) {
        if now < self.window_start {
            self.window_inverted = true;
            debug_assert!(
                false,
                "throughput window closed at cycle {now} before it opened at cycle {}",
                self.window_start
            );
        }
        self.window_end = Some(now.max(self.window_start));
        self.counting = false;
    }

    /// Returns `true` if a window was ever closed before it opened
    /// (mis-bracketed measurement code). Latched until the next
    /// [`open_window`](Self::open_window).
    pub fn window_inverted(&self) -> bool {
        self.window_inverted
    }

    /// Accumulates transferred bytes if a window is open.
    pub fn add_bytes(&mut self, bytes: u64) {
        if self.counting {
            self.bytes += bytes;
        }
    }

    /// Total bytes observed inside the window.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Window length in cycles (0 if the window never closed).
    pub fn window_cycles(&self) -> Cycle {
        self.window_end
            .map(|end| end - self.window_start)
            .unwrap_or(0)
    }

    /// Returns `true` when the meter cannot report a meaningful rate:
    /// the window never closed (or never opened), or closed with zero
    /// length (including an inverted close, whose length clamps to
    /// zero). The `window_inverted`-style companion flag for the
    /// divide-by-zero family of mis-measurements: [`gbps`](Self::gbps)
    /// reports 0 in this state instead of dividing by zero.
    pub fn window_degenerate(&self) -> bool {
        match self.window_end {
            None => true,
            Some(end) => end == self.window_start,
        }
    }

    /// Measured bandwidth in GB/s (0 if the window is
    /// [degenerate](Self::window_degenerate)).
    pub fn gbps(&self) -> f64 {
        if self.window_degenerate() {
            return 0.0;
        }
        gbps(self.bytes, self.window_cycles())
    }
}

/// Formats a ratio as a percentage string with one decimal, e.g. `"90.1%"`.
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_basic_moments() {
        let mut s = LatencyStats::new();
        for v in [1u64, 2, 3, 4, 5] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean_cycles(), 3.0);
        assert_eq!(s.min_cycles(), 1);
        assert_eq!(s.max_cycles(), 5);
    }

    #[test]
    fn latency_percentiles() {
        let mut s = LatencyStats::new();
        for v in 1..=100u64 {
            s.record(v);
        }
        assert_eq!(s.percentile_cycles(0.0), 1);
        assert_eq!(s.percentile_cycles(1.0), 100);
        let p50 = s.percentile_cycles(0.5);
        assert!((49..=51).contains(&p50));
    }

    #[test]
    fn latency_empty_is_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.mean_cycles(), 0.0);
        assert_eq!(s.percentile_cycles(0.5), 0);
        assert!(s.is_empty());
    }

    /// Regression: the fractional-rank `round()` made the median of an
    /// even-count sample resolve to the upper middle; nearest-rank says
    /// the median of `[1,2,3,4]` is 2.
    #[test]
    fn latency_even_median_is_lower_middle() {
        let mut s = LatencyStats::new();
        for v in [1u64, 2, 3, 4] {
            s.record(v);
        }
        assert_eq!(s.percentile_cycles(0.5), 2);
        assert_eq!(s.percentile_cycles(0.25), 1);
        assert_eq!(s.percentile_cycles(0.75), 3);
        assert_eq!(s.percentile_cycles(0.0), 1);
        assert_eq!(s.percentile_cycles(1.0), 4);
    }

    #[test]
    fn latency_merge() {
        let mut a = LatencyStats::new();
        a.record(10);
        let mut b = LatencyStats::new();
        b.record(20);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean_cycles(), 15.0);
    }

    #[test]
    fn throughput_window_brackets_counting() {
        let mut m = ThroughputMeter::new();
        m.add_bytes(1_000_000); // before window: ignored
        m.open_window(100);
        m.add_bytes(640);
        m.close_window(200);
        m.add_bytes(1_000_000); // after window: ignored
        assert_eq!(m.bytes(), 640);
        assert_eq!(m.window_cycles(), 100);
    }

    #[test]
    fn throughput_full_line_rate() {
        let mut m = ThroughputMeter::new();
        m.open_window(0);
        m.add_bytes(64 * 400_000_000);
        m.close_window(400_000_000);
        assert!((m.gbps() - 25.6).abs() < 1e-9);
    }

    #[test]
    fn throughput_unclosed_window_reports_zero() {
        let mut m = ThroughputMeter::new();
        m.open_window(0);
        m.add_bytes(640);
        assert_eq!(m.gbps(), 0.0);
    }

    /// Regression: a zero-length or never-closed window used to be
    /// indistinguishable from a genuinely idle one; `window_degenerate`
    /// now flags it, and `gbps` reports 0 instead of dividing by zero.
    #[test]
    fn throughput_degenerate_window_is_flagged() {
        let fresh = ThroughputMeter::new();
        assert!(fresh.window_degenerate(), "never-opened meter is degenerate");
        assert_eq!(fresh.gbps(), 0.0);

        let mut open_only = ThroughputMeter::new();
        open_only.open_window(100);
        open_only.add_bytes(640);
        assert!(open_only.window_degenerate(), "never-closed window is degenerate");
        assert_eq!(open_only.gbps(), 0.0);

        let mut zero_len = ThroughputMeter::new();
        zero_len.open_window(100);
        zero_len.add_bytes(640);
        zero_len.close_window(100);
        assert!(zero_len.window_degenerate(), "zero-length window is degenerate");
        assert_eq!(zero_len.window_cycles(), 0);
        assert_eq!(zero_len.gbps(), 0.0);

        let mut ok = ThroughputMeter::new();
        ok.open_window(100);
        ok.add_bytes(640);
        ok.close_window(200);
        assert!(!ok.window_degenerate());
        assert!(ok.gbps() > 0.0);
    }

    /// Regression: closing a window before it opened used to clamp
    /// silently to a zero-length window (reading as 0 GB/s); now it
    /// panics in debug builds and latches `window_inverted`.
    #[test]
    fn throughput_inverted_window_fails_loudly() {
        let mut m = ThroughputMeter::new();
        m.open_window(100);
        m.add_bytes(640);
        let closed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.close_window(50)
        }));
        if cfg!(debug_assertions) {
            assert!(closed.is_err(), "debug build must panic on inverted window");
        } else {
            assert!(closed.is_ok());
        }
        assert!(m.window_inverted(), "inverted close must be latched");
        // A fresh window clears the latch.
        m.open_window(0);
        m.close_window(10);
        assert!(!m.window_inverted());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.901), "90.1%");
        assert_eq!(pct(1.242), "124.2%");
    }
}
