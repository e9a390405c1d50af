//! Property-based tests of the simulation kernel's invariants, on the
//! in-tree `optimus-testkit` harness (replay failures with
//! `OPTIMUS_PROP_SEED=<printed seed>`).

use optimus_sim::perm::FeistelPermutation;
use optimus_sim::queue::TimedQueue;
use optimus_sim::rng::Xoshiro256;
use optimus_sim::stats::LatencyStats;
use optimus_testkit::gens;
use optimus_testkit::runner::check;
use optimus_testkit::{prop_assert, prop_assert_eq};

/// apply/invert are mutually inverse over the whole domain.
#[test]
fn permutation_round_trips() {
    let gen = gens::zip3(
        gens::u64_in(1..50_000),
        gens::u64_any(),
        gens::u64_in(0..50_000),
    );
    check("permutation_round_trips", &gen, |&(n, seed, probe)| {
        let p = FeistelPermutation::new(n, seed);
        let i = probe % n;
        let v = p.apply(i);
        prop_assert!(v < n);
        prop_assert_eq!(p.invert(v), i);
        Ok(())
    });
}

/// The permutation is injective on any sampled subset.
#[test]
fn permutation_is_injective() {
    let gen = gens::zip2(gens::u64_in(2..5_000), gens::u64_any());
    check("permutation_is_injective", &gen, |&(n, seed)| {
        let p = FeistelPermutation::new(n, seed);
        let mut seen = std::collections::HashSet::new();
        for i in (0..n).step_by((n as usize / 64).max(1)) {
            prop_assert!(seen.insert(p.apply(i)));
        }
        Ok(())
    });
}

/// gen_range never leaves its bounds, for arbitrary ranges.
#[test]
fn gen_range_in_bounds() {
    let gen = gens::zip3(
        gens::u64_any(),
        gens::u64_in(0..1 << 40),
        gens::u64_in(1..1 << 20),
    );
    check("gen_range_in_bounds", &gen, |&(seed, lo, span)| {
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..64 {
            let v = rng.gen_range(lo..lo + span);
            prop_assert!((lo..lo + span).contains(&v));
        }
        Ok(())
    });
}

/// TimedQueue is FIFO regardless of the (possibly decreasing) ready times
/// pushed.
#[test]
fn timed_queue_is_fifo() {
    let gen = gens::vec_of(gens::u64_in(0..1000), 1..50);
    check("timed_queue_is_fifo", &gen, |ready_times: &Vec<u64>| {
        let mut q = TimedQueue::new();
        for (i, &r) in ready_times.iter().enumerate() {
            q.push(i, r);
        }
        let mut out = Vec::new();
        for now in 0..4000u64 {
            while let Some(v) = q.pop_ready(now) {
                out.push(v);
            }
        }
        prop_assert_eq!(out, (0..ready_times.len()).collect::<Vec<_>>());
        Ok(())
    });
}

/// Merging two accumulators is equivalent to recording the concatenated
/// sample stream into one, for every statistic (including percentiles).
#[test]
fn latency_merge_equals_concatenation() {
    let gen = gens::zip2(
        gens::vec_of(gens::u64_in(0..1_000_000), 0..60),
        gens::vec_of(gens::u64_in(0..1_000_000), 0..60),
    );
    check(
        "latency_merge_equals_concatenation",
        &gen,
        |(a, b): &(Vec<u64>, Vec<u64>)| {
            let mut left = LatencyStats::new();
            a.iter().for_each(|&v| left.record(v));
            let mut right = LatencyStats::new();
            b.iter().for_each(|&v| right.record(v));
            let mut concat = LatencyStats::new();
            a.iter().chain(b.iter()).for_each(|&v| concat.record(v));
            left.merge(&right);
            prop_assert_eq!(left.count(), concat.count());
            prop_assert_eq!(left.mean_cycles(), concat.mean_cycles());
            prop_assert_eq!(left.min_cycles(), concat.min_cycles());
            prop_assert_eq!(left.max_cycles(), concat.max_cycles());
            for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                prop_assert_eq!(left.percentile_cycles(q), concat.percentile_cycles(q));
            }
            Ok(())
        },
    );
}

/// Percentiles are monotone non-decreasing in `q` and bounded by
/// min/max, under the nearest-rank definition.
#[test]
fn latency_percentile_monotone_in_q() {
    let gen = gens::zip2(
        gens::vec_of(gens::u64_in(0..1_000_000), 1..80),
        gens::vec_of(gens::u64_in(0..101), 2..12),
    );
    check(
        "latency_percentile_monotone_in_q",
        &gen,
        |(samples, qs): &(Vec<u64>, Vec<u64>)| {
            let mut s = LatencyStats::new();
            samples.iter().for_each(|&v| s.record(v));
            let mut qs: Vec<f64> = qs.iter().map(|&q| q as f64 / 100.0).collect();
            qs.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let mut prev = s.min_cycles();
            for &q in &qs {
                let p = s.percentile_cycles(q);
                prop_assert!(p >= prev, "p({q}) = {p} < previous {prev}");
                prop_assert!(p >= s.min_cycles() && p <= s.max_cycles());
                prev = p;
            }
            prop_assert_eq!(s.percentile_cycles(0.0), s.min_cycles());
            prop_assert_eq!(s.percentile_cycles(1.0), s.max_cycles());
            Ok(())
        },
    );
}

/// The counting histogram answers exactly what the sorted sample list it
/// replaced did: count, mean, min, max and every nearest-rank percentile,
/// under any interleaving of records and queries, for values on both sides
/// of the dense range (including far above it).
#[test]
fn latency_histogram_matches_sorted_oracle() {
    // (kind, value): kind 0 folds the value into a small, duplicate-rich
    // range; kind 1 keeps it (mostly above the dense range); kind 2 is a
    // percentile query at `value % 101` percent.
    let gen = gens::vec_of(
        gens::zip2(gens::u64_in(0..3), gens::u64_in(0..1 << 40)),
        1..120,
    );
    check(
        "latency_histogram_matches_sorted_oracle",
        &gen,
        |ops: &Vec<(u64, u64)>| {
            let mut s = LatencyStats::new();
            let mut oracle: Vec<u64> = Vec::new();
            for &(kind, v) in ops {
                match kind {
                    0 | 1 => {
                        let v = if kind == 0 { v % 300 } else { v };
                        s.record(v);
                        oracle.push(v);
                    }
                    _ => {
                        let q = (v % 101) as f64 / 100.0;
                        let mut sorted = oracle.clone();
                        sorted.sort_unstable();
                        let expect = if sorted.is_empty() {
                            0
                        } else {
                            let rank = ((sorted.len() as f64 * q).ceil() as usize).max(1);
                            sorted[rank - 1]
                        };
                        prop_assert_eq!(s.percentile_cycles(q), expect);
                    }
                }
                prop_assert_eq!(s.count(), oracle.len());
                let mean = if oracle.is_empty() {
                    0.0
                } else {
                    oracle.iter().sum::<u64>() as f64 / oracle.len() as f64
                };
                prop_assert_eq!(s.mean_cycles(), mean);
                prop_assert_eq!(s.min_cycles(), oracle.iter().copied().min().unwrap_or(0));
                prop_assert_eq!(s.max_cycles(), oracle.iter().copied().max().unwrap_or(0));
            }
            Ok(())
        },
    );
}

/// Entries never surface before their ready time.
#[test]
fn timed_queue_respects_time() {
    let gen = gens::u64_in(1..10_000);
    check("timed_queue_respects_time", &gen, |&ready| {
        let mut q = TimedQueue::new();
        q.push((), ready);
        prop_assert!(q.pop_ready(ready - 1).is_none());
        prop_assert!(q.pop_ready(ready).is_some());
        Ok(())
    });
}
