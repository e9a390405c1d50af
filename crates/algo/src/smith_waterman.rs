//! Smith–Waterman local sequence alignment (the `SW` benchmark).
//!
//! The paper's `SW` accelerator (1,265 LoC of Verilog, 100 MHz) computes
//! local alignments — the classic FPGA systolic-array workload, where one
//! anti-diagonal of the dynamic-programming matrix is computed per clock.
//! This module implements the full affine-free (linear gap) recurrence with
//! traceback, plus a score-only variant matching what streaming hardware
//! returns.
//!
//! # Examples
//!
//! ```
//! use optimus_algo::smith_waterman::{align, Scoring};
//!
//! let scoring = Scoring::default();
//! let result = align(b"ACACACTA", b"AGCACACA", &scoring);
//! assert!(result.score > 0);
//! ```

/// Scoring parameters for the alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scoring {
    /// Score added for a matching pair (positive).
    pub match_score: i32,
    /// Score added for a mismatching pair (negative).
    pub mismatch: i32,
    /// Score added per gap symbol (negative).
    pub gap: i32,
}

impl Default for Scoring {
    /// The textbook parameters: +2 match, −1 mismatch, −1 gap.
    fn default() -> Self {
        Self {
            match_score: 2,
            mismatch: -1,
            gap: -1,
        }
    }
}

/// An alignment result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// The optimal local alignment score.
    pub score: i32,
    /// End position (exclusive) of the alignment in the query.
    pub query_end: usize,
    /// End position (exclusive) of the alignment in the target.
    pub target_end: usize,
    /// Aligned query fragment with `-` for gaps.
    pub aligned_query: Vec<u8>,
    /// Aligned target fragment with `-` for gaps.
    pub aligned_target: Vec<u8>,
}

/// Computes only the optimal local alignment score.
///
/// This is the quantity a streaming FPGA implementation emits. A caller
/// scoring many blocks keeps a [`Wavefront`] and calls
/// [`Wavefront::score`], which this wraps.
pub fn score_only(query: &[u8], target: &[u8], scoring: &Scoring) -> i32 {
    Wavefront::default().score(query, target, scoring)
}

/// The score-only recurrence computed one anti-diagonal at a time — the
/// schedule of the systolic array itself: every cell of a diagonal depends
/// only on the two diagonals before it, so a diagonal is one
/// dependency-free pass over equal-length slices, which the compiler turns
/// into 16-bit SIMD lanes. Holds the three diagonals and the reversed
/// target between calls.
#[derive(Debug, Clone, Default)]
pub struct Wavefront {
    /// The target back to front: walking a diagonal in query order walks
    /// the target backwards, and reversed that is a forward slice.
    rev_target: Vec<u8>,
    /// Diagonals `d`, `d − 1` and `d − 2`, each indexed by query row.
    diagonals: [Vec<i16>; 3],
}

impl Wavefront {
    /// The optimal local alignment score of `query` against `target`.
    pub fn score(&mut self, query: &[u8], target: &[u8], scoring: &Scoring) -> i32 {
        if query.is_empty() || target.is_empty() {
            return 0;
        }
        let (m, n) = (query.len(), target.len());
        if !fits_i16(m + n, scoring) {
            return score_scalar(query, target, scoring);
        }
        let match_score = scoring.match_score as i16;
        let mismatch = scoring.mismatch as i16;
        let gap = scoring.gap as i16;
        self.rev_target.clear();
        self.rev_target.extend(target.iter().rev());
        for diagonal in &mut self.diagonals {
            // Row 0 and, on diagonal d, row d are the matrix's zero border;
            // neither is ever written, so zeroing once covers them all.
            diagonal.clear();
            diagonal.resize(m + 1, 0);
        }
        let [cur, prev, prev2] = &mut self.diagonals;
        let mut best = 0i16;
        // Cell (i, j), 1-based, is on diagonal d = i + j at index i.
        for d in 2..=m + n {
            // The diagonal's live cells are rows lo..=hi.
            let (lo, hi) = (d.saturating_sub(n).max(1), (d - 1).min(m));
            let reached = sweep(
                &mut cur[lo..=hi],
                &query[lo - 1..hi],
                &self.rev_target[n + lo - d..n + hi + 1 - d],
                &prev2[lo - 1..hi], // (i − 1, j − 1)
                &prev[lo - 1..hi],  // (i − 1, j)
                &prev[lo..=hi],     // (i, j − 1)
                match_score,
                mismatch,
                gap,
            );
            best = best.max(reached);
            std::mem::swap(prev, prev2);
            std::mem::swap(cur, prev);
        }
        best as i32
    }
}

/// Fills one anti-diagonal from the two before it and returns its highest
/// cell. All slices cover the same rows.
///
/// Not inlined, so that the three scores arrive as opaque 16-bit values:
/// inlined, the compiler sinks their narrowing from `i32` below the
/// match/mismatch select, does the select in 32-bit lanes and repacks
/// (about a fifth slower). As a function of its own, its `&mut` and `&`
/// slices are also known not to overlap, which saves the vector loop its
/// run-time checks.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn sweep(
    out: &mut [i16],
    q: &[u8],
    t: &[u8],
    diag: &[i16],
    up: &[i16],
    left: &[i16],
    match_score: i16,
    mismatch: i16,
    gap: i16,
) -> i16 {
    // Cut to one length, so the loop indexes without bounds checks.
    let len = out.len();
    let (q, t, diag, up, left) = (&q[..len], &t[..len], &diag[..len], &up[..len], &left[..len]);
    let mut best = 0i16;
    for k in 0..len {
        let sub = if q[k] == t[k] { match_score } else { mismatch };
        let score = (diag[k] + sub).max(up[k].max(left[k]) + gap).max(0);
        out[k] = score;
        best = best.max(score);
    }
    best
}

/// Whether no cell of an alignment of up to `steps` steps, nor a term of
/// its maximum, can leave `i16` under `scoring`.
fn fits_i16(steps: usize, scoring: &Scoring) -> bool {
    let params = [scoring.match_score, scoring.mismatch, scoring.gap];
    let highest = params.iter().fold(0i64, |h, &p| h.max(p as i64));
    let lowest = params.iter().fold(0i64, |l, &p| l.min(p as i64));
    // A cell is at least 0 and at most `steps` best-case steps; the terms
    // of its maximum are one more step either way.
    (steps as i64 + 1) * highest <= i16::MAX as i64 && lowest >= i16::MIN as i64
}

/// The row-by-row recurrence in `i32`: what [`Wavefront::score`] falls back
/// to for a [`Scoring`] too large for its lanes, and the oracle its tests
/// compare it with.
fn score_scalar(query: &[u8], target: &[u8], scoring: &Scoring) -> i32 {
    let mut prev = vec![0i32; target.len() + 1];
    let mut best = 0;
    for &q in query {
        let mut diag = 0i32; // prev[j-1] from the previous row
        for j in 1..=target.len() {
            let sub = if q == target[j - 1] {
                scoring.match_score
            } else {
                scoring.mismatch
            };
            let score = (diag + sub)
                .max(prev[j] + scoring.gap)
                .max(prev[j - 1] + scoring.gap)
                .max(0);
            diag = prev[j];
            prev[j] = score;
            best = best.max(score);
        }
        // prev[0] stays 0 (local alignment), diag for next row starts at 0.
    }
    best
}

/// Computes the optimal local alignment with traceback.
pub fn align(query: &[u8], target: &[u8], scoring: &Scoring) -> Alignment {
    let rows = query.len() + 1;
    let cols = target.len() + 1;
    let mut dp = vec![0i32; rows * cols];
    let mut best = (0i32, 0usize, 0usize);
    for i in 1..rows {
        for j in 1..cols {
            let sub = if query[i - 1] == target[j - 1] {
                scoring.match_score
            } else {
                scoring.mismatch
            };
            let score = (dp[(i - 1) * cols + j - 1] + sub)
                .max(dp[(i - 1) * cols + j] + scoring.gap)
                .max(dp[i * cols + j - 1] + scoring.gap)
                .max(0);
            dp[i * cols + j] = score;
            if score > best.0 {
                best = (score, i, j);
            }
        }
    }
    // Traceback from the best cell until a zero cell.
    let (score, mut i, mut j) = best;
    let (query_end, target_end) = (i, j);
    let mut aq = Vec::new();
    let mut at = Vec::new();
    while i > 0 && j > 0 && dp[i * cols + j] > 0 {
        let cur = dp[i * cols + j];
        let sub = if query[i - 1] == target[j - 1] {
            scoring.match_score
        } else {
            scoring.mismatch
        };
        if cur == dp[(i - 1) * cols + j - 1] + sub {
            aq.push(query[i - 1]);
            at.push(target[j - 1]);
            i -= 1;
            j -= 1;
        } else if cur == dp[(i - 1) * cols + j] + scoring.gap {
            aq.push(query[i - 1]);
            at.push(b'-');
            i -= 1;
        } else {
            aq.push(b'-');
            at.push(target[j - 1]);
            j -= 1;
        }
    }
    aq.reverse();
    at.reverse();
    Alignment {
        score,
        query_end,
        target_end,
        aligned_query: aq,
        aligned_target: at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_testkit::runner::check;
    use optimus_testkit::{gens, prop_assert, prop_assert_eq};

    #[test]
    fn identical_sequences_score_full_match() {
        let s = Scoring::default();
        assert_eq!(score_only(b"ACGT", b"ACGT", &s), 8);
    }

    #[test]
    fn disjoint_alphabets_score_zero() {
        let s = Scoring::default();
        assert_eq!(score_only(b"AAAA", b"TTTT", &s), 0);
    }

    #[test]
    fn classic_textbook_example() {
        // Wikipedia's example: TGTTACGG vs GGTTGACTA, match +3, mismatch -3, gap -2
        let s = Scoring {
            match_score: 3,
            mismatch: -3,
            gap: -2,
        };
        let result = align(b"TGTTACGG", b"GGTTGACTA", &s);
        assert_eq!(result.score, 13);
        assert_eq!(result.aligned_query, b"GTT-AC".to_vec());
        assert_eq!(result.aligned_target, b"GTTGAC".to_vec());
    }

    #[test]
    fn score_only_matches_full_align() {
        let s = Scoring::default();
        let cases: [(&[u8], &[u8]); 4] = [
            (b"ACACACTA", b"AGCACACA"),
            (b"GATTACA", b"GCATGCU"),
            (b"AAAA", b"AAAA"),
            (b"CGTACGTACGT", b"TACG"),
        ];
        for (q, t) in cases {
            assert_eq!(score_only(q, t, &s), align(q, t, &s).score, "{q:?} vs {t:?}");
        }
    }

    #[test]
    fn empty_inputs_score_zero() {
        let s = Scoring::default();
        assert_eq!(score_only(b"", b"ACGT", &s), 0);
        assert_eq!(score_only(b"ACGT", b"", &s), 0);
    }

    #[test]
    fn local_alignment_ignores_flanks() {
        let s = Scoring::default();
        // The common core "CCCC" aligns regardless of differing flanks.
        let score = score_only(b"TTTTCCCCGGGG", b"AAAACCCCAAAA", &s);
        assert_eq!(score, 8);
    }

    #[test]
    fn score_is_symmetric() {
        let s = Scoring::default();
        let a = b"ACGTACGTTGCA";
        let b = b"TGCATGCAACGT";
        assert_eq!(score_only(a, b, &s), score_only(b, a, &s));
    }

    #[test]
    fn single_gap_preferred_over_mismatch_run() {
        let s = Scoring {
            match_score: 2,
            mismatch: -3,
            gap: -1,
        };
        let result = align(b"ACGTT", b"ACTT", &s);
        // Optimal: AC-GTT vs AC-TT with one gap: score 2*4 - 1 = 7
        assert_eq!(result.score, 7);
    }

    /// Scorings the wavefront must agree with the scalar recurrence on:
    /// the textbook ones, gap-heavy and gap-free ones, a rewarded mismatch,
    /// one whose reach depends on the input size and one that can never
    /// fit the 16-bit lanes.
    const SCORINGS: [(i32, i32, i32); 8] = [
        (2, -1, -1),
        (3, -3, -2),
        (1, -1, -2),
        (5, -4, -10),
        (2, -3, 0),
        (1, 1, -1),
        (400, -300, -200),
        (40_000, -30_000, -20_000),
    ];

    /// Wavefront ≡ scalar recurrence ≡ the full alignment's score, over
    /// DNA, protein and byte alphabets, empty and ragged shapes, and every
    /// scoring above — including the ones that take the fallback.
    #[test]
    fn wavefront_matches_the_scalar_recurrence_and_the_alignment() {
        let gen = gens::zip4(
            gens::choose(vec![4u64, 20, 256]),
            gens::vec_of(gens::byte_any(), 0..81),
            gens::vec_of(gens::byte_any(), 0..301),
            gens::usize_in(0..SCORINGS.len()),
        );
        check(
            "sw_wavefront_oracle",
            &gen,
            |(alphabet, q, t, scoring): &(u64, Vec<u8>, Vec<u8>, usize)| {
                let fold = |seq: &[u8]| -> Vec<u8> {
                    seq.iter().map(|&b| (b as u64 % alphabet) as u8).collect()
                };
                let (q, t) = (fold(q), fold(t));
                let (match_score, mismatch, gap) = SCORINGS[*scoring];
                let s = Scoring {
                    match_score,
                    mismatch,
                    gap,
                };
                let want = score_scalar(&q, &t, &s);
                prop_assert_eq!(score_only(&q, &t, &s), want);
                prop_assert_eq!(align(&q, &t, &s).score, want);
                // Which path `score_only` took: the last scoring can never
                // use the lanes, the first six always do at these sizes.
                let lanes = fits_i16(q.len() + t.len(), &s);
                prop_assert!(lanes || *scoring >= 6);
                prop_assert!(!lanes || *scoring < 7);
                Ok(())
            },
        );
    }

    #[test]
    fn a_reused_wavefront_scores_like_a_fresh_one() {
        let s = Scoring::default();
        let mut w = Wavefront::default();
        let cases: [(&[u8], &[u8]); 4] = [
            (b"TTTTCCCCGGGGTTTTCCCCGGGG", b"AAAACCCCAAAA"),
            (b"AC", b"ACGTACGTACGTACGTACGT"),
            (b"ACGTACGTAC", b"G"),
            (b"GATTACA", b"GCATGCU"),
        ];
        for (q, t) in cases {
            assert_eq!(w.score(q, t, &s), score_scalar(q, t, &s), "{q:?} vs {t:?}");
        }
    }

    #[test]
    fn scores_that_could_leave_i16_take_the_scalar_recurrence() {
        let s = |match_score, mismatch, gap| Scoring {
            match_score,
            mismatch,
            gap,
        };
        assert!(fits_i16(64 + 256, &Scoring::default()));
        // 321 steps of +102 reach 32 742; of +103, 33 063.
        assert!(fits_i16(320, &s(102, -1, -1)));
        assert!(!fits_i16(320, &s(103, -1, -1)));
        assert!(!fits_i16(320, &s(2, -1, 103)));
        assert!(!fits_i16(2, &s(2, -40_000, -1)));
        // The fallback still scores: one match of an unrepresentable reward.
        assert_eq!(score_only(b"A", b"A", &s(40_000, -1, -1)), 40_000);
    }
}
