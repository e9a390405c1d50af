//! Small statistics the ledger needs: medians and quartiles of host
//! timings, the "ten samples beyond" percentile rule, Jain's fairness
//! index, and the fingerprint hasher for simulated statistics.

/// Median of `values` (mean of the two middle elements for an even count).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; 0.0 if empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail percentiles a timing may be reported at, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even p75 leaves fewer than ten (n < 40): then only the
/// median is reported.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        // The epsilon absorbs `1.0 - 0.9 = 0.09999…` so n = 100 counts its
        // ten samples beyond p90.
        .find(|q| (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= 10)
}

/// Jain's fairness index over per-tenant progress: `(Σx)² / (n·Σx²)`,
/// 1.0 when every tenant progressed equally. Empty or all-zero input
/// yields 0.0.
pub fn jain(progress: &[f64]) -> f64 {
    let sum: f64 = progress.iter().sum();
    let sum_sq: f64 = progress.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 0.0;
    }
    sum * sum / (progress.len() as f64 * sum_sq)
}

/// Simulated device-cycles between two clock readings: the sum over
/// devices of each device's own `now()` delta. A node's devices drift
/// apart (guest traps and migration drains advance one device only), so
/// the node clock alone would miscount.
pub fn device_cycles(before: &[u64], after: &[u64]) -> u64 {
    assert_eq!(before.len(), after.len(), "same devices at both readings");
    before.iter().zip(after).map(|(b, a)| a - b).sum()
}

/// FNV-1a over a stream of 64-bit words: the fingerprint of every
/// simulated statistic a pass produced. Two passes of the same seed and
/// budget must agree on it bit for bit whatever the host did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n = 40: p75 leaves exactly ten beyond; p90 leaves four.
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.75), 30.0);
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
    }

    #[test]
    fn jain_is_one_when_equal_and_falls_with_skew() {
        assert!((jain(&[5.0; 8]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn device_cycles_sum_per_device_deltas() {
        // Four devices that drifted apart: the node clock (max) moved by
        // 130 but 100 + 130 + 100 + 110 device-cycles were simulated.
        let before = [1_000, 1_000, 1_050, 1_000];
        let after = [1_100, 1_130, 1_150, 1_110];
        assert_eq!(device_cycles(&before, &after), 440);
        assert_eq!(device_cycles(&[7], &[7]), 0);
    }

    #[test]
    fn fingerprint_depends_on_every_word_and_its_order() {
        let mut a = Fingerprint::new();
        a.push(1);
        a.push(2);
        let mut b = Fingerprint::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
        let mut c = Fingerprint::new();
        c.push(1);
        c.push(2);
        assert_eq!(a, c);
    }
}
