//! Seeded input generation. Every input of every workload derives from
//! `--seed` through `derive_seed` streams, so the same seed gives the
//! same inputs and the simulator receives only the generated data.

use optimus_sim::rng::{derive_seed, Xoshiro256};

/// Seed streams, one per purpose, split off the run seed.
pub mod stream {
    pub const TENANT: u64 = 0x01;
    pub const JOBS: u64 = 0x02;
    pub const INPUT: u64 = 0x03;
    pub const DEVICE: u64 = 0x04;
    pub const VERIFY: u64 = 0x05;
    pub const SAMPLE: u64 = 0x06;
}

/// The seed for `purpose` stream, item `index`.
pub fn seed_for(run_seed: u64, purpose: u64, index: u64) -> u64 {
    derive_seed(derive_seed(run_seed, purpose), index)
}

/// Short jobs: 64–512 lines (one to a few thousand fabric cycles).
pub const SHORT_LINES: std::ops::RangeInclusive<u64> = 64..=512;
/// Long jobs: 16 Ki–64 Ki lines (several time slices on every kernel).
pub const LONG_LINES: std::ops::RangeInclusive<u64> = 16_384..=65_536;
/// Jobs per block of the mix: one long, the rest short (75 % short).
const BLOCK: usize = 4;

/// The bounded job sizes (in 64-byte lines) one closed-loop client
/// submits, in order: 75 % short, 25 % long. Sizes are multiples of four
/// lines so every kernel (RSD codewords included) accepts them.
///
/// The mix is stratified: every block of four jobs holds exactly one long
/// job, at a seeded position, and the long jobs of two consecutive blocks
/// are mirror images in their range, so every eight jobs hand a client
/// the same long work whatever the seed. Seeds then differ in the order
/// and the sizes of jobs, not in how much work a client happens to draw,
/// and the simulated metrics of two seeds agree within a few percent.
pub fn job_sizes(run_seed: u64, client: u64, count: usize) -> Vec<u64> {
    let mut rng = Xoshiro256::seed_from(seed_for(run_seed, stream::JOBS, client));
    let (long_lo, long_hi) = (*LONG_LINES.start(), *LONG_LINES.end());
    let mut sizes = Vec::with_capacity(count + BLOCK);
    let mut mirror: Option<u64> = None;
    while sizes.len() < count {
        let long_at = rng.gen_range(0..BLOCK as u64) as usize;
        let long = match mirror.take() {
            Some(previous) => long_lo + long_hi - previous,
            None => {
                let drawn = rng.gen_range(long_lo..long_hi + 1);
                mirror = Some(drawn);
                drawn
            }
        };
        for j in 0..BLOCK {
            let lines = if j == long_at {
                long
            } else {
                rng.gen_range(*SHORT_LINES.start()..*SHORT_LINES.end() + 1)
            };
            sizes.push((lines / 4 * 4).max(4));
        }
    }
    sizes.truncate(count);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job_list_other_seed_other_list() {
        assert_eq!(job_sizes(7, 3, 500), job_sizes(7, 3, 500));
        assert_ne!(job_sizes(7, 3, 500), job_sizes(8, 3, 500));
        // Clients of one run draw from independent streams.
        assert_ne!(job_sizes(7, 3, 500), job_sizes(7, 4, 500));
    }

    #[test]
    fn bimodal_mix_hits_both_modes_in_proportion() {
        let sizes = job_sizes(42, 0, 4_000);
        let short = sizes.iter().filter(|l| SHORT_LINES.contains(l)).count();
        let long = sizes.iter().filter(|l| LONG_LINES.contains(l)).count();
        assert_eq!(short + long, sizes.len(), "nothing falls between the modes");
        assert_eq!(short, 3 * long, "three short jobs to every long one");
        assert!(sizes.iter().all(|l| l % 4 == 0));
        // Every block of four holds one long job, and two consecutive
        // blocks' long jobs mirror each other in their range.
        let longs: Vec<u64> = sizes
            .chunks(4)
            .map(|b| {
                let l: Vec<u64> = b
                    .iter()
                    .copied()
                    .filter(|l| LONG_LINES.contains(l))
                    .collect();
                assert_eq!(l.len(), 1, "one long job per block");
                l[0]
            })
            .collect();
        for pair in longs.chunks(2) {
            let sum = pair[0] + pair[1];
            let want = LONG_LINES.start() + LONG_LINES.end();
            assert!(sum <= want && sum + 8 > want, "mirror pair sums to {sum}");
        }
    }
}
