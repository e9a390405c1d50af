//! In-tree property-testing and report harness for the OPTIMUS workspace.
//!
//! The workspace builds with **zero registry dependencies** (see the
//! "Hermetic build policy" in `DESIGN.md`), so the role usually played by
//! `proptest` is filled here, on top of the deterministic primitives the
//! simulator already ships:
//!
//! * [`gens`] — generator combinators with value-based greedy shrinking,
//!   driven by [`optimus_sim::rng::Xoshiro256`];
//! * [`runner`] — the property-test case runner: every case derives its RNG
//!   from a printed 64-bit seed, so any failure replays exactly with
//!   `OPTIMUS_PROP_SEED=<seed>`;
//! * [`report`] — [`report::Report`] sessions that print the paper's
//!   tables as the bench binaries regenerate them and emit per-figure
//!   `BENCH_<name>.json` reports (no timing: simulator speed is measured
//!   by the performance ledger in `benchmarks/perf`);
//! * [`json`] — the minimal JSON document model those reports serialize
//!   through.
//!
//! # Replaying a property failure
//!
//! A falsified property panics with a message like:
//!
//! ```text
//! property 'permutation_round_trips' falsified at case 17 (seed 0x8c5a0f3e9b2d4e61)
//! ```
//!
//! Re-run exactly that case with:
//!
//! ```text
//! OPTIMUS_PROP_SEED=0x8c5a0f3e9b2d4e61 cargo test -p optimus-sim --test prop permutation_round_trips
//! ```

pub mod gens;
pub mod json;
pub mod report;
pub mod runner;

/// Asserts a condition inside a property, returning `Err` (not panicking)
/// so the runner can shrink the counterexample.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !($cond) {
            return Err(format!("{} ({}:{})", format!($($arg)+), file!(), line!()));
        }
    };
}

/// Asserts two values compare equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "{} != {}: {:?} vs {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "{}: {:?} vs {:?} ({}:{})",
                format!($($arg)+),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

/// Asserts two values compare unequal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err(format!(
                "{} == {}: both {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                file!(),
                line!()
            ));
        }
    }};
}
