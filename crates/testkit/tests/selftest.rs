//! Self-tests of the harness: shrinking convergence, seed determinism,
//! replay fidelity, and where reports land.

use optimus_testkit::gens;
use optimus_testkit::report::Report;
use optimus_testkit::runner::{check_with, sample_cases, Config};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn quiet_config() -> Config {
    Config {
        cases: 64,
        max_shrink_steps: 4096,
        replay_seed: None,
    }
}

/// Extracts the panic message from a falsified check.
fn falsify<T: Clone + std::fmt::Debug + 'static>(
    name: &str,
    gen: &gens::Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) -> String {
    let cfg = quiet_config();
    let err = catch_unwind(AssertUnwindSafe(|| check_with(&cfg, name, gen, prop)))
        .expect_err("property should have been falsified");
    *err.downcast::<String>().expect("panic message is a String")
}

#[test]
fn shrinking_converges_to_minimal_counterexample() {
    // Known-falsifiable property: v < 42. The minimal counterexample is
    // exactly 42; greedy shrinking must land on it, not merely near it.
    let msg = falsify("ge_42_fails", &gens::u64_in(0..10_000), |&v| {
        if v < 42 {
            Ok(())
        } else {
            Err(format!("{v} >= 42"))
        }
    });
    assert!(
        msg.contains("shrunk") && msg.contains(": 42\n"),
        "expected minimal counterexample 42 in:\n{msg}"
    );
}

#[test]
fn shrinking_minimizes_vectors() {
    // Any vector containing a byte >= 10 fails; the minimal counterexample
    // is a single element equal to 10.
    let msg = falsify(
        "vec_with_big_byte",
        &gens::vec_of(gens::byte_any(), 0..50),
        |v: &Vec<u8>| {
            if v.iter().all(|&b| b < 10) {
                Ok(())
            } else {
                Err("big byte".into())
            }
        },
    );
    assert!(
        msg.contains(": [10]\n"),
        "expected minimal counterexample [10] in:\n{msg}"
    );
}

#[test]
fn identical_seeds_yield_identical_cases() {
    let cfg = quiet_config();
    let gen = gens::zip3(
        gens::u64_in(0..1 << 40),
        gens::vec_of(gens::byte_any(), 0..40),
        gens::hash_map_of(gens::u64_in(0..1000), gens::u64_any(), 1..20),
    );
    let a = sample_cases(&cfg, "determinism", &gen);
    let b = sample_cases(&cfg, "determinism", &gen);
    assert_eq!(a, b);
    // A different property name explores a different stream.
    let c = sample_cases(&cfg, "determinism2", &gen);
    assert_ne!(a, c);
}

#[test]
fn replay_seed_reproduces_the_failing_case() {
    // Falsify, scrape the seed out of the panic message, then replay with
    // that exact seed and confirm the same counterexample value surfaces.
    let gen = gens::u64_in(0..1 << 30);
    let msg = falsify("replay_target", &gen, |&v| {
        if v % 7 != 0 {
            Ok(())
        } else {
            Err("multiple of 7".into())
        }
    });
    let seed_hex = msg
        .split("seed 0x")
        .nth(1)
        .and_then(|s| s.split(')').next())
        .expect("seed in message");
    let seed = u64::from_str_radix(seed_hex, 16).unwrap();
    let original: u64 = msg
        .split("original: ")
        .nth(1)
        .and_then(|s| s.lines().next())
        .unwrap()
        .trim()
        .parse()
        .unwrap();

    let mut replay_cfg = quiet_config();
    replay_cfg.replay_seed = Some(seed);
    let replay_msg = catch_unwind(AssertUnwindSafe(|| {
        check_with(&replay_cfg, "replay_target", &gen, |&v| {
            if v % 7 != 0 {
                Ok(())
            } else {
                Err("multiple of 7".into())
            }
        })
    }))
    .expect_err("replay must also falsify");
    let replay_msg = *replay_msg.downcast::<String>().unwrap();
    assert!(
        replay_msg.contains(&format!("original: {original}")),
        "replay regenerated a different case:\n{replay_msg}"
    );
}

#[test]
fn bench_report_lands_in_bench_dir() {
    let dir = std::env::temp_dir().join("optimus-testkit-selftest");
    // Env var is process-global: restrict this test to its own directory
    // check by pointing OPTIMUS_BENCH_DIR at a temp dir just for this write.
    std::env::set_var("OPTIMUS_BENCH_DIR", &dir);
    let mut report = Report::new("selftest_report");
    report.note("noted");
    let path = report.finish().expect("report written");
    std::env::remove_var("OPTIMUS_BENCH_DIR");
    assert_eq!(path.file_name().unwrap(), "BENCH_selftest_report.json");
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains(r#""bench":"selftest_report""#));
    assert!(body.contains(r#""notes":["noted"]"#));
}
