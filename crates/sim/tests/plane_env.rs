//! The four plane gates read their environment variables through one
//! parser. Its own test binary with a single test: it sets the real
//! `OPTIMUS_*` variables, which every other test thread in a shared
//! binary would sample.

use optimus_sim::{journal, metrics, spec, trace};

/// The four gates as a thread started under the current environment
/// samples them.
fn fresh_thread_gates() -> [bool; 4] {
    std::thread::spawn(|| {
        [trace::enabled(), metrics::enabled(), journal::enabled(), spec::enabled()]
    })
    .join()
    .expect("probe thread")
}

#[test]
fn every_plane_accepts_the_same_spellings() {
    const VARS: [&str; 4] =
        ["OPTIMUS_TRACE", "OPTIMUS_METRICS", "OPTIMUS_JOURNAL", "OPTIMUS_SPEC"];
    let set_all = |value: Option<&str>| {
        for var in VARS {
            match value {
                Some(v) => std::env::set_var(var, v),
                None => std::env::remove_var(var),
            }
        }
    };
    // Unset or empty: each plane's own default (trace and spec off,
    // metrics and journal on).
    for value in [None, Some("")] {
        set_all(value);
        assert_eq!(fresh_thread_gates(), [false, true, true, false], "{value:?}");
    }
    for off in ["0", "off", "OFF", "false", "no"] {
        set_all(Some(off));
        assert_eq!(fresh_thread_gates(), [false; 4], "{off:?} must turn every plane off");
    }
    for on in ["1", "on", "yes"] {
        set_all(Some(on));
        assert_eq!(fresh_thread_gates(), [true; 4], "{on:?} must turn every plane on");
    }
    set_all(None);
}
