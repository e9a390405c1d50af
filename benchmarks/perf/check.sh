#!/usr/bin/env bash
# Repeatability check of the performance ledger.
#
#   benchmarks/perf/check.sh [--seed N] [--workload W] [--record]
#
# For every workload: two sets of three untraced runs of the same build
# and seed. Fails unless
#   * each end-to-end metric's second-set median is no worse than the
#     first set's by more than the metric's bound (BENCHMARK.json; for
#     `setup_s` by more than max(bound, 0.05 s));
#   * every simulated metric (`sim_*`), the check counts and the
#     `sim_fingerprint` are identical across all six runs;
#   * three traced runs pass (each compares its own traced, untraced and
#     toggled fingerprints) and print the untraced runs' fingerprint;
#   * for node_ops, a run on one worker thread has the same fingerprint;
#   * the fingerprint is the one baseline/BASELINE.json records for this
#     seed (it moves only when the model changes).
# Prints medians and quartiles, one row per workload and metric.
# `--record` also runs a second seed and rewrites baseline/BASELINE.json
# (end-to-end medians and quartiles of the six runs, per-layer medians of
# the three traced runs).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target/perfbench}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
cargo build --quiet --release --offline --locked \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec python3 "$here/check.py" "$root" "$target/release/perfbench" "$@"
