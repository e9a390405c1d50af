#!/usr/bin/env bash
# Offline CI gate for the OPTIMUS reproduction. Every report check lives in
# scripts/benchcheck.py (one `fingerprint`, one validator per artifact).
#
#  1. Hermetic-build check: no Cargo.toml may declare a registry dependency.
#  2. Tier-1: cargo build --release && cargo test -q, the full workspace
#     suite, the optimus crate's rustdoc with warnings denied (its intra-doc
#     links name ~40 items across the hypervisor/ modules), and (2b) the
#     fabric + hypervisor suites again per-cycle (OPTIMUS_NO_FASTFWD=1).
#  3. Bench smoke: every bench target once at tiny scales; each must emit its
#     BENCH_<target>.json report.
#  4. Recording planes: one fig5 sweep point with each plane on and off. The
#     bench fingerprint (minus the plane's own report sections) must be
#     byte-identical, the plane's artifact must validate offline (Chrome
#     trace, Prometheus exposition, SLO schema), and the two default-on
#     planes must cost at most 5 % of best-of-two sim_rate.
#  5. Node smoke: cluster_scale with parallel (OPTIMUS_NODE_THREADS=4) and
#     serial device stepping must fingerprint identically.
#  6. Performance-ledger selftest: the frozen benchmarks/perf harness must
#     still build against the crates' public surface, pass its own unit
#     tests, and pass its schema/liveness checks (< 30 s).
#  7. Migration smoke: (a) a fig5 point with a mid-run hypervisor live-update
#     (freeze -> wire bytes -> thaw over the running device) must fingerprint
#     identically to an uninterrupted run; (b) migrate_rebalance serial vs
#     parallel likewise, and fairness must actually recover.
#  8. Sim-rate regression gate: best-of-two sim_rate of the four tracked
#     benches vs benchmarks/BENCH_*.json; fail on >20 % regression.
#  9. Isolation gate: WildDma containment with zero refinement violations
#     (spec_prop) and the noninterference differential.
# 10. Shared-channel gate: pipeline_handoff identical across thread schedules
#     and with the spec plane auditing; zero-copy beats staging; channel
#     noninterference and share-migration suites.
#
# The whole script runs with no network access.

set -euo pipefail
cd "$(dirname "$0")/.."
check() { python3 scripts/benchcheck.py "$@"; }
# bench DIR BENCH [VAR=value ...]: one bench run reporting into target/DIR.
bench() {
    local dir="$PWD/target/$1" name="$2"
    shift 2
    rm -rf "$dir"
    env OPTIMUS_BENCH_DIR="$dir" "$@" \
        cargo bench -q -p optimus-bench --bench "$name" >/dev/null </dev/null
}

echo "== [1/10] registry-dependency check =="
check deps

echo "== [2/10] tier-1: build + tests =="
cargo build --release
cargo test -q
cargo test --workspace -q
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q -p optimus

echo "== [2b/10] fast-forward differential equivalence (per-cycle mode) =="
# Re-run the fabric and hypervisor suites with fast-forwarding disabled:
# the differential property tests then compare per-cycle stepping against
# an explicitly re-enabled fast path, and every other test exercises the
# seed's original cycle loop.
OPTIMUS_NO_FASTFWD=1 cargo test -q -p optimus-fabric -p optimus

echo "== [3/10] bench smoke (tiny scales, one JSON report per target) =="
BENCH_DIR="target/bench-reports-ci"
rm -rf "$BENCH_DIR"
export OPTIMUS_BENCH_DIR="$PWD/$BENCH_DIR"
# Shrink every knob so the full sweep finishes in seconds.
export OPTIMUS_BENCH_WARMUP=20000
export OPTIMUS_BENCH_WINDOW=60000
export OPTIMUS_FIG1_SCALE=400
export OPTIMUS_FIG8_SLICE_US=500
export OPTIMUS_FIG8_SLICES=1
export OPTIMUS_TESTKIT_WARMUP=1
export OPTIMUS_TESTKIT_SAMPLES=3
export OPTIMUS_TESTKIT_ITERS=5

BENCHES=$(ls crates/bench/benches/*.rs | xargs -n1 basename | sed 's/\.rs$//')
for b in $BENCHES; do
    echo "-- bench smoke: $b"
    cargo bench -q -p optimus-bench --bench "$b" >/dev/null
    if [ ! -s "$BENCH_DIR/BENCH_${b}.json" ]; then
        echo "FAIL: bench '$b' did not emit $BENCH_DIR/BENCH_${b}.json"
        exit 1
    fi
done
echo "ok: $(ls "$BENCH_DIR" | wc -l) bench reports in $BENCH_DIR"

echo "== [4/10] recording planes (on/off invisibility, artifacts, overhead) =="
# plane | env on | env off | own report sections | validator
# (Own sections are excluded from the fingerprint; the first is exclusive to
# the plane, so it must vanish when the plane is off.)
PLANES='
trace|OPTIMUS_TRACE=1||trace_events trace_dropped|chrome-trace
metrics||OPTIMUS_METRICS=off|metrics|prometheus
spec|OPTIMUS_SPEC=1|||-
journal||OPTIMUS_JOURNAL=0|slo metrics|slo
'
while IFS='|' read -r plane env_on env_off own validator; do
    [ -n "$plane" ] || continue
    if [ -n "$env_on" ]; then
        # Off by default: one pair at the smoke window.
        arms="on off" window="$OPTIMUS_BENCH_WINDOW"
    else
        # On by default, so its cost is gated too: best of two per arm, the
        # arms interleaved after a warm-up (which doubles as the short-window
        # snapshot for counter monotonicity) so batch order favours neither,
        # over a 20 M-cycle window — at the smoke window the timed region is
        # sub-millisecond and the rate is timer noise.
        arms="off on off2 on2" window=20000000
        bench "plane-ci/$plane-warm" fig5_latency OPTIMUS_FIG5_QUICK=1
    fi
    for arm in $arms; do
        case "$arm" in on*) arm_env="$env_on" ;; *) arm_env="$env_off" ;; esac
        bench "plane-ci/$plane-$arm" fig5_latency OPTIMUS_FIG5_QUICK=1 \
            OPTIMUS_BENCH_WINDOW="$window" $arm_env
    done
    check plane "$plane" "target/plane-ci/$plane" "$validator" $own
done <<<"$PLANES"

echo "== [5/10] node smoke (parallel vs serial device stepping) =="
# Pin the worker count so the check is meaningful even on a single-core
# host (available_parallelism would otherwise report 1).
bench node-ci-par cluster_scale OPTIMUS_NODE_THREADS=4
bench node-ci-ser cluster_scale OPTIMUS_NODE_THREADS=1
check same target/node-ci-{par,ser}/BENCH_cluster_scale.json "parallel device stepping (cluster_scale)"

echo "== [6/10] performance-ledger selftest (frozen harness vs the crates' public surface) =="
# The harness's own tests first: a slip in the public surface it imports
# fails here, before the benchmark pipeline ever sees it.
cargo test -q --offline --locked --manifest-path benchmarks/perf/Cargo.toml
benchmarks/perf/run.sh --selftest

echo "== [7/10] migration smoke (live-update + cross-device rebalance) =="
bench migrate-ci-lu fig5_latency OPTIMUS_FIG5_QUICK=1 OPTIMUS_LIVE_UPDATE=1
bench migrate-ci-plain fig5_latency OPTIMUS_FIG5_QUICK=1
check same target/migrate-ci-{lu,plain}/BENCH_fig5_latency.json "mid-run hypervisor live-update (fig5)"
bench migrate-ci-reb-ser migrate_rebalance OPTIMUS_NODE_THREADS=1
bench migrate-ci-reb-par migrate_rebalance OPTIMUS_NODE_THREADS=4
check same target/migrate-ci-reb-{ser,par}/BENCH_migrate_rebalance.json "parallel stepping (migrate_rebalance)"
check rebalance target/migrate-ci-reb-ser

echo "== [8/10] sim-rate regression gate (best-of-two vs committed baseline) =="
# Same knobs as stage 3 (still exported). Single-run sim_rate on a shared
# host swings ~15 %; best-of-two is the gate statistic and the committed
# baseline is the conservative min-of-two (see benchmarks/*.json "stat"),
# so the 20 % margin holds against scheduler noise without masking a real
# regression. fig7 (all twelve real-world kinds) is the compute-bound row:
# the other three are LL/MB/MD5 and never run RSD, SW or the image filters.
rm -rf target/simrate-gate-ci-{1,2}
for pass in 1 2; do
    for b in fig5_latency fig8_temporal cluster_scale fig7_realworld; do
        OPTIMUS_BENCH_DIR="$PWD/target/simrate-gate-ci-$pass" \
            cargo bench -q -p optimus-bench --bench "$b" >/dev/null
    done
done
check baseline target/simrate-gate-ci-{1,2}

echo "== [9/10] isolation gate (WildDma containment + noninterference) =="
# Probes outside the slice master-abort, nothing leaks, the refinement
# checker records zero violations; victim data observables bit-identical
# with and without the adversary across threads/schedules/batching and
# through mid-run migrate + live-update.
cargo test -q -p optimus --test spec_prop
cargo test -q -p optimus --test noninterference_prop

echo "== [10/10] shared-channel gate (pipeline handoff + cross-tenant noninterference) =="
bench pipe-ci-ser pipeline_handoff OPTIMUS_NODE_THREADS=1
bench pipe-ci-par pipeline_handoff OPTIMUS_NODE_THREADS=4
bench pipe-ci-spec pipeline_handoff OPTIMUS_SPEC=1
check same target/pipe-ci-{ser,par}/BENCH_pipeline_handoff.json "parallel stepping (pipeline_handoff)"
check same target/pipe-ci-{ser,spec}/BENCH_pipeline_handoff.json "the spec plane (pipeline_handoff)"
check pipeline target/pipe-ci-ser
# A co-resident WildDma adversary aimed at the consumer's retrieved window
# cannot perturb the pipeline; handle lifecycle + migration carry the
# shares; generated probe plans stay contained.
cargo test -q -p optimus --test noninterference_prop \
    adversary_cannot_perturb_shared_pipeline_observables
cargo test -q -p optimus --test share_migrate
cargo test -q -p optimus --test free_run_prop cross_device_share_grid_matches_lockstep_baseline

echo "CI PASSED"
