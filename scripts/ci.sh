#!/usr/bin/env bash
# Offline CI gate for the OPTIMUS reproduction. Every report check lives in
# scripts/benchcheck.py (one validator per artifact). No check compares a
# wall-clock number across processes: the bench reports carry none, and the
# only timing gate is the ledger's within-run plane-overhead ratio (stage 9).
#
#  1. Hermetic-build check: no Cargo.toml may declare a registry dependency.
#  2. Tier-1: cargo build --release && cargo test -q, the full workspace
#     suite, rustdoc with warnings denied for the whole workspace (intra-doc
#     links name items across modules), and the
#     fabric, accel and hypervisor suites and the job catalogue's
#     every-kind oracle test again per-cycle (OPTIMUS_NO_FASTFWD=1).
#  3. Bench smoke: every bench target once at tiny scales; each must emit its
#     BENCH_<target>.json report. Fig 1 must keep SM < HC+Copy < HC+Config
#     in every row, Table 4 must stay within 0.03 of the paper (SSSP within
#     its waiver band), and a doctored row of each must be refused.
#  4. Recording planes: one fig5 sweep point with each plane on (twice) and
#     off: reports identical minus the plane's own sections, its output
#     deterministic and valid offline (Chrome trace, Prometheus, SLO
#     schema), metrics counters monotone across two window lengths.
#  5. Node smoke: cluster_scale with parallel (OPTIMUS_NODE_THREADS=4) and
#     serial device stepping must report identically.
#  6. Migration smoke: (a) a fig5 point with a mid-run hypervisor live-update
#     (freeze -> wire bytes -> thaw over the running device) must report
#     identically to an uninterrupted run; (b) migrate_rebalance serial vs
#     parallel likewise, and fairness must actually recover.
#  7. Isolation gate: WildDma containment with zero refinement violations
#     (spec_prop) and the noninterference differential.
#  8. Shared-channel gate: pipeline_handoff identical across thread schedules
#     and with the spec plane auditing; zero-copy beats staging; channel
#     noninterference and share-migration suites.
#  9. Performance ledger (benchmarks/perf, frozen): its unit tests and
#     selftest, then one traced run per workload: every sim_fingerprint as
#     baseline/BASELINE.json records it, no failed output check, metrics and
#     journal overhead <= 5 %; two doctored reports must fail that check.
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

echo "== [1/9] registry-dependency check =="
check deps

echo "== [2/9] tier-1: build + tests, then per-cycle stepping =="
cargo build --release
cargo test -q
cargo test --workspace -q
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q --workspace
# With fast-forwarding disabled the differential property tests compare
# per-cycle stepping against an explicitly re-enabled fast path, and every
# other test exercises the seed's original cycle loop.
OPTIMUS_NO_FASTFWD=1 cargo test -q -p optimus-fabric -p optimus-accel -p optimus
# Every kind's bounded catalogue job against its oracle, per cycle: each
# kernel's next_event hint is then checked both fast-forwarded and not.
OPTIMUS_NO_FASTFWD=1 cargo test -q -p optimus-bench --test catalog_oracles

echo "== [3/9] bench smoke (tiny scales, one JSON report per target) =="
BENCH_DIR="target/bench-reports-ci"
rm -rf "$BENCH_DIR"
export OPTIMUS_BENCH_DIR="$PWD/$BENCH_DIR"
# Shrink every knob so the full sweep finishes in seconds.
export OPTIMUS_BENCH_WARMUP=20000
export OPTIMUS_BENCH_WINDOW=60000
export OPTIMUS_FIG1_SCALE=400
export OPTIMUS_FIG8_SLICE_US=500
export OPTIMUS_FIG8_SLICES=1

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
check fig1 "$BENCH_DIR"
# The gate must be able to fail: a copy with the last row's HC+Copy(V)
# doctored below its SM(V) must be refused, by row.
DOCTORED="target/fig1-doctored"
rm -rf "$DOCTORED" && mkdir -p "$DOCTORED"
row=$(python3 - "$BENCH_DIR" "$DOCTORED" <<'EOF'
import json, sys
name = "BENCH_fig1_sssp_models.json"
rep = json.load(open(f"{sys.argv[1]}/{name}"))
table = rep["tables"][0]
col, row = table["headers"].index, table["rows"][-1]
row[col("HC+Copy(V)")] = f"{float(row[col('SM(V)')]) - 0.01:.2f}"
json.dump(rep, open(f"{sys.argv[2]}/{name}", "w"))
print(row[0])
EOF
)
if out=$(check fig1 "$DOCTORED" 2>&1) || ! grep -qF "row $row:" <<<"$out"; then
    echo "FAIL: the fig1 check did not refuse a doctored row $row"
    exit 1
fi
echo "ok: a doctored fig1 row $row is refused"
check table4 "$BENCH_DIR"
# Likewise for Table 4: a copy with SSSP at 0.99, what a DRAM vertex-data
# SSSP measures, must be refused, by row.
DOCTORED="target/table4-doctored"
rm -rf "$DOCTORED" && mkdir -p "$DOCTORED"
python3 - "$BENCH_DIR" "$DOCTORED" <<'EOF'
import json, sys
name = "BENCH_table4_colocation.json"
rep = json.load(open(f"{sys.argv[1]}/{name}"))
table = rep["tables"][0]
next(r for r in table["rows"] if r[0] == "SSSP")[table["headers"].index("measured")] = "0.99"
json.dump(rep, open(f"{sys.argv[2]}/{name}", "w"))
EOF
if out=$(check table4 "$DOCTORED" 2>&1) || ! grep -qF "row SSSP:" <<<"$out"; then
    echo "FAIL: the table4 check did not refuse a doctored SSSP row"
    exit 1
fi
echo "ok: a doctored table4 SSSP row is refused"

echo "== [4/9] recording planes (on/off invisibility, determinism, artifacts) =="
# plane | env on | env off | own report sections | validator
# (Own sections are excluded from the on/off comparison; the first is
# exclusive to the plane, so it must vanish when the plane is off.)
PLANES='
trace|OPTIMUS_TRACE=1||trace_events trace_dropped|chrome-trace
metrics||OPTIMUS_METRICS=off|metrics|prometheus
spec|OPTIMUS_SPEC=1|||-
journal||OPTIMUS_JOURNAL=0|slo metrics|slo
'
while IFS='|' read -r plane env_on env_off own validator; do
    [ -n "$plane" ] || continue
    arms="on on2 off"
    # A half window, for counter monotonicity across window lengths.
    [ "$validator" = prometheus ] && arms="$arms short"
    for arm in $arms; do
        case "$arm" in off) arm_env="$env_off" ;; *) arm_env="$env_on" ;; esac
        window=$OPTIMUS_BENCH_WINDOW
        [ "$arm" = short ] && window=$((window / 2))
        bench "plane-ci/$plane-$arm" fig5_latency OPTIMUS_FIG5_QUICK=1 \
            OPTIMUS_BENCH_WINDOW="$window" $arm_env
    done
    check plane "$plane" "target/plane-ci/$plane" "$validator" $own
done <<<"$PLANES"

echo "== [5/9] node smoke (parallel vs serial device stepping) =="
# Pin the worker count so the check is meaningful even on a single-core
# host (available_parallelism would otherwise report 1).
bench node-ci-par cluster_scale OPTIMUS_NODE_THREADS=4
bench node-ci-ser cluster_scale OPTIMUS_NODE_THREADS=1
check same target/node-ci-{par,ser}/BENCH_cluster_scale.json "parallel device stepping (cluster_scale)"

echo "== [6/9] migration smoke (live-update + cross-device rebalance) =="
bench migrate-ci-lu fig5_latency OPTIMUS_FIG5_QUICK=1 OPTIMUS_LIVE_UPDATE=1
bench migrate-ci-plain fig5_latency OPTIMUS_FIG5_QUICK=1
check same target/migrate-ci-{lu,plain}/BENCH_fig5_latency.json "mid-run hypervisor live-update (fig5)"
bench migrate-ci-reb-ser migrate_rebalance OPTIMUS_NODE_THREADS=1
bench migrate-ci-reb-par migrate_rebalance OPTIMUS_NODE_THREADS=4
check same target/migrate-ci-reb-{ser,par}/BENCH_migrate_rebalance.json "parallel stepping (migrate_rebalance)"
check rebalance target/migrate-ci-reb-ser

echo "== [7/9] isolation gate (WildDma containment + noninterference) =="
# Probes outside the slice master-abort, nothing leaks, the refinement
# checker records zero violations; victim data observables bit-identical
# with and without the adversary across threads, per-cycle or fast-forwarded
# stepping and batching, and through mid-run migrate + live-update.
cargo test -q -p optimus --test spec_prop
cargo test -q -p optimus --test noninterference_prop

echo "== [8/9] shared-channel gate (pipeline handoff + cross-tenant noninterference) =="
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
cargo test -q -p optimus --test free_run_prop cross_device_share_grid_matches_per_cycle_baseline

echo "== [9/9] performance ledger (frozen harness: fingerprints, checks, plane cost) =="
# The harness's own tests first: a slip in the public surface it imports
# fails here, before the benchmark pipeline ever sees it.
cargo test -q --offline --locked --manifest-path benchmarks/perf/Cargo.toml
benchmarks/perf/run.sh --selftest
LEDGER="$PWD/target/ledger-ci"
rm -rf "$LEDGER" "$LEDGER-doctored" && mkdir -p "$LEDGER"
read -r seconds workloads <<<"$(python3 -c 'import json; b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], *(w["name"] for w in b["workloads"]))')"
for w in $workloads; do
    # A failed output check exits non-zero; the ledger check names it.
    benchmarks/perf/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
        >"$LEDGER/$w.out" || true
done
check ledger "$LEDGER"
# The gate must be able to fail, as --corrupt-expected shows the harness's
# own checks can: a copy with one fingerprint bit flipped, and one with a
# 6 % journal cost, must each be refused by workload and metric.
w=tenant_churn
fp=$(awk '$2 == "sim_fingerprint" { print $3 }' "$LEDGER/$w.out")
for doctor in "sim_fingerprint|s/ $fp / $(printf '%016x' $((0x$fp ^ 1))) /" \
    'sim.journal_overhead_pct|s/("sim\.journal_overhead_pct": \{"value": )[^,]*/\16/'; do
    metric=${doctor%%|*}
    rm -rf "$LEDGER-doctored" && cp -r "$LEDGER" "$LEDGER-doctored"
    sed -i -E "${doctor#*|}" "$LEDGER-doctored/$w.out"
    if out=$(check ledger "$LEDGER-doctored" 2>&1) || ! grep -qF "$w: $metric" <<<"$out"; then
        echo "FAIL: the ledger check did not refuse $w with a doctored $metric"
        exit 1
    fi
    echo "ok: a doctored $w $metric is refused"
done

echo "CI PASSED"
