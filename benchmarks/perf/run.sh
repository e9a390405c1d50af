#!/usr/bin/env bash
# The performance ledger's one command.
#
#   benchmarks/perf/run.sh [--seed N] [--workload W] [--traced]
#       Runs every workload (or just W), each in its own process so peak
#       RSS is per workload; prints every metric as
#       `workload metric value unit`, verifies outputs, and writes
#       PERF_<workload>.json (and SPANS_<workload>.json when traced) into
#       the target directory. Exits non-zero if any check fails.
#
#   benchmarks/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       The benchmark driver's form: one workload, one JSON object on the
#       last line of standard output.
#
#   benchmarks/perf/run.sh --selftest
#       Every workload at 1/50 budget, untraced and traced, in well under
#       30 s; checks the output schema, that every metric name is well
#       formed and listed in BENCHMARK.json, that BENCHMARK.json is what
#       the harness's own catalog generates, and that a corrupted expected
#       result (--corrupt-expected) makes every workload exit non-zero.
#
# Builds offline into $CARGO_TARGET_DIR, or <repo>/target/perfbench.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target/perfbench}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
bin="$target/release/perfbench"
workloads=(ll_chase mb_rw compute_mix tenant_churn node_ops)

build() {
    # Cargo's progress goes to stderr; stdout stays the benchmark's.
    cargo build --quiet --release --offline --locked \
        --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
}

selftest() {
    local started=$SECONDS out status=0 seconds
    "$bin" --emit-benchmark-json | cmp -s - "$root/BENCHMARK.json" || {
        echo "selftest: BENCHMARK.json is not what 'perfbench --emit-benchmark-json' prints" >&2
        return 1
    }
    seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"] / 50)' "$root/BENCHMARK.json")"
    for w in "${workloads[@]}"; do
        # The checks must be live: a flipped bit in the first expected
        # result has to fail the run. (Beside the two runs below: the host
        # has two CPUs and a small run is mostly set-up.)
        "$bin" --workload "$w" --seed 1 --seconds "$seconds" --corrupt-expected >/dev/null &
        local corrupted=$!
        for trace in 0 1; do
            out="$("$bin" --workload "$w" --seed 1 --seconds "$seconds" --trace "$trace")" || {
                echo "selftest: $w --trace $trace failed" >&2
                status=1
                continue
            }
            python3 "$here/selftest.py" "$root/BENCHMARK.json" "$w" "$trace" <<<"$out" || status=1
        done
        if wait "$corrupted"; then
            echo "selftest: $w --corrupt-expected exited 0" >&2
            status=1
        fi
    done
    local took=$((SECONDS - started))
    echo "selftest: ${#workloads[@]} workloads x {untraced, traced} in ${took}s" >&2
    [ "$took" -lt 30 ] || { echo "selftest: took ${took}s, limit 30s" >&2; status=1; }
    return $status
}

workload="" traced=0 selftest=0 pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --selftest) selftest=1 ;;
        --traced) traced=1 ;;
        --workload) workload="$2"; shift ;;
        *) pass+=("$1") ;;
    esac
    shift
done
[ "$traced" -eq 1 ] && pass+=(--trace 1)

build
if [ "$selftest" -eq 1 ]; then
    selftest
    exit $?
fi
if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --out "$target" ${pass[@]+"${pass[@]}"}
fi
status=0
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --out "$target" ${pass[@]+"${pass[@]}"} || status=1
done
exit $status
