#!/usr/bin/env bash
# Parent/change alternating pairs of the performance ledger: the one way a
# host-speed claim is measured and recorded.
#
#   scripts/pairs.sh <parent-rev> [N] [workload...]
#
# Exports <parent-rev> and the working tree (tracked and untracked,
# non-ignored files) into two directories whose paths have the same length
# ($PAIRS_DIR/parent and $PAIRS_DIR/change; default target/pairs), builds
# each side's frozen ledger harness there, then runs N alternating pairs per
# workload (default 5, all five workloads) of the ledger's one-workload form
#
#   benchmarks/perf/run.sh --workload W --seed 1 --seconds 15 --trace 0
#
# The side that runs first alternates from pair to pair, so slow drift of
# the host cancels. Writes benchmarks/pairs/<parent-sha>.json: per workload
# and end-to-end metric, both sides' medians, the median change/parent
# ratio with a sign-test interval, and the sim_fingerprints each side
# printed. The file is named after the parent because the change being
# measured has no commit of its own until the file is committed with it.
#
# Runs are sequential: on a 2-vCPU host two concurrent runs would measure
# each other.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,21p' "$0" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$(git -C "$root" rev-parse --verify "$1^{commit}")"
pairs="${2:-5}"
shift $(($# < 2 ? $# : 2))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(ll_chase mb_rw compute_mix tenant_churn node_ops)
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

dir="${PAIRS_DIR:-$root/target/pairs}"
case "$dir" in /*) ;; *) dir="$PWD/$dir" ;; esac
rm -rf "$dir/parent" "$dir/change"
mkdir -p "$dir/parent" "$dir/change" "$dir/runs"
git -C "$root" archive "$parent" | tar -x -C "$dir/parent"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null -T - -cf - 2>/dev/null) | tar -x -C "$dir/change"
change="$(git -C "$root" rev-parse HEAD)"
git -C "$root" diff --quiet HEAD && [ -z "$(git -C "$root" ls-files --others --exclude-standard)" ] ||
    change="$change+worktree"

for side in parent change; do
    echo "pairs: building $side" >&2
    cargo build --quiet --release --offline --locked \
        --manifest-path "$dir/$side/benchmarks/perf/Cargo.toml" --target-dir "$dir/$side/target/perfbench"
done

rm -f "$dir/runs/"*.out
for w in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        order=(parent change)
        [ $((i % 2)) -eq 0 ] && order=(change parent)
        for side in "${order[@]}"; do
            echo "pairs: $w pair $i/$pairs $side" >&2
            CARGO_TARGET_DIR="$dir/$side/target/perfbench" "$dir/$side/benchmarks/perf/run.sh" \
                --workload "$w" --seed 1 --seconds "$seconds" --trace 0 \
                >"$dir/runs/$w.$i.$side.out" || echo "pairs: $w pair $i $side exited non-zero" >&2
        done
    done
done

mkdir -p "$root/benchmarks/pairs"
out="$root/benchmarks/pairs/${parent:0:12}.json"
python3 - "$root/BENCHMARK.json" "$dir/runs" "$parent" "$change" "$pairs" "$seconds" "$out" "${workloads[@]}" <<'EOF'
import json, math, os, platform, statistics, sys

bench, runs, parent, change, pairs, seconds, out, *workloads = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench))["end_to_end"]


def read(workload, i, side):
    """The run's result object and the fingerprint it printed."""
    result, fingerprint = None, None
    for line in open(os.path.join(runs, f"{workload}.{i}.{side}.out")):
        words = line.split()
        if len(words) == 4 and words[1] == "sim_fingerprint":
            fingerprint = words[2]
        if line.startswith("{"):
            result = json.loads(line)
    return result, fingerprint


def sign_interval(ratios):
    """Distribution-free interval for the median ratio: order statistics
    k and n+1-k, with k the largest rank keeping coverage >= 90 % (k = 1,
    the full range, when n is too small for 90 %). Returns lo, hi and the
    interval's binomial coverage."""
    n = len(ratios)
    xs = sorted(ratios)
    tail = lambda k: sum(math.comb(n, j) for j in range(k)) / 2**n
    k = 1
    while k + 1 <= (n + 1) // 2 and 1 - 2 * tail(k + 1) >= 0.9:
        k += 1
    return xs[k - 1], xs[n - k], 1 - 2 * tail(k)


doc = {
    "parent": parent,
    "change": change,
    "command": f"benchmarks/perf/run.sh --workload W --seed 1 --seconds {seconds} --trace 0",
    "pairs": pairs,
    "host": {"nproc": os.cpu_count(), "machine": platform.machine()},
    "workloads": {},
}
for w in workloads:
    sides = {s: [read(w, i, s) for i in range(1, pairs + 1)] for s in ("parent", "change")}
    entry = {
        "fingerprints": {s: sorted({fp for _, fp in v if fp}) for s, v in sides.items()},
        "failed": {s: sum((r or {}).get("failed", 1) for r, _ in v) for s, v in sides.items()},
        "metrics": {},
    }
    for m in metrics:
        name = m["name"]
        vals = {
            s: [(r or {}).get("metrics", {}).get(name, {}).get("value") for r, _ in v]
            for s, v in sides.items()
        }
        if any(x is None for v in vals.values() for x in v):
            continue
        higher = m["better"] == "higher"
        ratios = [c / p for p, c in zip(vals["parent"], vals["change"]) if p]
        better = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        row = {
            "unit": m["unit"],
            "better": m["better"],
            "parent_median": statistics.median(vals["parent"]),
            "change_median": statistics.median(vals["change"]),
            "change_better_pairs": better,
        }
        if ratios:
            lo, hi, coverage = sign_interval(ratios)
            row.update(
                ratio_median=statistics.median(ratios),
                ratio_interval=[lo, hi],
                interval_coverage=round(coverage, 4),
            )
        entry["metrics"][name] = row
    doc["workloads"][w] = entry
with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
for w, e in doc["workloads"].items():
    r = e["metrics"].get("sim_rate_mcps", {})
    print(
        f"{w}: sim_rate_mcps {r.get('parent_median', 0):.3g} -> {r.get('change_median', 0):.3g}"
        f" (ratio {r.get('ratio_median', 0):.3f}, interval {r.get('ratio_interval')},"
        f" better in {r.get('change_better_pairs')}/{pairs}); fingerprints {e['fingerprints']}"
    )
print(f"wrote {out}")
EOF
