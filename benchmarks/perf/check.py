"""Repeatability check behind check.sh (see its header)."""
import json
import os
import statistics
import subprocess
import sys

SETS, RUNS_PER_SET = 2, 3
# Traced runs per workload; the baseline keeps each per-layer median. (A
# traced run compares passes a few seconds apart, so one run's ratios
# carry whatever the host did in between.)
TRACED_RUNS = 3
# BENCHMARK.json can only carry a relative bound; a set-up of a few
# milliseconds may also move by this many seconds before it counts.
SETUP_FLOOR_S = 0.05


def run(binary, args):
    r = subprocess.run([binary] + args, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    field = lambda name: next((l.split()[2] for l in lines if f" {name} " in l), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is not None:
        result["budget_cycles"] = int(field("budget_cycles") or 0)
    return r.returncode, result, field("sim_fingerprint"), r.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    root, binary, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    seed, only, record = "1", None, False
    while rest:
        flag = rest.pop(0)
        if flag == "--seed":
            seed = rest.pop(0)
        elif flag == "--workload":
            only = rest.pop(0)
        elif flag == "--record":
            record = True
        else:
            sys.exit(f"check.sh: unknown argument {flag}")
    seconds = str(bench["run_seconds"])
    defs = {m["name"]: m for m in bench["end_to_end"]}
    failures, baseline = [], {}
    recorded = recorded_fingerprints(root, bench, seed)
    for w in [w["name"] for w in bench["workloads"]]:
        if only and w != only:
            continue
        base = ["--workload", w, "--seed", seed, "--seconds", seconds]
        runs = []
        for _ in range(SETS * RUNS_PER_SET):
            code, result, fp, out = run(binary, base + ["--trace", "0"])
            if code != 0 or result is None:
                failures.append(f"{w}: untraced run exited {code}")
                print(out[-2000:], file=sys.stderr)
                continue
            runs.append((result, fp))
        if len(runs) < SETS * RUNS_PER_SET:
            continue
        # Simulated statistics, check counts and fingerprint: identical.
        first, fp0 = runs[0]
        for result, fp in runs[1:]:
            if fp != fp0:
                failures.append(f"{w}: sim_fingerprint {fp} != {fp0}")
            if (result["attempted"], result["failed"]) != (first["attempted"], first["failed"]):
                failures.append(f"{w}: check counts differ between runs")
            for name, m in result["metrics"].items():
                if name.startswith("sim_") and name != "sim_rate_mcps":
                    if m["value"] != first["metrics"][name]["value"]:
                        failures.append(f"{w}: {name} differs between runs of one seed")
        # Host metrics: the two sets' medians agree within the bound.
        rows = {}
        for name, d in defs.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            a = statistics.median(values[:RUNS_PER_SET])
            b = statistics.median(values[RUNS_PER_SET:])
            worse = (b - a) / a if d["better"] == "lower" else (a - b) / a
            if name == "setup_s" and b - a <= SETUP_FLOOR_S:
                worse = 0.0
            if worse > d["bound"]:
                failures.append(f"{w}: {name} second set {b:.6g} worse than first {a:.6g} by {worse:.1%} > {d['bound']:.0%}")
            q1, q3 = quartiles(values)
            rows[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "unit": d["unit"]}
            print(f"{w:13s} {name:26s} median {rows[name]['median']:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} {d['unit']}")
        # Traced runs: their own checks compare traced/untraced/toggled
        # passes, and their passes are the size of an untraced run's replays.
        layers = {}
        for _ in range(TRACED_RUNS):
            code, traced, fpt, out = run(binary, base + ["--trace", "1"])
            if code != 0 or traced is None:
                failures.append(f"{w}: traced run exited {code}")
                print(out[-2000:], file=sys.stderr)
                continue
            if fpt != fp0:
                failures.append(f"{w}: traced sim_fingerprint {fpt} != untraced {fp0}")
            for name, m in traced["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
        # A simulator-only change leaves the recorded fingerprint alone.
        if not record and recorded.get(w) not in (None, fp0):
            failures.append(f"{w}: sim_fingerprint {fp0} is not the recorded {recorded[w]}: "
                            "the model changed; say so and re-record with --record")
        if w == "node_ops":
            code, _, fp1, _ = run(binary, base + ["--trace", "0", "--threads", "1"])
            if code != 0 or fp1 != fp0:
                failures.append(f"{w}: 1-thread fingerprint {fp1} != {fp0}")
        baseline[w] = {
            "sim_fingerprint": fp0,
            "budget_cycles": first["budget_cycles"],
            "attempted": first["attempted"],
            "failed": first["failed"],
            "end_to_end": rows,
            # A name the workload does not measure reads 0 and is left out.
            "per_layer": {n: statistics.median(v) for n, v in layers.items() if any(v)},
        }
    for f in failures:
        print(f"check.sh: FAIL {f}", file=sys.stderr)
    if record and not failures and not only:
        record_baseline(root, binary, bench, seed, baseline)
    print("check.sh: " + ("FAILED" if failures else "ok"), file=sys.stderr)
    sys.exit(1 if failures else 0)


def recorded_fingerprints(root, bench, seed):
    """sim_fingerprint per workload from baseline/BASELINE.json, if it was
    recorded at this seed and run length."""
    try:
        doc = json.load(open(os.path.join(root, "benchmarks/perf/baseline/BASELINE.json")))
    except OSError:
        return {}
    if str(doc.get("seed")) != seed or doc.get("run_seconds") != bench["run_seconds"]:
        return {}
    return {w: b["sim_fingerprint"] for w, b in doc["workloads"].items()}


def record_baseline(root, binary, bench, seed, baseline):
    """Writes baseline/BASELINE.json, with one run per workload on a
    second seed to record that ranking and correctness hold there too."""
    second = str(int(seed) + 1)
    other = {}
    for w in baseline:
        code, result, fp, _ = run(binary, ["--workload", w, "--seed", second, "--seconds", str(bench["run_seconds"]), "--trace", "0"])
        other[w] = {
            "exit": code,
            "failed": result["failed"] if result else None,
            "sim_rate_mcps": result["metrics"]["sim_rate_mcps"]["value"] if result else None,
            "sim_fingerprint": fp,
        }
    rank = lambda rates: sorted(rates, key=lambda w: -rates[w])
    first_rank = rank({w: b["end_to_end"]["sim_rate_mcps"]["median"] for w, b in baseline.items()})
    second_rank = rank({w: o["sim_rate_mcps"] or 0 for w, o in other.items()})
    sh = lambda *cmd: subprocess.run(cmd, capture_output=True, text=True, cwd=root).stdout.strip()
    doc = {
        "host": {"nproc": os.cpu_count(), "rustc": sh("rustc", "--version"), "commit": sh("git", "rev-parse", "HEAD")},
        "run_seconds": bench["run_seconds"],
        "seed": int(seed),
        "runs_per_workload": SETS * RUNS_PER_SET,
        "traced_runs_per_workload": TRACED_RUNS,
        "workloads": baseline,
        "second_seed": {
            "seed": int(second),
            "runs": other,
            "ranking_by_sim_rate": {"first_seed": first_rank, "second_seed": second_rank, "holds": first_rank == second_rank},
            "fail_ratio_zero": all(o["failed"] == 0 and o["exit"] == 0 for o in other.values()),
        },
    }
    path = os.path.join(root, "benchmarks/perf/baseline/BASELINE.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    json.dump(doc, open(path, "w"), indent=1, sort_keys=True)
    print(f"check.sh: wrote {path}", file=sys.stderr)


main()
