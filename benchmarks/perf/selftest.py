"""Validates one perfbench run (stdin) against BENCHMARK.json.

usage: selftest.py BENCHMARK.json WORKLOAD TRACE < output
"""
import json
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def main():
    bench = json.load(open(sys.argv[1]))
    workload, trace = sys.argv[2], sys.argv[3]
    lines = sys.stdin.read().splitlines()
    errors = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"checks failed: {result['failed']} of {result['attempted']}")
    section = bench["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"metric names/units differ from BENCHMARK.json: {set(got) ^ set(want)}")
    for name, m in result["metrics"].items():
        if not NAME.match(name):
            errors.append(f"malformed metric name {name!r}")
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            errors.append(f"metric {name} is not {{value, unit}}")
    listed = {m["name"] for m in bench["end_to_end"]} | {m["name"] for m in bench["per_layer"]}
    # Human lines: `workload metric value unit ...`; span and bookkeeping
    # lines carry their own prefixes and are not metrics.
    extra = ("span.", "fail_ratio", "sim_fingerprint", "budget_cycles", "timed_section", "sim_dma_lat_samples", "ctl_round_ms_tail", "FAILED")
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) < 4 or parts[0] != workload:
            errors.append(f"unparseable line {line!r}")
        elif not parts[1].startswith(extra) and not (parts[1] in listed and NAME.match(parts[1])):
            errors.append(f"metric {parts[1]} is not in BENCHMARK.json")
    if trace == "0" and workload in [w["name"] for w in bench["workloads"]]:
        zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
        if zero:
            errors.append(f"end-to-end metrics read 0: {zero}")
    for e in errors:
        print(f"selftest: {workload} --trace {trace}: {e}", file=sys.stderr)
    sys.exit(1 if errors else 0)


main()
