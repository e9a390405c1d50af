#!/usr/bin/env python3
"""Offline report checks for scripts/ci.sh: `benchcheck.py <check> ARGS...`.

Every check prints `ok: ...` lines and exits non-zero with `FAIL: ...` on
the first violation. Reports are the BENCH_<bench>.json files (and their
TRACE_/PROM_/SLO_ siblings) the bench targets write into a directory.
"""
import glob, json, os, re, sys

# Wall-clock-dependent report fields: never part of a fingerprint.
VOLATILE = ("wall_secs", "sim_rate", "wall_points")


def fail(msg):
    sys.exit(f"FAIL: {msg}")


def report(directory, bench="fig5_latency", kind="BENCH", ext="json"):
    return f"{directory}/{kind}_{bench}.{ext}"


def load(path):
    with open(path) as f:
        return json.load(f)


def fingerprint(report, extra_volatile=()):
    """Everything a run measured, minus wall-clock fields and the sections
    in `extra_volatile` (a recording plane's own output)."""
    skip = VOLATILE + tuple(extra_volatile)
    return json.dumps({k: v for k, v in report.items() if k not in skip}, sort_keys=True)


def same(a, b, what, extra_volatile=()):
    if fingerprint(load(a), extra_volatile) != fingerprint(load(b), extra_volatile):
        fail(f"{what} changed the bench fingerprint ({a} vs {b})")
    print(f"ok: fingerprint byte-identical: {what}")


def deps():
    """Hermetic build: every Cargo dependency is an in-tree path."""
    section = re.compile(r"^\[(?:workspace\.)?(?:dependencies|dev-dependencies|build-dependencies)"
                         r"(?:\.[A-Za-z0-9_-]+)?\]$")
    offenders = []
    for path in sorted(glob.glob("Cargo.toml") + glob.glob("crates/*/Cargo.toml")):
        in_deps = False
        for lineno, raw in enumerate(open(path), 1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if line.startswith("["):
                in_deps = bool(section.match(line.strip()))
            elif in_deps and (
                # `name = "1.0"`, or a table naming a version/git/registry
                # source, or anything that is neither a path nor a
                # workspace reference.
                re.match(r'^\s*[A-Za-z0-9_-]+\s*=\s*"', line)
                or re.search(r"\b(version|git|registry)\s*=", line)
                or ("path" not in line and "workspace" not in line)
            ):
                offenders.append(f"  {path}:{lineno}: {line.strip()}")
    if offenders:
        fail("registry-style dependencies found (the workspace must stay hermetic):\n"
             + "\n".join(offenders))
    print("ok: all dependencies are in-tree path dependencies")


def chrome_trace(directory):
    """The exported Chrome trace is well-formed, complete, and cycle-monotone;
    the aggregate counts beside it come from the metrics plane."""
    events = load(report(directory, kind="TRACE"))["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    names = {e.get("name") for e in events}
    missing = [n for n in ("mmio_trap", "iotlb_miss", "page_walk", "mux_grant") if n not in names]
    if not any(isinstance(n, str) and n.startswith("preempt.") for n in names):
        missing.append("preempt.*")
    if missing:
        fail(f"trace lacks required event classes: {missing}")
    if not any(e.get("ph") == "M" and e.get("name") == "thread_name" for e in events):
        fail("no thread_name metadata tracks")
    last = -1
    for e in events:
        if e.get("ph") == "M":
            continue
        for field in ("ph", "pid", "tid", "ts", "name", "args"):
            if field not in e:
                fail(f"event missing {field}: {e}")
        if e["args"]["cycle"] < last:
            fail(f"cycle stamps not monotone: {e['args']['cycle']} after {last}")
        last = e["args"]["cycle"]
    print(f"ok: trace JSON valid ({len(events)} events, {len(names)} distinct names)")
    traps = sum(s.get("value", 0) for s in load(report(directory)).get("metrics", [])
                if (s["layer"], s["name"]) == ("hv", "mmio_traps"))
    if not traps:
        fail("traced BENCH json counts no hv/mmio_traps in its metrics section")
    print(f"ok: metrics section beside the trace counts {traps} MMIO traps")


def prometheus(directory):
    """The Prometheus exposition parses, declares every sample, repeats none."""
    sample = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+"
                        r"(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|NaN|[+-]Inf)$")
    declared, seen = set(), set()
    path = report(directory, kind="PROM", ext="prom")
    for lineno, raw in enumerate(open(path), 1):
        line, where = raw.rstrip("\n"), f"{path}:{lineno}"
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                fail(f"{where}: malformed TYPE line: {line}")
            declared.add(parts[2])
        elif line and not line.startswith("#"):
            m = sample.match(line)
            if not m:
                fail(f"{where}: unparseable sample: {line}")
            name, labels = m.group(1), m.group(2) or ""
            if name not in declared and re.sub(r"_(bucket|count|sum|min|max)$", "", name) not in declared:
                fail(f"{where}: sample without TYPE declaration: {name}")
            if (name, labels) in seen:
                fail(f"{where}: duplicate series: {name}{labels}")
            seen.add((name, labels))
    if not seen:
        fail(f"{path} contains no samples")
    print(f"ok: Prometheus exposition valid ({len(seen)} series, {len(declared)} metrics)")


def monotone(short_dir, long_dir):
    """Every counter (and histogram count) after the short window exists
    after the long one with a value at least as large."""
    def counters(rep):
        out = {}
        for s in rep["metrics"]:
            if s["name"] == "fairness_jain":  # the one gauge may move either way
                continue
            key = tuple(sorted((k, v) for k, v in s.items()
                               if k not in ("value", "count", "sum", "min", "max", "buckets")))
            if "value" in s:
                out[key] = s["value"]
            elif "count" in s:
                out[key + ("hist",)] = s["count"]
        return out
    early, late = counters(load(report(short_dir))), counters(load(report(long_dir)))
    regressed = [k for k, v in early.items() if late.get(k, 0) < v]
    if regressed:
        fail(f"counters regressed between window lengths: {regressed[:5]}")
    print(f"ok: {len(early)} counter series monotone across window lengths")


def slo(directory):
    """The standalone SLO report matches its schema and the embedded section."""
    doc = load(report(directory, kind="SLO"))
    if doc.get("schema") != "optimus-testkit/slo-report/v1" or doc.get("bench") != "fig5_latency":
        fail(f"SLO report header wrong: {doc.get('schema')} / {doc.get('bench')}")
    body = doc["slo"]
    if body["jobs"] < 1 or not body["tenants"]:
        fail("SLO report recorded no jobs")
    dists = ("e2e_cycles", "queue_cycles", "install_cycles", "compute_cycles",
             "preempt_cycles", "share_stall_cycles")
    counts = ("submitted", "completed", "evicted", "in_flight")
    for t in body["tenants"]:
        who = f"tenant {t.get('tenant')}"
        for field in ("tenant", "payload_bytes", "goodput_bytes_per_sec") + counts + dists:
            if field not in t:
                fail(f"{who} missing field {field}")
        if t["submitted"] != t["completed"] + t["evicted"] + t["in_flight"]:
            fail(f"{who} episode counts do not add up")
        for d in dists:
            if any(f not in t[d] for f in ("count", "p50", "p95", "p99", "mean", "max")):
                fail(f"{who} {d} incomplete")
            if not t[d]["p50"] <= t[d]["p95"] <= t[d]["p99"] <= t[d]["max"]:
                fail(f"{who} {d} percentiles not ordered")
        if t["completed"] and t["e2e_cycles"]["count"] != t["completed"]:
            fail(f"{who} e2e count != completed")
    if body != load(report(directory))["slo"]:
        fail("standalone SLO report differs from the embedded slo section")
    print(f"ok: SLO report valid ({body['jobs']} jobs, {len(body['tenants'])} tenants)")


def rate_bound(what, on_dirs, off_dirs, bound=0.95):
    """A default-on plane is cheap: best-of-two sim_rate with it on stays
    within 5 % of best-of-two with it off."""
    best = lambda dirs: max(load(report(d))["sim_rate"] for d in dirs)
    ratio = best(on_dirs) / best(off_dirs)
    if ratio < bound:
        fail(f"{what}-on sim_rate is {ratio:.1%} of {what}-off (bound: {bound:.0%})")
    print(f"ok: {what} overhead within bound (on/off sim_rate ratio {ratio:.1%})")


VALIDATORS = {"chrome-trace": chrome_trace, "prometheus": prometheus, "slo": slo}


def plane(name, prefix, validator, *own):
    """One recording plane's CI contract over the runs `<prefix>-{on,off}`
    (plus `-warm`, `-on2`, `-off2` for a default-on plane): its own report
    sections appear when it is on and its first one vanishes when off, it is
    invisible to every other figure, its output is deterministic and
    validates, and (default-on planes) it costs at most 5 %."""
    on, off = load(report(f"{prefix}-on")), load(report(f"{prefix}-off"))
    missing = [s for s in own if on.get(s) in (None, [], {})]
    if missing or (own and own[0] in off):
        fail(f"{name}: own sections {own} missing when on ({missing}) or {own[0]} present when off")
    same(report(f"{prefix}-on"), report(f"{prefix}-off"), f"{name} plane on vs off", own)
    if validator in VALIDATORS:
        VALIDATORS[validator](f"{prefix}-on")
    if os.path.isdir(f"{prefix}-on2"):
        on2 = load(report(f"{prefix}-on2"))
        if any(on[s] != on2[s] for s in own):
            fail(f"{name}: own sections differ between identical runs")
        print(f"ok: {name} sections deterministic run to run")
        if validator == "prometheus":
            monotone(f"{prefix}-warm", f"{prefix}-on")
        rate_bound(name, (f"{prefix}-on", f"{prefix}-on2"), (f"{prefix}-off", f"{prefix}-off2"))


def baseline(run1, run2):
    """Best-of-two sim_rate vs the committed baselines: fail on >20 % loss."""
    failed = False
    for bench, short in (("fig5_latency", "fig5"), ("fig8_temporal", "fig8"),
                         ("cluster_scale", "cluster_scale"), ("fig7_realworld", "fig7")):
        base = load(f"benchmarks/BENCH_{short}.json")["sim_rate"]
        best = max(load(report(d, bench))["sim_rate"] for d in (run1, run2))
        ratio = best / base
        verdict = "FAIL" if ratio < 0.8 else "ok"
        failed |= ratio < 0.8
        print(f"{verdict}: {bench}: best-of-two {best/1e6:.2f} Mc/s vs baseline "
              f"{base/1e6:.2f} Mc/s ({ratio:.2f}x; bound 0.80x)")
    if failed:
        sys.exit(1)


def rebalance(directory):
    """Watchdog-driven migration restores fairness and clears the alerts."""
    rows = {r[0]: r for r in load(report(directory, "migrate_rebalance"))["tables"][0]["rows"]}
    before, after = rows["before"], rows["after"]
    if not float(after[3]) > float(before[3]):
        fail(f"grant Jain did not recover ({before[3]} -> {after[3]})")
    if int(after[4]) != 0:
        fail(f"starvation alerts persisted after rebalance ({after[4]})")
    print(f"ok: fairness recovered (Jain {before[3]} -> {after[3]}, alerts {before[4]} -> 0)")


def pipeline(directory):
    """The zero-copy channel beats CPU staging and stages nothing."""
    rows = {r[0]: r for r in load(report(directory, "pipeline_handoff"))["tables"][0]["rows"]}
    zero, copy = rows["zero-copy"], rows["copy"]
    if not int(zero[1]) < int(copy[1]):
        fail(f"zero-copy ({zero[1]} cycles) did not beat copy ({copy[1]})")
    if float(zero[3]) != 0.0 or float(copy[3]) <= 0.0:
        fail(f"staged-bytes columns wrong ({zero[3]} / {copy[3]})")
    print(f"ok: zero-copy handoff beats CPU staging ({zero[1]} vs {copy[1]} cycles, "
          f"{copy[3]} MiB staged)")


CHECKS = {f.__name__.replace("_", "-"): f for f in (
    deps, same, chrome_trace, prometheus, monotone, slo, plane, baseline, rebalance, pipeline)}
CHECKS["rate-bound"] = lambda what, on, on2, off, off2: rate_bound(what, (on, on2), (off, off2))

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: benchcheck.py {{{'|'.join(sorted(CHECKS))}}} ARGS...")
    CHECKS[sys.argv[1]](*sys.argv[2:])
