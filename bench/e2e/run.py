#!/usr/bin/env python3
"""End-to-end benchmark runner (bench/e2e).

Builds the griphon_e2e harness into build-e2e/ and turns its runs into
metrics. Every mode builds first and exits non-zero on any failed check.

One workload, for a fixed wall-clock budget (the interface BENCHMARK.json
names):

    bench/e2e/run.py --workload churn --seed 7 --seconds 25 --trace 0

  Repeats runs of the workload, cycling through four input sets derived
  from the seed, until the budget is spent and reports the median of each
  end-to-end metric (--trace 0) or one traced run's per-layer metrics
  (--trace 1). The last line of output is one JSON object:
  {"correct", "attempted", "failed", "metrics"}.

All workloads, interleaved:

    bench/e2e/run.py [--repeat K] [--seed N] [--size full|smoke]
                     [--trace] [--out bench_e2e.json]

  Prints median and quartiles of every metric per workload and writes them
  to --out. --trace adds one traced run per workload, checks it against
  the timed runs and validates its trace with tools/validate_trace.py.

    bench/e2e/run.py --compare A.json B.json
    bench/e2e/run.py --self-test
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "griphon_e2e"
VALIDATE_TRACE = ROOT / "tools" / "validate_trace.py"
WORKLOADS = ("churn", "storm", "bod", "reopt")
DEFAULT_SEED = 20110804
RUN_TIMEOUT_S = 170
INPUT_SETS = 4  # per --workload invocation

# Service metrics reported beside the BENCHMARK.json set. They apply to
# some workloads only, so the one-workload result cannot carry them; --compare
# still holds them to these bounds: relative share, or percentage points
# for the _pct metrics.
EXTRA_BOUNDS = {
    "blocking_pct": ("lower", 0.25, "pp"),
    "error_pct": ("lower", 0.25, "pp"),
    "unrestored_pct": ("lower", 0.25, "pp"),
    "deadline_met_pct": ("higher", 0.25, "pp"),
    "restore_p50_s": ("lower", 0.01, "rel"),
    "restore_p95_s": ("lower", 0.01, "rel"),
}


def log(*args) -> None:
    print(*args, file=sys.stderr, flush=True)


# --- statistics ---------------------------------------------------------------

def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile of `values` (failures enter as +inf and sort
    last). None when fewer than ten samples lie beyond it: a percentile is
    reported only where the sample supports it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if min(values) == max(values):  # one run, or an exact sim value (even inf)
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metrics_of(raw: dict) -> dict:
    """Flatten one harness run: scalars as they are, sample sets as their
    percentiles plus the sample count."""
    out = {}
    for name, s in raw["scalars"].items():
        out[name] = {"value": s["value"], "unit": s["unit"], "kind": s["kind"]}
    for s in raw["samples"].values():
        values = s["values"]
        for metric, q in s["quantiles"].items():
            out[metric] = {"value": percentile(values, q), "unit": s["unit"],
                           "kind": s["kind"]}
        out[s["n_name"]] = {"value": len(values), "unit": "count",
                            "kind": s["kind"]}
    return out


def sim_view(run: dict) -> dict:
    """What must repeat exactly for one seed: simulated-clock metrics and
    the device-state digest."""
    view = {k: v["value"] for k, v in run["metrics"].items()
            if v["kind"] == "sim"}
    view["digest"] = run["raw"]["texts"]["digest"]
    return view


def sim_diff(a: dict, b: dict) -> list[str]:
    va, vb = sim_view(a), sim_view(b)
    return [f"{k}: {va.get(k)!r} != {vb.get(k)!r}"
            for k in sorted(set(va) | set(vb)) if va.get(k) != vb.get(k)]


# --- build and run ------------------------------------------------------------

def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("run.py: no src/ next to bench/e2e; nothing to build")
        sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", str(BUILD), "-j", jobs,
          "--target", "griphon_e2e"])


def step(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log(f"run.py: build step failed: {' '.join(cmd)}")
        sys.exit(1)


def run_once(workload: str, seed: int, size: str, trace: bool) -> dict:
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--size", size] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    raw = json.loads(lines[-1])
    failures = [f"{k}: {v['detail']}" for k, v in raw["checks"].items()
                if not v["ok"]]
    if proc.returncode != 0 and not failures:
        failures.append(f"exit code {proc.returncode}")
    return {"workload": workload, "seed": seed, "size": size, "trace": trace,
            "raw": raw, "metrics": metrics_of(raw), "failures": failures}


def validate_trace(workload: str) -> list[str]:
    path = ROOT / f"trace_e2e_{workload}.json"
    proc = subprocess.run([sys.executable, str(VALIDATE_TRACE), str(path)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode == 0:
        return []
    return [f"{path.name}: " + line
            for line in proc.stdout.strip().splitlines()[-5:]]


def trace_overhead_pct(untraced: list[dict], traced: dict) -> float:
    base = statistics.median(r["metrics"]["ops_per_s"]["value"]
                             for r in untraced)
    return 100.0 * (base / traced["metrics"]["ops_per_s"]["value"] - 1.0)


def check_traced(untraced: list[dict], traced: dict) -> list[str]:
    problems = [f"traced run: {f}" for f in traced["failures"]]
    problems += [f"traced vs untraced: {d}"
                 for d in sim_diff(untraced[0], traced)]
    return problems + validate_trace(traced["workload"])


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


# --- one workload, as BENCHMARK.json runs it -----------------------------------

def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def one_workload(args) -> int:
    """Timed runs cycle through INPUT_SETS input sets derived from --seed, so
    one unusual set of inputs moves the medians less. Simulated-clock
    metrics are the median over the input sets, one value each; wall-clock
    metrics the median over every run."""
    bench = load_benchmark()
    build()
    seeds = [args.seed * INPUT_SETS + k for k in range(INPUT_SETS)]
    runs: list[dict] = []
    traced = None
    t0 = time.monotonic()
    while True:
        if args.trace == 1 and traced is None and runs:
            traced = run_once(args.workload, seeds[0], args.size, True)
        else:
            runs.append(run_once(args.workload, seeds[len(runs) % len(seeds)],
                                 args.size, False))
        done = len(runs) + (traced is not None)
        elapsed = time.monotonic() - t0
        if (args.trace == 0 or traced is not None) and \
                elapsed + elapsed / done > args.seconds:
            break

    problems = [f for r in runs for f in r["failures"]]
    first = {}  # seed -> its first run
    for i, r in enumerate(runs, 1):
        base = first.setdefault(r["seed"], r)
        problems += [f"run {i}: {d}" for d in sim_diff(base, r)]
    every = runs + ([traced] if traced else [])
    attempted = sum(int(r["metrics"]["records"]["value"]) for r in every)
    failed = sum(int(r["metrics"]["errors"]["value"]) for r in every)

    print(f"# {args.workload}, seed {args.seed} (input sets "
          f"{', '.join(str(s) for s in first)}), {len(runs)} timed run(s)"
          + (", 1 traced run" if traced else ""))
    summary = {}
    for name, m in runs[0]["metrics"].items():
        pool = first.values() if m["kind"] == "sim" else runs
        values = [r["metrics"][name]["value"] for r in pool]
        value = statistics.median(values) if None not in values else None
        summary[name] = {"value": value, "unit": m["unit"]}
        print(f"{name:40s} {fmt(value):>14s} {m['unit']}")
    if traced:
        same = [r for r in runs if r["seed"] == traced["seed"]]
        problems += check_traced(same, traced)
        layer = dict(traced["metrics"])
        layer["trace.overhead_pct"] = {
            "value": trace_overhead_pct(same, traced), "unit": "%",
            "kind": "layer"}
        for name, m in sorted(layer.items()):
            if m["kind"] == "layer":
                print(f"{name:40s} {fmt(m['value']):>14s} {m['unit']}")

    wanted = bench["per_layer"] if args.trace == 1 else bench["end_to_end"]
    metrics = {}
    source = layer if args.trace == 1 else summary
    for spec in wanted:
        value = source.get(spec["name"], {"value": None})["value"]
        if value is None and spec["name"] not in source and \
                spec["unit"] in ("count", "ratio", "%", "score"):
            value = 0.0  # a layer this workload never calls did no work
        if value is None:
            problems.append(f"{spec['name']}: missing or too few samples")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


# --- all workloads ------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                exe = line.split("=", 1)[1]
                proc = subprocess.run([exe, "--version"], capture_output=True,
                                      text=True)
                compiler = proc.stdout.splitlines()[0] if proc.stdout else exe
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        if None in values:
            out[name] = {"median": None, "q1": None, "q3": None,
                         "unit": m["unit"], "kind": m["kind"]}
            continue
        q1, med, q3 = quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                     "kind": m["kind"]}
    return out


def suite(args) -> int:
    build()
    runs = {w: [] for w in WORKLOADS}
    problems = []
    for i in range(args.repeat):
        for w in WORKLOADS:
            log(f"[{i + 1}/{args.repeat}] {w}")
            r = run_once(w, args.seed, args.size, False)
            runs[w].append(r)
            problems += [f"{w}: {f}" for f in r["failures"]]
            problems += [f"{w} repeat {i + 1}: {d}"
                         for d in sim_diff(runs[w][0], r)]
    report = {"meta": machine(),
              "config": {"seed": args.seed, "size": args.size,
                         "repeat": args.repeat},
              "workloads": {}}
    for w in WORKLOADS:
        entry = {"metrics": summarize(runs[w]),
                 "digest": runs[w][0]["raw"]["texts"]["digest"],
                 "errors": runs[w][0]["raw"]["errors"]}
        if args.trace:
            log(f"[traced] {w}")
            traced = run_once(w, args.seed, args.size, True)
            problems += [f"{w}: {p}" for p in check_traced(runs[w], traced)]
            layer = {k: {"value": v["value"], "unit": v["unit"]}
                     for k, v in traced["metrics"].items()
                     if v["kind"] == "layer"}
            layer["trace.overhead_pct"] = {
                "value": trace_overhead_pct(runs[w], traced), "unit": "%"}
            entry["layers"] = layer
        report["workloads"][w] = entry

    for w, entry in report["workloads"].items():
        print(f"\n== {w} (seed {args.seed}, {args.size}, "
              f"{args.repeat} run(s)) ==")
        print(f"{'metric':40s} {'median':>14s} {'q1':>12s} {'q3':>12s}  unit")
        for name, m in entry["metrics"].items():
            print(f"{name:40s} {fmt(m['median']):>14s} {fmt(m['q1']):>12s} "
                  f"{fmt(m['q3']):>12s}  {m['unit']}")
        for name, m in sorted(entry.get("layers", {}).items()):
            print(f"{name:40s} {fmt(m['value']):>14s} "
                  f"{'':>12s} {'':>12s}  {m['unit']}")
        if entry["errors"]:
            print(f"errors: {entry['errors']}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return 0 if not problems else 1


# --- comparing two result files ------------------------------------------------

def bounds() -> dict:
    """metric -> (better, bound, "rel"|"pp") for every compared metric."""
    out = {m["name"]: (m["better"], m["bound"], "rel")
           for m in load_benchmark()["end_to_end"]}
    out.update(EXTRA_BOUNDS)
    return out


def verdict(a: float, b: float, better: str, bound: float, mode: str,
            sim: bool) -> str:
    """Judge B against baseline A: 'sim-mismatch' when a simulated-clock
    metric of the same seed differs at all, 'regression' when B is worse by
    more than the bound, else 'ok'."""
    if sim and a != b:
        return "sim-mismatch"
    worse = (b - a) if better == "lower" else (a - b)
    if mode == "rel":
        worse = worse / abs(a) if a else (math.inf if worse > 0 else 0.0)
    return "regression" if worse > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    same_inputs = a["config"]["seed"] == b["config"]["seed"] and \
        a["config"]["size"] == b["config"]["size"]
    failures = 0
    print(f"{'workload':8s} {'metric':24s} {'A':>14s} {'B':>14s}  verdict")
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        ma, mb = a["workloads"][w]["metrics"], b["workloads"][w]["metrics"]
        for name, (better, bound, mode) in bounds().items():
            if name not in ma or name not in mb:
                continue
            va, vb = ma[name]["median"], mb[name]["median"]
            if va is None or vb is None:
                continue
            v = verdict(va, vb, better, bound, mode,
                        same_inputs and ma[name]["kind"] == "sim")
            failures += v != "ok"
            print(f"{w:8s} {name:24s} {fmt(va):>14s} {fmt(vb):>14s}  {v}")
        if same_inputs and a["workloads"][w]["digest"] != \
                b["workloads"][w]["digest"]:
            failures += 1
            print(f"{w:8s} {'digest':24s} {'':>14s} {'':>14s}  sim-mismatch")
    return 1 if failures else 0


# --- self-test ------------------------------------------------------------------

def self_test() -> int:
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, want {want!r}")

    inf = math.inf
    expect("median of 1..100", percentile(list(range(1, 101)), 0.5), 50)
    expect("p99 of 1000 samples", percentile(list(range(1, 1001)), 0.99), 990)
    expect("p99 of 999 samples (9 beyond)",
           percentile(list(range(1, 1000)), 0.99), None)
    expect("p95 of 199 samples", percentile(list(range(199)), 0.95), None)
    expect("median of 19 samples", percentile(list(range(19)), 0.5), None)
    expect("p99 with 20 failures in 1000",
           percentile([1.0] * 980 + [inf] * 20, 0.99), inf)
    expect("p99 with 5 failures in 1000",
           percentile([float(i) for i in range(995)] + [inf] * 5, 0.99),
           989.0)
    expect("median with failures", percentile([inf] * 30 + [2.0] * 20, 0.5),
           inf)
    expect("verdict: throughput -20% vs 10% bound",
           verdict(100.0, 80.0, "higher", 0.10, "rel", False), "regression")
    expect("verdict: throughput -5% vs 10% bound",
           verdict(100.0, 95.0, "higher", 0.10, "rel", False), "ok")
    expect("verdict: latency +30% vs 25% bound",
           verdict(1.0, 1.3, "lower", 0.25, "rel", False), "regression")
    expect("verdict: blocking +0.2 pp vs 0.25 pp",
           verdict(10.0, 10.2, "lower", 0.25, "pp", False), "ok")
    expect("verdict: blocking +0.3 pp vs 0.25 pp",
           verdict(10.0, 10.3, "lower", 0.25, "pp", False), "regression")
    expect("verdict: same-seed sim value moved",
           verdict(10.0, 9.9, "lower", 0.25, "pp", True), "sim-mismatch")
    expect("verdict: same-seed sim value equal",
           verdict(10.0, 10.0, "lower", 0.25, "pp", True), "ok")

    build()
    for seed in (1, 2):
        for w in WORKLOADS:
            log(f"[self-test] {w} seed {seed}")
            timed = run_once(w, seed, "smoke", False)
            problems += [f"{w}/{seed}: {f}" for f in timed["failures"]]
            traced = run_once(w, seed, "smoke", True)
            problems += [f"{w}/{seed}: {p}"
                         for p in check_traced([timed], traced)]
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("passed" if not problems else
                          f"failed ({len(problems)} problem(s))"))
    return 0 if not problems else 1


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", default="bench_e2e.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.compare:
            return compare(*args.compare)
        if args.workload:
            return one_workload(args)
        return suite(args)
    except (RuntimeError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as exc:
        log(f"run.py: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
