#!/usr/bin/env python3
"""e2e_golden.py: the decisions of the end-to-end harness, as stable text.

Runs griphon_e2e (bench/e2e) on every workload at --size smoke, seeds 1
and 2, and prints one block per run: the controller's device-state digest
and every simulated-clock scalar (blocking, restoration, deadlines, ...),
sorted by name. None of these reads the wall clock, so the output is
byte-identical across runs and across builds that make the same routing,
assignment and scheduling decisions. bench/golden/e2e_smoke.txt holds it
and CI diffs against it (see bench/golden/README.md).

Usage:
    cmake -S bench/e2e -B build-e2e && cmake --build build-e2e
    tools/e2e_golden.py [--binary build-e2e/griphon_e2e] > e2e_smoke.txt

Exit status: 0 all runs completed, 1 a run failed its own checks or
printed no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("churn", "storm", "bod", "reopt")
SEEDS = (1, 2)


def run(binary: str, workload: str, seed: int) -> list[str]:
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--size",
         "smoke"], capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr}")
    result = json.loads(lines[-1])
    out = [f"{workload} seed={seed} digest={result['texts']['digest']}"]
    for name, scalar in sorted(result["scalars"].items()):
        if scalar["kind"] == "sim":
            out.append(f"  {name} {json.dumps(scalar['value'])}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default=str(ROOT / "build-e2e" /
                                                "griphon_e2e"))
    args = parser.parse_args()
    try:
        for workload in WORKLOADS:
            for seed in SEEDS:
                print("\n".join(run(args.binary, workload, seed)))
    except RuntimeError as err:
        print(f"e2e_golden: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
