#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs a tiny configuration of every workload in BENCHMARK.json through
run.py, untraced and traced, re-parses the last output line and checks that
it is a passing result naming every metric of BENCHMARK.json with its unit
and a finite value. Exits non-zero on the first failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload, trace, spec):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE,
                          timeout=900)
    if done.returncode != 0:
        return f"exit code {done.returncode}"
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True or result["failed"] != 0:
        return "run not correct"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            return f"metric {m['name']} missing"
        if got.get("unit") != m["unit"]:
            return f"metric {m['name']} has unit {got.get('unit')}"
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            return f"metric {m['name']} has no finite value"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            error = check(workload, trace, spec)
            print(f"{workload} trace={trace}: {error or 'ok'}", flush=True)
            failures += error is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
