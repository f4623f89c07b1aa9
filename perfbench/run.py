#!/usr/bin/env python3
"""Host-cost benchmark of the Pahoehoe simulator: build, run, report.

Run from the repository root:

    python3 perfbench/run.py --workload put_100k --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which builds src/) into .bench_build, then runs one
workload in one process on one thread. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. --heldout swaps
the seed list for one drawn from a disjoint stream. --tiny shrinks the
workload for the smoke test. The report goes to stdout; its last line is
one JSON object with correct, attempted, failed and metrics. The exit code
is 0 only if every correctness gate held.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# Extra processes that only set up, so setup_s is a median over several
# process starts (the measuring process adds one more sample).
SETUP_SAMPLES = 2
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (killed and reaped on timeout)."""
    timeout = max(1.0, timeout)
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f} s: {' '.join(map(str, cmd))}")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Pahoehoe sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = run(["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        BUILD_TIMEOUT_S)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    made = run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
               deadline - time.monotonic())
    if made.returncode != 0:
        fail(f"building {target} failed")
    return BUILD / target


def last_json(stdout):
    lines = stdout.rstrip("\n").split("\n")
    try:
        return lines[:-1], json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return lines, None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build("perfbench_traced" if args.trace else "perfbench")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--heldout={str(args.heldout).lower()}",
           f"--tiny={str(args.tiny).lower()}"]

    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        done = run(cmd + ["--setup-only=true"], deadline - time.monotonic(),
                   capture=True)
        _, result = last_json(done.stdout)
        if done.returncode != 0 or result is None:
            fail("set-up run failed")
        setups.append(repr(result["setup_s"]))
    if setups:
        cmd.append("--setup-samples=" + ",".join(setups))

    done = run(cmd, deadline - time.monotonic(), capture=True)
    report, result = last_json(done.stdout)
    for line in report:
        print(line)
    if result is None:
        fail(f"no result line (exit code {done.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        units = sorted(n for n in got if n in want and got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units {units}")
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
