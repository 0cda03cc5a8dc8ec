#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload <paper|entangled> --seed <n> \
        --seconds <s> --trace <0|1>

The first run configures and builds the qkmps library and the perfbench
binary under .bench_build/perfbench; later runs only re-check the build.
The binary prints one line, {"detail": {...}}, holding every metric it
measured. This script prints that line, then the result line built from
it: the end_to_end (--trace 0) or per_layer (--trace 1) metrics that
BENCHMARK.json declares. A declared metric that is missing, not finite or
in another unit counts as a failed check. The exit code is nonzero when
the build fails or any check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
# What the perfbench binary is built from (see perfbench/CMakeLists.txt).
SOURCES = ("CMakeLists.txt", "src", "tools", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    log = sys.stderr.fileno()
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=log).returncode != 0:
            fail("configuring the build failed")
    jobs = str(min(3, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                       "-j", jobs], stdout=log).returncode != 0:
        fail("building perfbench failed")
    return BUILD / "perfbench"


def source_digest():
    """A digest of the sources the binary is built from, edits included."""
    digest = hashlib.sha256()
    files = []
    for top in SOURCES:
        path = ROOT / top
        files += [path] if path.is_file() else (p for p in path.rglob("*") if p.is_file())
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def result_line(detail, trace):
    """The contract's result object: the declared metrics, and the tally."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = detail["all_metrics"]
    attempted, failed = int(detail["attempted"]), int(detail["failed"])
    metrics = {}
    for declared in spec["per_layer" if trace else "end_to_end"]:
        name, unit = declared["name"], declared["unit"]
        m = measured.get(name)
        attempted += 1
        if m is None or m["unit"] != unit or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            failed += 1
            print(f"perfbench: declared metric {name} [{unit}] was not measured "
                  f"as a finite value: {m}", file=sys.stderr)
            continue
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    # A terminated runner takes its child down with it: SystemExit inside
    # subprocess.run kills and reaps the child before propagating.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    # Thread counts are set in code (serial training, two serving lanes);
    # OpenMP settings inherited from the caller's environment are dropped.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_"))}
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source", source_digest()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench printed nothing (exit code {run.returncode})")
    detail = json.loads(lines[-1])["detail"]
    result = result_line(detail, args.trace == 1)
    print(lines[-1])
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode if run.returncode != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
