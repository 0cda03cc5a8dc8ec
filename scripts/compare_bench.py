#!/usr/bin/env python3
"""Diff a serving bench artifact against its checked-in baseline.

Usage: compare_bench.py BASELINE.json CURRENT.json [--throughput-tolerance=F]

The two JSON documents are walked in lockstep, leaf by leaf, and each
baseline leaf is classified by how machine-dependent it is:

  * Scale-free facts must match or hold exactly: scenario digests and
    workload shape (requests, unique_points, features) must be equal —
    a mismatch means the comparison is between different workloads, not
    a regression — and a boolean gate that was true in the baseline
    (parity_ok, resize_gate_ok, trace_gate_ok, self_heal.ok, ...) must
    still be true.
  * Throughput numbers (any numeric key containing "throughput") are
    machine-dependent: they only fail when the current run drops more
    than the tolerance (default 25%) below the baseline. Baselines are
    recorded conservatively (see bench/baselines/README.md), so a trip
    of this gate on CI hardware is a real regression, not scheduler
    noise.
  * Speedup ratios (any numeric key containing "speedup") gate the same
    way: they are already normalized to the machine (both sides of the
    ratio ran on the same box), so a drop below (1 - tolerance) of the
    baseline ratio means the optimization itself regressed — e.g. the
    sharded frontend (serving_ranked.json) losing its edge over one
    shard.
  * Everything else (latencies, hit rates, pids, timings) is
    informational and never gates.

Keys present in the current artifact but not the baseline are ignored —
new fields must not require a baseline refresh to land. Keys present in
the baseline but missing from the current artifact fail: a gate that
silently disappears is itself a regression.

Exit status: 0 clean, 1 any failure, 2 usage/IO error.
"""

import json
import sys

EXACT_KEYS = {"bench", "transport", "quick", "requests", "unique_points",
              "features"}


def classify(key):
    if key in EXACT_KEYS or key.endswith("digest"):
        return "exact"
    if "throughput" in key.lower() or "speedup" in key.lower():
        return "throughput"
    return "info"


def walk(base, cur, path, tolerance, failures):
    if isinstance(base, dict):
        if not isinstance(cur, dict):
            failures.append(f"{path}: object in baseline, {type(cur).__name__} now")
            return
        for key, bval in base.items():
            # Provenance (commit, timestamp, build config) differs on
            # every run by design; a baseline's provenance never gates.
            if key == "provenance":
                continue
            if key not in cur:
                failures.append(f"{path}.{key}: present in baseline, missing now")
                continue
            walk(bval, cur[key], f"{path}.{key}", tolerance, failures)
        return
    if isinstance(base, list):
        if not isinstance(cur, list):
            failures.append(f"{path}: array in baseline, {type(cur).__name__} now")
            return
        if len(base) != len(cur):
            failures.append(f"{path}: {len(base)} entries in baseline, {len(cur)} now")
            return
        for i, (bval, cval) in enumerate(zip(base, cur)):
            walk(bval, cval, f"{path}[{i}]", tolerance, failures)
        return

    key = path.rsplit(".", 1)[-1].split("[")[0]
    kind = classify(key)
    # bool is an int subclass; test it first so gates never get the
    # numeric-tolerance treatment.
    if isinstance(base, bool):
        if base and not cur:
            failures.append(f"{path}: gate regressed true -> {cur!r}")
        return
    if kind == "exact":
        if base != cur:
            failures.append(f"{path}: expected {base!r}, got {cur!r}")
        return
    if kind == "throughput" and isinstance(base, (int, float)):
        if not isinstance(cur, (int, float)) or cur < (1.0 - tolerance) * base:
            failures.append(
                f"{path}: {cur!r} req/s is more than {tolerance:.0%} below "
                f"the baseline {base!r} req/s")
        return
    # info: never gates.


def main(argv):
    tolerance = 0.25
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--throughput-tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        with open(paths[0]) as f:
            base = json.load(f)
        with open(paths[1]) as f:
            cur = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench: {e}", file=sys.stderr)
        return 2

    failures = []
    walk(base, cur, "$", tolerance, failures)
    name = base.get("bench", paths[0])
    if failures:
        print(f"compare_bench: {name}: {len(failures)} regression(s) "
              f"vs {paths[0]}:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"compare_bench: {name}: OK vs {paths[0]} "
          f"(throughput tolerance {tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
