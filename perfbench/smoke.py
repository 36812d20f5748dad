#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny size (about half a minute).

    python3 perfbench/smoke.py        # from the root of the checkout

For every workload: a run with --trace 0 and one with --trace 1 must pass
their checks and print every metric BENCHMARK.json names, with its unit,
both as a "name value unit" line and in the result object; and a run with
one reference value perturbed (--perturb-ref) must report fail_ratio > 0.
"""

import json
import subprocess
import sys

bench = json.load(open("BENCHMARK.json"))
errors = []


def run(workload, trace, *extra):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "tiny", *extra]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        errors.append(f"{' '.join(cmd)}: exit {p.returncode}")
        return None, []
    lines = p.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def human(lines, name):
    """(value, unit) of the "name value unit" line, or None."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == name:
            return float(parts[1]), parts[2]
    return None


for w in bench["workloads"]:
    name = w["name"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, lines = run(name, trace)
        if result is None:
            continue
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            errors.append(f"{name} trace {trace}: checks failed: {result}")
        want = {m["name"]: m["unit"] for m in bench[key]}
        if set(result["metrics"]) != set(want):
            errors.append(f"{name} trace {trace}: metrics {sorted(result['metrics'])}"
                          f" != {sorted(want)}")
        for metric, unit in want.items():
            got = result["metrics"].get(metric, {})
            if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                errors.append(f"{name} trace {trace}: {metric} is {got}, want unit {unit}")
            line = human(lines, metric)
            if line is None or line[1] != unit:
                errors.append(f"{name} trace {trace}: no '{metric} <value> {unit}' line")
    result, lines = run(name, 0, "--perturb-ref")
    if result is not None:
        ratio = human(lines, "fail_ratio")
        if result["correct"] or result["failed"] < 1 or ratio is None or ratio[0] <= 0:
            errors.append(f"{name}: a perturbed reference did not raise fail_ratio")

for e in errors:
    print("smoke:", e, file=sys.stderr)
print("smoke:", "FAILED" if errors else "ok")
sys.exit(1 if errors else 0)
