#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json at the tiny size, untraced and
traced, and checks the result-line contract: exactly the keys correct,
attempted, failed and metrics; correct is true; every metric BENCHMARK.json
names is present with its unit and a finite value (end-to-end values also
non-zero); and the traced run reproduces the untraced run's estimate
digest. Exits 0 when every check passes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def run(workload: str, trace: int) -> list:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    return out.stdout.strip().splitlines()


def check(workload: str, trace: int, lines: list, spec: dict) -> list:
    errors = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true: " +
                      "; ".join(l for l in lines if "CHECK FAILED" in l))
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            errors.append(f"{key} is not a whole number")
    if result.get("attempted", 0) < 1:
        errors.append("attempted < 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        errors.append(f"metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']} is not finite: {value!r}")
        elif not trace and value == 0:
            errors.append(f"end-to-end metric {m['name']} is 0")
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']} unit {got.get('unit')!r} "
                          f"!= {m['unit']!r}")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def digest(lines: list) -> str:
    for line in lines:
        if line.startswith("# estimate_digest="):
            return line.split()[1]
    return "missing"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        outputs = {}
        for trace in (0, 1):
            try:
                outputs[trace] = run(workload, trace)
            except (AssertionError, subprocess.TimeoutExpired) as e:
                errors.append(f"{workload} trace={trace}: {e}")
                continue
            errors += check(workload, trace, outputs[trace], spec)
        if len(outputs) == 2 and digest(outputs[0]) != digest(outputs[1]):
            errors.append(f"{workload}: traced and untraced estimate digests "
                          f"differ ({digest(outputs[0])} vs "
                          f"{digest(outputs[1])})")
        print(f"{workload}: {'ok' if not errors else 'FAILED'}")
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
