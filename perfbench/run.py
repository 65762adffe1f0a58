#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_pair|city_rounds|stream_urban \
        --seed N --seconds S --trace 0|1 [--size tiny|full]

Run from the repository root. The first call configures and builds the
benchmark (and the RUPS libraries it links) from source into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
Build output goes to standard error; standard output carries the
benchmark's report lines and, last, its JSON result line.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no RUPS sources at {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        code = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build step failed ({code}): {' '.join(cmd)}")
    return out / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_pair", "city_rounds", "stream_urban"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--size", choices=["tiny", "full"], default="full")
    args = parser.parse_args()

    binary = build()
    sys.stdout.flush()
    return subprocess.call([
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--size", args.size,
    ])


if __name__ == "__main__":
    sys.exit(main())
