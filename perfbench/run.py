#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the simulator libraries plus the hive_perfbench
harness) into .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to standard error, so the last line of standard output is
the harness's JSON result. Exits nonzero, without a result, when the sources
are missing or the build fails; otherwise exits with the harness's code.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign_mix", "serve_soak", "serve_wide")
# Upper bound on one harness run; a longer one is killed and counts as failed.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def build(root: Path) -> Path:
    source = root / "perfbench"
    build_dir = root / ".bench_build" / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {root / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(source), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "hive_perfbench", "-j", jobs],
    ]
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return build_dir / "hive_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small soak windows and scenario prefix (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3

    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
