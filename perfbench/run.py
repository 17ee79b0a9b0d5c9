#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 perfbench/run.py --workload design_study --seed 1 --seconds 12 \
        --trace 0

Run from the repository root. On first use it configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that is
set; later runs only rebuild what changed. Build output goes to standard
error. The benchmark's own output follows on standard output; its last line
is the result object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("design_study", "nvpd_mixed", "store_restart", "monitor_drift")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the repository sources (src/) are not here; "
                 "nothing to build or measure")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(here), "-B", str(build),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build), "--target",
                    "nvp_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)

    sys.stdout.flush()
    result = subprocess.run(
        [str(build / "nvp_perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", str(build / "work")],
        cwd=root, timeout=RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
