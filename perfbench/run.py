#!/usr/bin/env python3
"""Build the repository from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload hpl_fail|commit_full|commit_sparse \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark build into
.bench_build/perfbench with the repository's own CMake files (configured
once, rebuilt incrementally). Build output goes to stderr; the benchmark's
JSON result is the last line of stdout.
"""
import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("hpl_fail", "commit_full", "commit_sparse")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no repository sources to build under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4", "--target", "perfbench"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".bench_build")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
