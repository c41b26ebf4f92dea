#!/usr/bin/env python3
"""Build and run the timing-service benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the repository's libraries
from source) under .bench_build/, and trains the small model bundle the serve
workloads share; later calls reuse both. The benchmark prints its summary
and, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. Workloads and metrics are described in
perfbench/README.md.

The environment variables that change the measured program (DAGT_RETRIEVAL*,
DAGT_FUSION, DAGT_KERNEL_TIER) make this script refuse to run.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("point_query", "batch_mix", "whatif_eco", "train_step")
# A measured run, set-up and untimed checks included, stays under 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def refuse_program_knobs():
    knobs = sorted(k for k in os.environ
                   if k.startswith("DAGT_RETRIEVAL")
                   or k in ("DAGT_FUSION", "DAGT_KERNEL_TIER"))
    if knobs:
        sys.exit("perfbench: refusing to run with %s set: each changes the "
                 "measured program" % ", ".join(knobs))


def run_quiet(cmd, timeout):
    """Run a helper command with its output on stderr; fail loudly."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        sys.exit("perfbench: '%s' failed with exit code %d"
                 % (" ".join(cmd), result.returncode))


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no repository sources next to perfbench/")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(root / "perfbench"), "-B",
                   str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                  BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(build_dir), "--target", "perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def git_sha(root):
    if not (root / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    refuse_program_knobs()

    root = Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_build" / "perfbench"
    binary = build(root, root / ".bench_build" / "cmake")
    if args.workload != "train_step":
        # Train the shared bundle (once per binary) outside the measured
        # process, so it leaves no trace in that process's memory.
        run_quiet([str(binary), "--prepare", "--out-dir", str(out_dir)],
                  BUILD_TIMEOUT_S)

    result = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--out-dir", str(out_dir), "--git-sha", git_sha(root)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S, check=False)
    if result.returncode != 0:
        sys.exit("perfbench: benchmark exited with code %d"
                 % result.returncode)
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
