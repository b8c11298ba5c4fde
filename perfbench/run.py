#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source, then runs one workload.

    python3 perfbench/run.py --workload svc_incident --seed 20220627 \
        --seconds 10 --trace 0

Run from the repository root.  The first call configures and compiles the
library sources under src/ plus the harness into .bench_build/perfbench
(a few minutes); later calls reuse that build.  Build output goes to
stderr; stdout carries the harness's provenance and diagnostics and, as
its last line, the JSON result.  The exit status is the harness's: 0 only
if every operation passed the correctness gate.

The BENCHMARK.json command carries the default seed as --seed (a later
--seed overrides it) and the held-out seed as --held-out-seed, a record
only: the second seed every claimed change must also pass on, never used
by a run.  The system under test sees no seed, only generated inputs.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("svc_incident", "svc_deep", "stream_replay")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found beside perfbench/")
        return False
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    compile_cmd = [cmake, "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    # Only the checkout's own .git: never a repository above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out-seed", type=int,
                        help="record only: not used by a run")
    parser.add_argument("--scale-down", type=int, default=1,
                        help="shrink inputs by this factor (self-test only)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="damage one reference document (self-test only)")
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", git_commit(), "--scale-down", str(args.scale_down)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
