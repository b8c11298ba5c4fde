#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root (builds like run.py on first use).  Checks,
for every workload in BENCHMARK.json and both trace modes, that the last
stdout line is the result object with exactly the contract's keys and
every listed metric with its unit; that a damaged reference document
makes the run fail; and that a directory holding only BENCHMARK.json and
perfbench/ exits non-zero without printing a result.  Exit status 0 iff
every check passed.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "0.1", "--scale-down", "50"]


def run(args, cwd=ROOT):
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    proc = subprocess.run(bench["command"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def check_result(line, expected):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, "metrics differ: %s" % (set(got) ^ set(expected))
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return result


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0

    def check(label, ok, detail=""):
        nonlocal failures
        print("%-44s %s %s" % (label, "ok" if ok else "FAIL", detail), flush=True)
        failures += 0 if ok else 1

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, line, err = run(["--workload", workload, "--seed", "7",
                                   "--trace", str(trace)] + TINY)
            try:
                result = check_result(line, units[trace])
                ok = code == 0 and result["correct"] and result["failed"] == 0
                check("%s trace=%d" % (workload, trace), ok, "" if ok else err[-400:])
            except (AssertionError, ValueError) as e:
                check("%s trace=%d" % (workload, trace), False, str(e))
        code, line, _ = run(["--workload", workload, "--seed", "7", "--trace", "0",
                             "--corrupt-reference"] + TINY)
        try:
            result = check_result(line, units[0])
            check("%s corrupted reference fails" % workload,
                  code != 0 and not result["correct"] and result["failed"] > 0)
        except (AssertionError, ValueError) as e:
            check("%s corrupted reference fails" % workload, False, str(e))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, line, _ = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=bare)
    check("bare directory exits non-zero, no result", code != 0 and not line.startswith("{"))
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
