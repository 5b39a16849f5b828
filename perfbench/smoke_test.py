#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at smoke-test size (--tiny),
untraced and traced, through perfbench/run.py, and asserts that each run
prints exactly the metrics BENCHMARK.json declares (end_to_end untraced,
per_layer traced) with their units, passes its output checks and fails
no operation. It also asserts that a malformed seed is refused, and that
the benchmark fails without a result when the checkout holds nothing but
BENCHMARK.json and the benchmark's own directories. Takes a few minutes
once the binary is built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, check=False)


def check_run(spec, workload, trace):
    label = f"{workload} --trace {trace}"
    done = run(["--workload", workload, "--seed", "2009", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    assert done.returncode == 0, \
        f"{label}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert result["attempted"] >= 1 and result["failed"] == 0, (label, result)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    wrong_units = [(n, got[n], want[n]) for n in want
                   if n in got and got[n] != want[n]]
    assert got == want, (
        f"{label}: metrics differ from BENCHMARK.json: "
        f"missing {sorted(set(want) - set(got))}, "
        f"extra {sorted(set(got) - set(want))}, units {wrong_units}")
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (label, name)
    print(f"ok   {label}: {len(got)} metrics, {result['attempted']} operations")


def check_refusals(workload):
    done = run(["--workload", workload, "--seed", "12x", "--seconds", "1",
                "--trace", "0"])
    assert done.returncode == 2 and not done.stdout.strip(), done
    print("ok   malformed seed refused")

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "2009", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, check=False)
        assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok   benchmark alone fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refusals(workloads[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
