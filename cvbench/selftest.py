#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark; takes under a minute.

    python3 cvbench/selftest.py

Runs every workload, untimed and traced, with every operation and every
output check at reduced sizes, and asserts that:

* each run exits 0 and prints the result object as its last line;
* the metric names and units printed match BENCHMARK.json;
* only operations of the known faults fail, in the same share every pass;
* in a directory holding only BENCHMARK.json and the benchmark, without
  the program, the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    argv = [sys.executable, *BENCH["command"][1:], *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--sizes", "small")
    assert proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{name}: unexpected failures\n{proc.stderr[-3000:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    spec = BENCH["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    printed = {key: m["unit"] for key, m in result["metrics"].items()}
    assert printed == expected, f"{name}: metrics differ from BENCHMARK.json: {printed} vs {expected}"
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (key, metric)
    print(f"ok  {name:15s} trace={trace}  attempted {result['attempted']:5d}  failed {result['failed']:4d}")
    return result


def check_without_program():
    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "group-audit", "--seconds", "1")
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert not any(line.startswith("{") for line in lines), "benchmark printed a result without the program"
    print(f"ok  without the program: exit {proc.returncode}, no result")


def main():
    shares = {}
    for name in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            result = check_workload(name, trace)
            shares.setdefault(name, set()).add(result["failed"] / result["attempted"])
    for name, seen in shares.items():
        assert len(seen) == 1, f"{name}: failed share differs between runs: {seen}"
    check_without_program()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
