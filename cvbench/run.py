#!/usr/bin/env python3
"""Benchmark of cvsym's three experiment paths, end to end and per module.

Run from the root of the repository:

    python3 cvbench/run.py --workload sweep-gaussian [--seed N] [--seconds S] [--trace 0|1]
    python3 cvbench/run.py --workload all          # every workload in turn

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, wall_s, cpu_s,
peak_rss_mb); with ``--trace 1`` they are the per-module ones, from a run
whose passes alternate between untraced and traced.

This process only launches and times: each set-up probe and the workload
itself run in child processes of this script, so the workload process's
resource usage covers itself and its cvsym worker processes only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-gaussian", "channel-sim", "group-audit")
PINNED_SEED = 20260808
SETUP_PROBES = 4  # plus the workload process itself: setup_s is a median of 5
RUN_TIMEOUT_S = 175.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help=f"workload seed (default {PINNED_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes run, after the reference pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "small"), default="full",
                        help="'small' runs every operation at reduced sizes (self-test)")
    parser.add_argument("--role", choices=("launcher", "probe", "workload"), default="launcher",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _child_argv(args, name, role):
    return [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", name,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--sizes", args.sizes]


def _work_dir(name):
    return HERE / "_work" / name


def _run_child(args, name, role, env, deadline):
    """Run a child to completion; return (start time, parsed last stdout line)."""
    started = time.time()
    proc = subprocess.run(_child_argv(args, name, role), env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"{role} of {name} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{role} of {name} printed no result")
    return started, json.loads(lines[-1])


def run_workload(args, name):
    """Launch the set-up probes and the workload process; return the result object."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = _work_dir(name)
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started, probe = _run_child(args, name, "probe", env, deadline)
            setup.append(probe["ready"] - started)
    started, result = _run_child(args, name, "workload", env, deadline)
    setup.append(result.pop("ready") - started)
    info = result.pop("info")
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}
    _print_summary(name, result, info, setup)
    return result


def _print_summary(name, result, info, setup):
    out = sys.stderr
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}", file=out)
    for key, metric in result["metrics"].items():
        print(f"   {key:36s} {metric['value']:.6g} {metric['unit']}", file=out)
    for key, value in info.items():
        print(f"   [{key}] {value}", file=out)
    print(f"   [setup samples s] {', '.join(f'{v:.3f}' for v in setup)}", file=out)


def launcher(args):
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(args, name) for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{key}": metric for name, r in results.items()
                            for key, metric in r["metrics"].items()}}
    for name, r in results.items():
        print(json.dumps({"workload": name, **r}))
    print(json.dumps(combined))
    return 0


def _import_cvsym():
    """Import cvsym from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import cvsym
    import cvsym.cli  # noqa: F401 - the entry point is part of set-up

    origin = Path(cvsym.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"cvsym imported from {origin}, not from {ROOT / 'src'}")


def child(args):
    _import_cvsym()
    import harness
    import workloads

    work = _work_dir(args.workload)
    workload = workloads.prepare(args.workload, args.seed, workloads.SIZES[args.sizes], work)
    ready = time.time()
    if args.role == "probe":
        print(json.dumps({"ready": ready}))
        return 0
    result = harness.measure(workload, args.seconds, bool(args.trace), work)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = _parse(argv)
    return launcher(args) if args.role == "launcher" else child(args)


if __name__ == "__main__":
    sys.exit(main())
