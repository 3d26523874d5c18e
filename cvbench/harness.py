"""Timed and traced passes over one workload, and the metrics they yield."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time

import numpy as np

import workloads
from spans import Tracer, count_sums, counter_under, self_times

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb():
    # Linux reports ru_maxrss in KiB.  RUSAGE_CHILDREN gives the peak of the
    # largest worker process that has ended, so the sum is this process's
    # peak plus the largest worker's peak.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _timed(workload, workers, tracer=None):
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    raws = workloads.run_pass(workload, workers, tracer)
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    return raws, wall, cpu


class Tally:
    """Attempted and failed operations over every pass of a run."""

    def __init__(self, workload, reference_raws):
        self.workload = workload
        self.reference = workloads.evaluate(workload, reference_raws)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}
        self.add(reference_raws)

    def add(self, raws):
        for ref, out in zip(self.reference, workloads.evaluate(self.workload, raws)):
            problems = list(out.problems)
            if out.fingerprint != ref.fingerprint:
                problems.append("output differs from the reference pass")
                self.correct = False
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.setdefault(out.name, problems)
                if out.known_fault is None:
                    self.correct = False

    def summary(self):
        """Failures grouped by cause, for the human-readable report."""
        groups = {}
        for ref in self.reference:
            if ref.name in self.failures:
                key = ref.known_fault or "UNEXPECTED"
                groups.setdefault(key, []).append(f"{ref.name}: {self.failures[ref.name][0]}")
        return groups


def _environment():
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count()}
    import scipy
    info["scipy"] = scipy.__version__
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_env"] = {key: os.environ.get(key, "unset") for key in BLAS_ENV}
    info["blas_threads_in_effect"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count of each OpenBLAS library loaded in this process (numpy's, scipy's)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = getter()
                break
    return out


def measure(workload, seconds, trace, work_dir):
    """Run the reference pass, then timed (or alternating traced) passes for ``seconds``."""
    # The reference pass runs with the other worker count than the timed
    # passes where that differs, so every run checks worker-count independence.
    timed_workers = 1 if trace else workload.workers
    reference_workers = workload.workers if trace else 1
    tally = Tally(workload, workloads.run_pass(workload, reference_workers))
    info = {"environment": _environment(), "operations per pass": workload.operation_count}

    walls, cpus, traced_walls, layers = [], [], [], []
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        raws, wall, cpu = _timed(workload, timed_workers)
        tally.add(raws)
        walls.append(wall)
        cpus.append(cpu)
        if trace:
            tracer.pass_id += 1
            tracer.install()
            try:
                raws, wall, _ = _timed(workload, timed_workers, tracer)
            finally:
                tracer.uninstall()
                # The spans live until the run ends; freezing them keeps the
                # cycle collector from rescanning them during later passes.
                gc.freeze()
            tally.add(raws)
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer.spans, tracer.pass_id))

    info["passes"] = len(walls) + len(traced_walls)
    for cause, names in tally.summary().items():
        info[f"failed: {cause}"] = f"{len(names)} per pass, e.g. {names[0]}"
    if trace:
        tracer.dump(work_dir / "spans.json")
        metrics = {}
        for key, (_, unit) in layers[0].items():
            # Counts repeat exactly from pass to pass; times take the median.
            pick = statistics.median if unit == "s" else statistics.median_low
            metrics[key] = {"value": pick(layer[key][0] for layer in layers), "unit": unit}
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.spans) // len(traced_walls), "unit": "count"}
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
                   "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"}}
        info["wall_s per pass"] = ", ".join(f"{w:.3f}" for w in walls)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "info": info}


def _audit_modes_read():
    """How many modes the default audit statistics read, found by perturbing each mode."""
    from cvsym.symmetrize import default_audit_statistics

    n = 4
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((1, 2 * n)), rng.standard_normal((1, 2 * n))
    stats = default_audit_statistics().values()
    base = [fn(x, y) for fn in stats]
    read = 0
    for k in range(n):
        xp, yp = x.copy(), y.copy()
        xp[:, 2 * k:2 * k + 2] += 1.0
        yp[:, 2 * k:2 * k + 2] += 1.0
        if any(not np.array_equal(fn(xp, yp), b) for fn, b in zip(stats, base)):
            read += 1
    return read


def layer_metrics(spans, pass_id):
    """Per-module metrics of one traced pass: {name: (value, unit)}."""
    own = self_times(spans, pass_id)
    counts = count_sums(spans, pass_id)

    def s(*names):
        return sum(own.get(name, 0.0) for name in names)

    def c(key):
        return counts.get(key, 0)

    rows_drawn = counter_under(spans, pass_id, "linalg.haar_stack", "rows", "symmetrize.audit")
    rows_read = 2 * _audit_modes_read() * c("symmetrize.audit.trials")
    return {
        "stats.empirical_tv_3d_s": (s("stats.empirical_tv_3d"), "s"),
        "stats.empirical_tv_3d_samples": (c("stats.empirical_tv_3d.samples"), "count"),
        "stats.shape_stats_s": (s("stats.shape_stats"), "s"),
        "stats.moment_summary_s": (s("stats.moment_summary"), "s"),
        "stats.sigma_est_s": (s("stats.sigma_est"), "s"),
        "stats.scaled_estimation_errors_s": (s("stats.scaled_estimation_errors"), "s"),
        "stats.estimation_draws": (c("stats.scaled_estimation_errors.draws"), "count"),
        "runner.self_s": (s("runner.run"), "s"),
        "runner.wishart_triples_s": (s("runner.wishart_triples"), "s"),
        "runner.wishart_trials": (c("runner.wishart_triples.trials"), "count"),
        "runner.coordinate_triples_s": (s("runner.coordinate_triples"), "s"),
        "runner.coordinate_coords": (c("runner.coordinate_triples.coords"), "count"),
        "runner.prepass_modes": (c("runner.coordinate_triples.prepass_modes"), "count"),
        "protocol.channel_s": (s("protocol.channel"), "s"),
        "protocol.channel_coords": (c("protocol.channel.coords"), "count"),
        "protocol.postselect_s": (s("protocol.postselect"), "s"),
        "linalg.haar_stack_s": (s("linalg.haar_stack"), "s"),
        "linalg.haar_unitaries": (c("linalg.haar_stack.unitaries"), "count"),
        "linalg.haar_calls": (c("linalg.haar_stack.calls"), "count"),
        "linalg.to_symplectic_s": (s("linalg.to_symplectic"), "s"),
        "linalg.residual_checks_s": (s("linalg.residual_checks"), "s"),
        "symmetrize.audit_s": (s("symmetrize.audit"), "s"),
        "symmetrize.audit_rows_used_ratio": (rows_read / rows_drawn if rows_drawn else 0.0, "ratio"),
        "symmetrize.witness_s": (s("symmetrize.witness"), "s"),
        "symmetrize.witness_calls": (c("symmetrize.witness.calls"), "count"),
        "symmetrize.design_average_s": (s("symmetrize.design_average"), "s"),
        "symmetrize.apply_s": (s("symmetrize.apply"), "s"),
        "keyrate.estimate_channel_s": (s("keyrate.estimate_channel"), "s"),
        "keyrate.gaussian_keyrate_s": (s("keyrate.gaussian_keyrate"), "s"),
        "samples.mode_triples_s": (s("samples.mode_triples"), "s"),
        "config.load_validate_s": (s("config.load_validate"), "s"),
        "report.emit_s": (s("report.emit"), "s"),
        "report.bytes": (c("report.emit.bytes"), "bytes"),
        "cli.self_s": (s("cli.main"), "s"),
    }
