"""Span tracing of cvsym's public functions, installed from outside the package.

Each wrapper is installed in the namespace where the caller looks the
function up (``cvsym.runner.empirical_tv_3d``, not only
``cvsym.stats.empirical_tv_3d``), so calls made through ``from x import y``
bindings are seen too.  Spans are kept in memory; :meth:`Tracer.dump` writes
them out once the run ends.  Spans inside worker processes are not
collected, so traced runs use one worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time


def _nbytes(paths):
    return sum(os.path.getsize(p) for p in paths or ())


# (module, attribute, span name, counts(args, kwargs, result) -> dict).
# A module path with a class suffix ("cvsym.stats:MomentSummary") wraps a
# class attribute.
TARGETS = [
    ("cvsym.runner", "empirical_tv_3d", "stats.empirical_tv_3d",
     lambda a, k, r: {"samples": len(a[0])}),
    ("cvsym.runner", "columnwise_shape_stats", "stats.shape_stats", None),
    ("cvsym.stats:MomentSummary", "from_triples", "stats.moment_summary", None),
    ("cvsym.runner", "sigma_est", "stats.sigma_est", None),
    ("cvsym.runner", "scaled_estimation_errors", "stats.scaled_estimation_errors",
     lambda a, k, r: {"draws": int(a[1]) * int(a[2])}),
    ("cvsym.cli", "run", "runner.run", None),
    ("cvsym.runner", "wishart_triples", "runner.wishart_triples",
     lambda a, k, r: {"trials": int(a[1])}),
    ("cvsym.runner", "coordinate_triples", "runner.coordinate_triples",
     # Sweeps run their moment pre-pass as single-mode coordinate triples.
     lambda a, k, r: {"coords": 2 * int(a[0]) * int(a[1]),
                      "prepass_modes": int(a[1]) if int(a[0]) == 1 else 0}),
    ("cvsym.runner", "channel_and_heterodyne", "protocol.channel",
     lambda a, k, r: {"coords": int(getattr(a[0], "size", 0))}),
    ("cvsym.runner", "postselect", "protocol.postselect", None),
    ("cvsym.linalg", "haar_unitary_stack", "linalg.haar_stack",
     lambda a, k, r: {"unitaries": int(a[1]), "rows": int(a[0]) * int(a[1])}),
    ("cvsym.symmetrize", "haar_unitary_stack", "linalg.haar_stack",
     lambda a, k, r: {"unitaries": int(a[1]), "rows": int(a[0]) * int(a[1])}),
    ("cvsym.linalg", "unitary_to_symplectic", "linalg.to_symplectic", None),
    ("cvsym.symmetrize", "unitary_to_symplectic", "linalg.to_symplectic", None),
    ("cvsym.linalg", "realify_stack", "linalg.to_symplectic", None),
    ("cvsym.linalg", "orthogonality_residual", "linalg.residual_checks", None),
    ("cvsym.linalg", "symplecticity_residual", "linalg.residual_checks", None),
    ("cvsym.runner", "orthogonality_residual", "linalg.residual_checks", None),
    ("cvsym.runner", "symplecticity_residual", "linalg.residual_checks", None),
    ("cvsym.runner", "collect_audit_samples", "symmetrize.audit",
     lambda a, k, r: {"trials": int(a[1])}),
    ("cvsym.runner", "witness_transform", "symmetrize.witness", None),
    ("cvsym.symmetrize", "witness_transform", "symmetrize.witness", None),
    ("cvsym.runner", "finite_design_average", "symmetrize.design_average", None),
    ("cvsym.runner", "haar_design", "symmetrize.design_average", None),
    ("cvsym.symmetrize", "apply_symmetrization", "symmetrize.apply", None),
    ("cvsym.runner", "estimate_channel", "keyrate.estimate_channel", None),
    ("cvsym.runner", "gaussian_keyrate", "keyrate.gaussian_keyrate", None),
    ("cvsym.runner", "mode_triples", "samples.mode_triples", None),
    ("cvsym.samples", "mode_triples", "samples.mode_triples", None),
    ("cvsym.cli", "load_config", "config.load_validate", None),
    ("cvsym.config:ExperimentConfig", "validate", "config.load_validate", None),
    ("cvsym.cli", "emit", "report.emit", lambda a, k, r: {"bytes": _nbytes(r)}),
]


class Tracer:
    """In-memory span recorder: name, start, end, parent index, pass id, counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = 0
        self._installed = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "pass": self.pass_id, "counts": {}}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    def _wrapper(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)
        return traced

    def install(self):
        for module_path, attr, name, counts in TARGETS:
            module_name, _, class_name = module_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
            if isinstance(raw, classmethod):
                inner = self._wrapper(name, raw.__func__, _shift_counts(counts))
                replacement = classmethod(inner)
            elif class_name:
                replacement = self._wrapper(name, raw, _shift_counts(counts))
            else:
                replacement = self._wrapper(name, raw, counts)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed = []

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _shift_counts(counts):
    """Counts of a method see the arguments after ``self``/``cls``."""
    if counts is None:
        return None
    return lambda a, k, r: counts(a[1:], k, r)


def _in_pass(spans, pass_id):
    return ((i, span) for i, span in enumerate(spans) if span["pass"] == pass_id)


def self_times(spans, pass_id):
    """Per-name summed self time of one pass: each span's duration minus its children's."""
    child_time = {}
    for _, span in _in_pass(spans, pass_id):
        if span["parent"] >= 0:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
    out = {}
    for i, span in _in_pass(spans, pass_id):
        own = span["end"] - span["start"] - child_time.get(i, 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def count_sums(spans, pass_id):
    """Per-name call counts and summed counters of one pass, keyed "<span name>.<counter>"."""
    out = {}
    for _, span in _in_pass(spans, pass_id):
        key = span["name"] + ".calls"
        out[key] = out.get(key, 0) + 1
        for counter, value in span["counts"].items():
            key = f"{span['name']}.{counter}"
            out[key] = out.get(key, 0) + value
    return out


def counter_under(spans, pass_id, name, counter, ancestor):
    """Sum of ``counter`` over spans called ``name`` nested, at any depth, in ``ancestor``."""
    total = 0
    for _, span in _in_pass(spans, pass_id):
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent >= 0 and spans[parent]["name"] != ancestor:
            parent = spans[parent]["parent"]
        if parent >= 0:
            total += span["counts"].get(counter, 0)
    return total
