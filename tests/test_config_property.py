"""Property tests of the config boundary.

Any JSON value validates or raises ConfigError, and a config that
validates also runs, here at tiny sizes, to finite metrics.
"""

import json
import math
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvsym.config import EXPERIMENT_KINDS, ExperimentConfig
from cvsym.errors import ConfigError
from cvsym.runner import run

# Integers of any size, those beyond the float range included.
_INT = st.integers() | st.integers(-2 ** 1100, 2 ** 1100)

# Everything json.loads can return, NaN and ±Infinity included.
_JSON = st.recursive(
    st.none() | st.booleans() | _INT | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

_NUMBER = _INT | st.floats(allow_nan=False, allow_infinity=False)

# Values of the declared type, so that the value checks behind the type
# checks are reached as well.
_TYPED = {
    "int": _INT,
    "float": _NUMBER,
    "str": st.sampled_from(EXPERIMENT_KINDS + ("none", "gaussian-mixture", "phase-diffusion",
                                               "amplitude-threshold", "roots-of-unity", "haar-sample")),
    "list[int]": st.lists(_INT, max_size=4),
    "list[float]": st.lists(_NUMBER, max_size=4),
    "int | list[int]": _INT | st.lists(_INT, max_size=4),
}


def _configs(value_for):
    return st.fixed_dictionaries({}, optional={f.name: value_for(f) for f in fields(ExperimentConfig)})


_CONFIGS = (_configs(lambda f: st.sampled_from(EXPERIMENT_KINDS) if f.name == "kind" else _TYPED[f.type])
            | _configs(lambda f: _JSON))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_CONFIGS | _JSON)
# Integers beyond the float range once escaped as OverflowError from the
# Cauchy-Schwarz budget and the mixture weight sum.
@example({"kind": "invariant-audit", "seed": 0, "n": 1, "audit_symp_xy": 2 ** 1100})
@example({"kind": "keyrate-report", "seed": 0, "n": 1, "perturbation": "gaussian-mixture",
          "mixture_weights": [2 ** 1100], "mixture_transmittances": [0.5], "mixture_excess_noises": [0.1]})
def test_config_boundary_raises_only_config_error(data):
    data = json.loads(json.dumps(data))
    try:
        ExperimentConfig.from_dict(data).validate()
    except ConfigError:
        pass


# Configs at tiny sizes with every float drawn from its documented range.
_UNIT = st.floats(0.0, 1.0)
_POSITIVE_UNIT = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def _mixture(draw):
    k = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    return {"perturbation": "gaussian-mixture",
            "mixture_weights": [w / sum(raw) for w in raw],
            "mixture_transmittances": draw(st.lists(_UNIT, min_size=k, max_size=k)),
            "mixture_excess_noises": draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k))}


_PHASE = st.fixed_dictionaries({"perturbation": st.just("phase-diffusion"),
                                "phase_sigma": st.floats(0.0, 3.0)})
_GAUSSIAN = st.just({"perturbation": "none"})
_REGION = st.fixed_dictionaries({
    "postselection_rule": st.sampled_from(("none", "amplitude-threshold", "product-threshold")),
    "postselection_threshold": st.floats(0.0, 5.0)})
# 0 selects the n-scaled default; norms are >= 0.
_AUDIT_NORM = st.just(0.0) | st.floats(0.0, 10.0)
_AUDIT_PRODUCT = st.just(0.0) | st.floats(-3.0, 3.0)
_TINY_N = st.integers(1, 6)
_TRIALS = st.integers(1000, 1500)

_KIND_FIELDS = {
    "convergence-sweep": st.fixed_dictionaries({
        "n_grid": st.lists(_TINY_N, max_size=3, unique=True).map(sorted),
        "trials": _TRIALS}),
    "invariant-audit": st.fixed_dictionaries({
        "n": _TINY_N, "trials": st.integers(1, 300), "audit_norm_x_sq": _AUDIT_NORM,
        "audit_norm_y_sq": _AUDIT_NORM, "audit_dot_xy": _AUDIT_PRODUCT, "audit_symp_xy": _AUDIT_PRODUCT}),
    "design-compare": st.sampled_from(("roots-of-unity", "haar-sample")).flatmap(
        lambda design: st.fixed_dictionaries({
            "design_kind": st.just(design),
            "n": st.just(1) if design == "roots-of-unity" else _TINY_N,
            "design_size": st.integers(1, 8), "design_degree": st.integers(1, 3),
            "design_samples": st.integers(1, 16)})),
    "keyrate-report": st.fixed_dictionaries({"n": st.integers(1000, 2000)}),
    "estimation-error": st.fixed_dictionaries({
        "n": _TINY_N, "trials": _TRIALS, "est_m": st.integers(10, 50)}),
}


@st.composite
def _tiny_config(draw, kind):
    config = {"kind": kind, "seed": draw(st.integers(0, 2 ** 32)),
              "modulation_variance": draw(st.floats(0.01, 100.0)),
              "transmittance": draw(_UNIT), "excess_noise": draw(st.floats(0.0, 10.0)),
              "be_constant": draw(st.floats(0.0, 10.0)),
              "reconciliation_efficiency": draw(_POSITIVE_UNIT),
              "estimation_fraction": draw(_POSITIVE_UNIT)}
    config.update(draw(_GAUSSIAN | _mixture() | _PHASE))
    if kind != "convergence-sweep":
        config.update(draw(_REGION))
    config.update(draw(_KIND_FIELDS[kind]))
    return config


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.one_of([_tiny_config(kind) for kind in EXPERIMENT_KINDS]))
# Each passed validate() and then failed at run time (exit 1).
@example({"kind": "invariant-audit", "seed": 0, "n": 2, "audit_dot_xy": 100})
@example({"kind": "invariant-audit", "seed": 0, "n": 1})
@example({"kind": "keyrate-report", "seed": 0, "n": 10})
@example({"kind": "convergence-sweep", "seed": 0, "n_grid": [10], "trials": 50})
# Two estimation modes gave a singular triple covariance (exit 1).
@example({"kind": "keyrate-report", "seed": 0, "n": 1000, "estimation_fraction": 0.001})
def test_validated_config_runs_to_finite_metrics(data):
    config = ExperimentConfig.from_dict(data)
    try:
        config.validate()
    except ConfigError:
        return
    metrics = run(config).metrics
    assert all(math.isfinite(v) for v in _numbers(metrics)), metrics
