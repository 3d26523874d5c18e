"""Experiment configuration: one flat JSON file with explicit keys.

Every run is fully described by (config, seed); there are no environment
overrides apart from the output directory, so the config file doubles as
the experiment's provenance record.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .keyrate import MIN_ESTIMATION_COORDS, ChannelEstimate
from .protocol import ChannelModel, GaussianMixture, ModulationParams, PhaseDiffusion, PostselectionRegion
from .stats import MIN_TV_SAMPLES, GaussianBivariate, scaled_estimation_errors
from .symmetrize import batch_with_invariants, require_design

EXPERIMENT_KINDS = (
    "convergence-sweep",
    "invariant-audit",
    "design-compare",
    "keyrate-report",
    "estimation-error",
)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    # Integers beyond the float range would overflow in float arithmetic.
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _list_of(check):
    return lambda value: isinstance(value, list) and all(check(v) for v in value)


# Declared field type -> (check, message).  Bools are not numbers here, and
# floats must be finite.
_TYPE_CHECKS = {
    "int": (_is_int, "must be an integer"),
    "float": (_is_real, "must be a finite number"),
    "str": (lambda v: isinstance(v, str), "must be a string"),
    "list[int]": (_list_of(_is_int), "must be a list of integers"),
    "list[float]": (_list_of(_is_real), "must be a list of finite numbers"),
    "int | list[int]": (lambda v: _is_int(v) or _list_of(_is_int)(v),
                        "must be an integer or a list of integers"),
}


# Parameter names of the objects validate() builds -> the config fields they come from.
_FIELD_OF = {
    "variance_a": "modulation_variance",
    "v_variance": "modulation_variance",
    "beta": "reconciliation_efficiency",
    "weights": "mixture_weights",
    "transmittances": "mixture_transmittances",
    "excess_noises": "mixture_excess_noises",
    "sigma": "phase_sigma",
    "rule": "postselection_rule",
    "threshold": "postselection_threshold",
    "norm_x_sq": "audit_norm_x_sq",
    "norm_y_sq": "audit_norm_y_sq",
    "dot_xy": "audit_dot_xy",
    "design": "design_size",
    "degree": "design_degree",
    "m": "est_m",
}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    out_dir: str = "out"
    # protocol parameters
    modulation_variance: float = 4.0
    transmittance: float = 0.7
    excess_noise: float = 0.02
    perturbation: str = "none"  # none | gaussian-mixture | phase-diffusion
    mixture_weights: list[float] = field(default_factory=list)
    mixture_transmittances: list[float] = field(default_factory=list)
    mixture_excess_noises: list[float] = field(default_factory=list)
    phase_sigma: float = 0.0
    postselection_rule: str = "none"  # none | amplitude-threshold | product-threshold
    postselection_threshold: float = 0.0
    # analysis parameters
    be_constant: float = 1.0
    reconciliation_efficiency: float = 0.95
    estimation_fraction: float = 0.1
    # convergence-sweep
    n_grid: list[int] = field(default_factory=list)
    trials: int | list[int] = 10000  # a list matches n_grid
    # single-size kinds
    n: int = 0
    # invariant-audit ensembles: shared triple, opposite symplectic products
    audit_norm_x_sq: float = 0.0  # 0 -> defaults scaled with n
    audit_norm_y_sq: float = 0.0
    audit_dot_xy: float = 0.0
    audit_symp_xy: float = 0.0
    # design-compare
    design_kind: str = "roots-of-unity"  # roots-of-unity | haar-sample
    design_size: int = 4
    design_degree: int = 1
    design_samples: int = 200
    # estimation-error
    est_m: int = 1000

    def trials_for_grid(self):
        if isinstance(self.trials, int):
            return [self.trials] * len(self.n_grid)
        return list(self.trials)

    def _perturbation(self):
        if self.perturbation == "gaussian-mixture":
            return GaussianMixture(tuple(self.mixture_weights), tuple(self.mixture_transmittances),
                                   tuple(self.mixture_excess_noises))
        if self.perturbation == "phase-diffusion":
            return PhaseDiffusion(self.phase_sigma)
        return None

    def channel(self):
        return ChannelModel(self.transmittance, self.excess_noise, self._perturbation())

    def region(self):
        return PostselectionRegion(self.postselection_rule, self.postselection_threshold)

    def audit_invariants(self):
        """(|x|^2, |y|^2, x.y, omega(x, y)) of the audit ensembles; a 0 field selects its n-scaled default."""
        n = self.n
        return (self.audit_norm_x_sq or 2.0 * n, self.audit_norm_y_sq or 4.0 * n,
                self.audit_dot_xy or 0.8 * n, self.audit_symp_xy or 0.5 * n)

    def validate(self):
        """Check every field against its declared type, then its value.

        Value rules live in the objects a run builds: this builds them and
        reports their failures under the config's field names, and adds only
        the rules of kinds and sizes.  Raises one ConfigError naming every bad
        field; value checks run only once every field has its declared type.
        """
        problems = [(f.name, _TYPE_CHECKS[f.type][1]) for f in fields(self)
                    if not _TYPE_CHECKS[f.type][0](getattr(self, f.name))]
        if problems:
            raise ConfigError(problems)

        problems = {}
        bad = problems.setdefault  # the first message for a field wins

        if self.kind not in EXPERIMENT_KINDS:
            bad("kind", f"must be one of {', '.join(EXPERIMENT_KINDS)}")
        if self.seed < 0:
            bad("seed", "must be a nonnegative integer")
        if self.perturbation not in ("none", "gaussian-mixture", "phase-diffusion"):
            bad("perturbation", "must be none, gaussian-mixture or phase-diffusion")
        if self.be_constant < 0:
            bad("be_constant", "must be >= 0")
        if not 0.0 < self.estimation_fraction <= 1.0:
            bad("estimation_fraction", "must lie in (0, 1]")

        if self.kind == "convergence-sweep":
            if self.postselection_rule != "none":
                bad("postselection_rule", "convergence sweeps are never postselected; must be none")
            grid = self.n_grid
            if any(v < 1 for v in grid):
                bad("n_grid", "entries must be positive integers")
            elif any(b <= a for a, b in zip(grid, grid[1:])):
                bad("n_grid", "must be strictly increasing")
            if isinstance(self.trials, list) and len(self.trials) != len(grid):
                bad("trials", "list length must match n_grid")
            elif any(v < MIN_TV_SAMPLES for v in self.trials_for_grid()):
                bad("trials", f"must be >= {MIN_TV_SAMPLES}, the fewest the diagnostics accept")
        else:
            # n enters float arithmetic (audit defaults, estimation modes).
            if not 1 <= self.n <= sys.float_info.max:
                bad("n", "must be a positive integer in the float range")
            if not isinstance(self.trials, int) or self.trials < 1:
                bad("trials", "must be a positive integer")

        if self.kind == "keyrate-report" and 2 * self.n < MIN_ESTIMATION_COORDS:
            bad("n", f"must be >= {MIN_ESTIMATION_COORDS // 2}: the channel estimate needs "
                     f"{MIN_ESTIMATION_COORDS} coordinates, two per mode")
        if self.kind == "design-compare":
            if self.design_kind not in ("roots-of-unity", "haar-sample"):
                bad("design_kind", "must be roots-of-unity or haar-sample")
            if self.design_kind == "roots-of-unity" and self.n != 1:
                bad("n", "roots-of-unity designs are single-mode (n must be 1)")
            if self.design_samples < 1:
                bad("design_samples", "must be >= 1")
        if self.kind == "estimation-error" and self.perturbation == "phase-diffusion":
            bad("perturbation", "estimation-error supports none and gaussian-mixture only")

        constructors = [
            lambda: ModulationParams(1, self.modulation_variance),
            self._perturbation,
            lambda: ChannelModel(self.transmittance, self.excess_noise),
            self.region,
            # The key rate's estimate holds the rule for beta.
            lambda: ChannelEstimate(self.transmittance, self.excess_noise,
                                    self.modulation_variance + 1.0, self.reconciliation_efficiency),
        ]
        if self.kind == "invariant-audit" and "n" not in problems:
            # The rules see n only through n >= 2, so two modes stand in for n
            # without allocating 2n coordinates.
            constructors.append(lambda: batch_with_invariants(min(self.n, 2), *self.audit_invariants()))
        if self.kind == "design-compare":
            constructors.append(lambda: require_design(self.design_size, self.design_degree))
        if self.kind == "estimation-error":
            # Zero trials of the estimator keep the call cheap.
            constructors.append(lambda: scaled_estimation_errors(
                GaussianBivariate(1.0, 1.0, 0.0), self.est_m, 0, np.random.default_rng(0)))
        for construct in constructors:
            try:
                construct()
            except ConfigError as exc:
                for name, msg in exc.problems:
                    bad(_FIELD_OF.get(name, name), msg)

        if problems:
            raise ConfigError(problems.items())
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError([("config", "must be a JSON object")])
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError([(name, "unknown key") for name in unknown])
        if "kind" not in data or "seed" not in data:
            raise ConfigError([(k, "required") for k in ("kind", "seed") if k not in data])
        return cls(**data)


def load_config(path):
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))
