"""The benchmark's three workloads: generated inputs, passes and output checks.

A workload is built once from the seed (configs written to disk, witness
pairs generated in memory) and then run as whole passes.  Every pass
attempts the same operations:

* one ``cvsym.cli.main`` call per experiment config (malformed configs
  included), and
* one ``cvsym.symmetrize.witness_transform`` call per witness pair.

The first pass of a run is the reference: its outputs are checked against
independent computations and properties the method must have.  Every later
pass must reproduce the reference outputs exactly.
"""

from __future__ import annotations

import functools
import io
import json
import math
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import kstwobign

# Seed of the near-colinear witness pairs; these inputs stay the same for
# every --seed so that the pairs hitting the colinear-branch fault fail in
# every run.
NEAR_COLINEAR_SEED = 9_070_417
MALFORMED_SEED = 7
WITNESS_TOL = 1e-8
Z = 5.0  # width, in standard errors, of every statistical check

# Protocol shared by the experiments.
V_MOD, T_CH, XI_CH = 4.0, 0.7, 0.02
PHASE_SIGMA = 0.3
MIXTURE = {"modulation_variance": 20.0, "perturbation": "gaussian-mixture",
           "mixture_weights": [0.85, 0.15], "mixture_transmittances": [0.9, 0.15],
           "mixture_excess_noises": [0.01, 3.0]}

SIZES = {
    "full": {
        "sweeps": 10, "sweep_trials": [10_000, 10_000, 20_000],
        "phase_grid": [300, 3000], "phase_trials": [6000, 1500],
        "keyrate_modes": 1_000_000,
        "est_trials": 400, "est_m": 2000,
        # n = 40 rather than 20 puts more of the group layer's time in LAPACK
        # and less in per-call Python overhead, which this VM's slow phases
        # stretch most (the pass time varied 1.33x at n = 20, 1.20x at n = 40).
        "audit_n": 40, "audit_trials": 800,
        "design_n": 40, "design_size": 8, "design_samples": 100,
        "witness_random": 30, "witness_colinear": 10, "witness_near": 6,
    },
    "small": {
        "sweeps": 2, "sweep_trials": [2000, 2000, 4000],
        "phase_grid": [300, 1000], "phase_trials": [1500, 1000],
        "keyrate_modes": 100_000,
        "est_trials": 100, "est_m": 500,
        "audit_n": 10, "audit_trials": 800,
        "design_n": 12, "design_size": 4, "design_samples": 50,
        "witness_random": 6, "witness_colinear": 3, "witness_near": 2,
    },
}
WITNESS_NS = (2, 5, 20)
NEAR_COLINEAR_K = (2, 4, 6, 8, 10, 11, 12, 13, 14)

FAULT_WITNESS = "near-colinear witness pairs (COLINEAR_TOL = 1e-12 exceeds WITNESS_TOL)"
FAULT_CONFIG = "malformed config is not rejected with exit 2 naming the field"


# ---------------------------------------------------------------------------
# operations


@dataclass
class Experiment:
    """One ``cvsym.cli.main`` call on a generated config file."""

    name: str
    kind: str
    config: dict
    check: object = None  # metrics -> list of problems
    bad_field: str | None = None  # set for malformed configs, which must exit 2
    known_fault: str | None = None
    path: Path | None = None


@dataclass
class WitnessPair:
    """One ``witness_transform`` call on a pair related by a group element."""

    name: str
    source: object
    target: object
    known_fault: str | None = None


@dataclass
class Outcome:
    name: str
    fingerprint: str  # what later passes must reproduce exactly
    problems: list
    known_fault: str | None


@dataclass
class Workload:
    name: str
    workers: int
    experiments: list
    witnesses: list = field(default_factory=list)

    @property
    def operation_count(self):
        return len(self.experiments) + len(self.witnesses)


# ---------------------------------------------------------------------------
# independent references


def _coordinate_moments(v_mod, t, xi):
    """Per-coordinate (<x^2>, <y^2>, <xy>) for y = sqrt(T) x + g, Var g = 1 + T xi / 2."""
    a = v_mod / 2.0
    return a, t * a + 1.0 + t * xi / 2.0, math.sqrt(t) * a


def _within(value, expected, se, label, problems):
    if not (abs(value - expected) <= Z * se):
        problems.append(f"{label} = {value:.6g}, expected {expected:.6g} +- {Z:g}*{se:.3g}")


def ks_null_mean(count):
    """Marsaglia-Tsang-Wang asymptotic mean of the one-sample KS statistic."""
    return math.sqrt(math.pi / 2.0) * math.log(2.0) / math.sqrt(count) - 1.0 / (6.0 * count)


@functools.cache
def _kolmogorov_sd():
    return float(kstwobign.std())


def ks_null_sd(count):
    # kstwo(N).std() takes seconds to tens of seconds to integrate for some
    # N; the Kolmogorov limit law agrees with it to 1e-6 relative at N >= 2000.
    return _kolmogorov_sd() / math.sqrt(count)


def _g_entropy(nu):
    nu = max(float(nu), 1.0)
    plus, minus = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return plus * math.log2(plus) - (minus * math.log2(minus) if minus > 0 else 0.0)


def _symplectic_spectrum(gamma):
    modes = gamma.shape[0] // 2
    omega = np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return np.sort(np.abs(np.linalg.eigvals(1j * omega @ gamma)))[0::2]


def reference_keyrate(t, xi, v, beta):
    """Reverse-reconciliation rate and Holevo bound, symplectic spectra taken numerically."""
    b = t * (v - 1.0) + 1.0 + t * xi
    c = math.sqrt(t * (v * v - 1.0))
    sz = np.diag([1.0, -1.0])
    gamma = np.block([[v * np.eye(2), c * sz], [c * sz, b * np.eye(2)]])
    # Alice's covariance after Bob's heterodyne: gamma_A - C (gamma_B + 1)^-1 C^T.
    cond = v * np.eye(2) - (c * sz) @ np.linalg.inv((b + 1.0) * np.eye(2)) @ (c * sz).T
    holevo = sum(_g_entropy(nu) for nu in _symplectic_spectrum(gamma))
    holevo -= sum(_g_entropy(nu) for nu in _symplectic_spectrum(cond))
    holevo = max(holevo, 0.0)
    mutual = math.log2((b + 1.0) / (b - c * c / (v + 1.0) + 1.0))
    return max(beta * mutual - holevo, 0.0), holevo


# ---------------------------------------------------------------------------
# output checks


def _check_invariant_checks(m, problems):
    inv = m["invariant_checks"]
    for key, bound in (("group_orthogonality_residual", 1e-12),
                       ("group_symplecticity_residual", 1e-12),
                       ("invariant_relative_deviation", 1e-10),
                       ("witness_mapping_residual", WITNESS_TOL)):
        if not inv[key] <= bound:
            problems.append(f"invariant_checks.{key} = {inv[key]:.3e} > {bound:.0e}")


def _check_sweep_rows(m, mode_mean, problems, prepass_modes):
    """Chi-square shape of X and Y, the KS null floor and the mode-moment mean."""
    for row in m["grid"]:
        n, tag = row["n"], f"n={row['n']}"
        # X/a and Y/b are chi-square with 2n degrees of freedom.
        for col in ("x", "y"):
            _within(row[f"skew_{col}"], 2.0 / math.sqrt(n), row["se_skew"], f"{tag} skew_{col}", problems)
            _within(row[f"kurt_{col}"], 6.0 / n, row["se_kurt"], f"{tag} kurt_{col}", problems)
        count = row["trials"]
        _within(row["ks_floor"], ks_null_mean(count), ks_null_sd(count) / math.sqrt(8.0),
                f"{tag} ks_floor", problems)
        mm = row["mode_moments"]
        for i, label in enumerate("XYZ"):
            se = math.sqrt(max(mm["covariance"][i][i], 0.0) / prepass_modes)
            _within(mm["mean"][i], mode_mean[i], se, f"{tag} mode mean {label}", problems)


def _prepass_modes():
    from cvsym import runner
    return getattr(runner, "MOMENT_PREPASS_MODES", 200_000)


def check_gaussian_sweep(m):
    problems = []
    a, b, c = _coordinate_moments(V_MOD, T_CH, XI_CH)
    _check_sweep_rows(m, (2 * a, 2 * b, 2 * c), problems, _prepass_modes())
    _check_invariant_checks(m, problems)
    return problems


def check_phase_sweep(m):
    problems = []
    a, b, c = _coordinate_moments(V_MOD, T_CH, XI_CH)
    # A random phase rotation keeps isotropic Gaussian data i.i.d. normal, so
    # X and Y stay chi-square; only <xy> shrinks, by E cos(phi).
    damped = 2 * c * math.exp(-PHASE_SIGMA ** 2 / 2.0)
    _check_sweep_rows(m, (2 * a, 2 * b, damped), problems, _prepass_modes())
    _check_invariant_checks(m, problems)
    return problems


def check_keyrate(m):
    problems = []
    _within(m["transmittance_hat"], T_CH, m["se_transmittance"], "transmittance_hat", problems)
    _within(m["excess_noise_hat"], XI_CH, m["se_excess_noise"], "excess_noise_hat", problems)
    if not m["sigma_gap_max_se_units"] <= Z:
        problems.append(f"sigma_gap_max_se_units = {m['sigma_gap_max_se_units']:.3f} > {Z:g}")
    rate, holevo = reference_keyrate(m["transmittance_hat"], m["excess_noise_hat"],
                                     m["v_variance"], m["beta"])
    for key, ref in (("rate", rate), ("holevo_bound", holevo)):
        if not abs(m[key] - ref) <= 1e-9:
            problems.append(f"{key} = {m[key]:.12g}, recomputed {ref:.12g}")
    _check_invariant_checks(m, problems)
    return problems


def check_mixture_estimation(m):
    problems = []
    if not m["max_mean_pull"] <= Z:
        problems.append(f"max_mean_pull = {m['max_mean_pull']:.3f} > {Z:g}")
    # x is N(0, a) in every component, so sqrt(m)(mean x^4 - 3a^2) has sd sqrt(96) a^2.
    a = MIXTURE["modulation_variance"] / 2.0
    std, kurt, trials = m["std"][0][0], m["excess_kurtosis"][0][0], m["trials"]
    se = std * math.sqrt(max(kurt + 2.0, 0.0) / (4.0 * trials))
    _within(std, math.sqrt(96.0) * a * a, se, "std XX", problems)
    _check_invariant_checks(m, problems)
    return problems


def check_invariant_audit(m):
    problems = []
    res = m["results"]
    if not res["mode0_symplectic"]["pvalue"] < 1e-6:
        problems.append(f"mode0_symplectic p = {res['mode0_symplectic']['pvalue']:.3g} >= 1e-6")
    # Complex conjugation maps one ensemble onto the other and leaves these
    # three statistics unchanged, so their laws agree.
    for name in ("y_first_coord", "mode0_dot", "mode0_x_power"):
        if not res[name]["pvalue"] > 1e-4:
            problems.append(f"{name} p = {res[name]['pvalue']:.3g} <= 1e-4")
    _check_invariant_checks(m, problems)
    return problems


def check_design_compare(m):
    problems = []
    a, b, _ = _coordinate_moments(V_MOD, T_CH, XI_CH)
    se = {int(d): v for d, v in m["stderr_by_degree"].items()}
    for key, (re, im) in m["moments_haar"].items():
        side, _mode, p, q = key.split(":")
        p, q = int(p), int(q)
        value = complex(re, im)
        if p == q == 1:
            expected = 2 * a if side == "x" else 2 * b
        elif p != q:
            expected = 0.0
        else:
            continue
        if not abs(value - expected) <= Z * se[p + q]:
            problems.append(f"haar moment {key} = {value:.4g}, expected {expected:.4g} "
                            f"+- {Z:g}*{se[p + q]:.3g}")
    _check_invariant_checks(m, problems)
    return problems


# ---------------------------------------------------------------------------
# workload construction


def _base(kind, seed, **extra):
    config = {"kind": kind, "seed": seed, "modulation_variance": V_MOD,
              "transmittance": T_CH, "excess_noise": XI_CH}
    config.update(extra)
    return config


def _malformed():
    """Configs the CLI contract says must exit 2 and name the offending field.

    Their inputs do not depend on --seed, so they fail the same way in every run.
    """
    good = _base("keyrate-report", MALFORMED_SEED, n=2000)
    cases = (("transmittance", "0.7"), ("excess_noise", float("nan")), ("seed", True))
    out = []
    for field_name, value in cases:
        config = dict(good, **{field_name: value})
        out.append(Experiment(f"malformed-{field_name}", "keyrate-report", config,
                              bad_field=field_name, known_fault=FAULT_CONFIG))
    return out


def _to_interleaved(a):
    v = np.empty(2 * a.size)
    v[0::2], v[1::2] = a.real, a.imag
    return v


def _haar(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _unit(v):
    return v / np.linalg.norm(v)


def _pair(rng, n, kind, eps=0.0):
    """Complex amplitude pair (a, b) of the requested shape, and a Haar U."""
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coef = complex(rng.standard_normal(), rng.standard_normal())
    if kind == "random":
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif kind == "colinear":
        b = coef * a
    else:  # 1 - |cos(a, b)|^2 = eps
        u = _unit(a)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = _unit(w - np.vdot(u, w) * u)
        b = coef * np.linalg.norm(a) * (math.sqrt(1.0 - eps) * u + math.sqrt(eps) * w)
    return a, b, _haar(n, rng)


def _witness_pairs(seed, sizes):
    from cvsym.samples import SampleBatch

    def make(name, rng, n, kind, eps=0.0, fault=None):
        a, b, u = _pair(rng, n, kind, eps)
        source = SampleBatch(_to_interleaved(a), _to_interleaved(b))
        target = SampleBatch(_to_interleaved(u @ a), _to_interleaved(u @ b))
        return WitnessPair(name, source, target, fault)

    seeded = np.random.default_rng([seed, 3])
    fixed = np.random.default_rng(NEAR_COLINEAR_SEED)
    pairs = []
    for n in WITNESS_NS:
        pairs += [make(f"witness-n{n}-random-{i}", seeded, n, "random")
                  for i in range(sizes["witness_random"])]
        pairs += [make(f"witness-n{n}-colinear-{i}", seeded, n, "colinear")
                  for i in range(sizes["witness_colinear"])]
        for k in NEAR_COLINEAR_K:
            fault = FAULT_WITNESS if k >= 12 else None
            pairs += [make(f"witness-n{n}-near1e-{k}-{i}", fixed, n, "near", 10.0 ** -k, fault)
                      for i in range(sizes["witness_near"])]
    return pairs


def build(name, seed, sizes):
    """The operations of one workload; configs are not yet written."""
    # Config seeds are seed * 16 + i, so different --seed values share no config.
    base_seed = seed * 16
    if name == "sweep-gaussian":
        # Ten small sweeps rather than one large one: scipy's KS p-value costs
        # about 1.5 us * N when p < 0.02 and 0.3 ms otherwise, so one sweep's
        # time varies with its seed by about 11 %; a pass over ten seeds, ~4 %.
        return Workload(name, 1, [
            Experiment(f"sweep-gaussian-{i}", "convergence-sweep",
                       _base("convergence-sweep", base_seed + i, n_grid=[100, 1000, 10000],
                             trials=sizes["sweep_trials"]),
                       check=check_gaussian_sweep)
            for i in range(sizes["sweeps"])])
    if name == "channel-sim":
        phase = _base("convergence-sweep", base_seed, n_grid=sizes["phase_grid"],
                      trials=sizes["phase_trials"], perturbation="phase-diffusion",
                      phase_sigma=PHASE_SIGMA)
        keyrate = _base("keyrate-report", base_seed + 1, n=sizes["keyrate_modes"])
        est = _base("estimation-error", base_seed + 2, n=100, trials=sizes["est_trials"],
                    est_m=sizes["est_m"])
        est.update(MIXTURE)
        experiments = [
            Experiment("phase-sweep", "convergence-sweep", phase, check=check_phase_sweep),
            Experiment("keyrate", "keyrate-report", keyrate, check=check_keyrate),
            Experiment("mixture-estimation", "estimation-error", est, check=check_mixture_estimation),
        ] + _malformed()
        return Workload(name, 2, experiments)
    if name == "group-audit":
        audit = _base("invariant-audit", base_seed, n=sizes["audit_n"], trials=sizes["audit_trials"])
        design = _base("design-compare", base_seed + 1, n=sizes["design_n"], trials=1,
                       design_kind="haar-sample", design_size=sizes["design_size"],
                       design_degree=1, design_samples=sizes["design_samples"])
        experiments = [
            Experiment("invariant-audit", "invariant-audit", audit, check=check_invariant_audit),
            Experiment("design-compare", "design-compare", design, check=check_design_compare),
        ]
        return Workload(name, 1, experiments, _witness_pairs(seed, sizes))
    raise ValueError(f"unknown workload {name!r}")


def prepare(name, seed, sizes, work_dir):
    """Build a workload, write its configs and validate the well-formed ones."""
    from cvsym.config import ExperimentConfig

    workload = build(name, seed, sizes)
    config_dir = Path(work_dir) / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    for exp in workload.experiments:
        exp.config["out_dir"] = str(Path(work_dir) / "out" / exp.name)
        exp.path = config_dir / f"{exp.name}.json"
        exp.path.write_text(json.dumps(exp.config, indent=2) + "\n")
        if exp.bad_field is None:
            ExperimentConfig.from_dict(json.loads(exp.path.read_text())).validate()
    return workload


# ---------------------------------------------------------------------------
# running a pass


def _run_cli(exp, workers, tracer):
    from cvsym import cli

    argv = [exp.kind, "--config", str(exp.path), "--workers", str(workers)]
    report = Path(exp.config["out_dir"]) / "report.json"
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - an uncaught error is the CLI's exit 1
            traceback.print_exc()
            code = 1
    metrics = json.loads(report.read_text())["metrics"] if code == 0 else None
    return code, err.getvalue(), metrics


def _run_witness(pair):
    from cvsym import symmetrize

    try:
        return symmetrize.witness_transform(pair.source, pair.target)
    except Exception as exc:  # noqa: BLE001 - any raise fails the operation
        # Keep only the text: the traceback would hold the failed call's
        # frames, and their arrays, until the cycle collector runs.
        return f"{type(exc).__name__}: {exc}"


def run_pass(workload, workers, tracer=None):
    """One whole round of the workload's operations; returns their raw results."""
    raws = [_run_cli(exp, workers, tracer) for exp in workload.experiments]
    return raws + [_run_witness(pair) for pair in workload.witnesses]


def _evaluate_experiment(exp, raw):
    code, err, metrics = raw
    problems = []
    if exp.bad_field is not None:
        if code != 2:
            problems.append(f"exit {code}, expected 2")
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if not any(exp.bad_field in line for line in errors):
            problems.append(f"error does not name {exp.bad_field!r}: {err.strip()[-160:]!r}")
    elif code != 0:
        problems.append(f"exit {code}: {err.strip()[-300:]}")
    else:
        problems += exp.check(metrics)
    return Outcome(exp.name, json.dumps([code, metrics], sort_keys=True), problems, exp.known_fault)


def _evaluate_witness(pair, witness):
    if isinstance(witness, str):
        return Outcome(pair.name, witness, [witness], pair.known_fault)
    scale = max(np.linalg.norm(pair.source.x), np.linalg.norm(pair.source.y))
    resid = max(np.max(np.abs(witness.apply(pair.source.x) - pair.target.x)),
                np.max(np.abs(witness.apply(pair.source.y) - pair.target.y))) / scale
    problems = [] if resid <= WITNESS_TOL else [f"mapping residual {resid:.3e} > {WITNESS_TOL:.0e}"]
    return Outcome(pair.name, repr(float(resid)), problems, pair.known_fault)


def evaluate(workload, raws):
    """Check a pass's raw results; one :class:`Outcome` per operation."""
    count = len(workload.experiments)
    outcomes = [_evaluate_experiment(exp, raw) for exp, raw in zip(workload.experiments, raws)]
    return outcomes + [_evaluate_witness(pair, w) for pair, w in zip(workload.witnesses, raws[count:])]
