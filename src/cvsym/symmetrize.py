"""Randomization of paired quadrature data over O(2n,R) ∩ Sp(2n,R).

Contains the data-level symmetrization map, an explicit constructive
witness connecting any two batches with matching invariants, an empirical
audit of which statistics the symmetrized distribution can depend on, and
a finite-design substitute for full Haar averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .errors import InvalidDimensionError, PreconditionError, require
from .linalg import (
    ComplexUnitary,
    complex_modes,
    haar_orthogonal_symplectic,
    haar_unitary_stack,
    phase_fixed_qr,
    unitary_to_symplectic,
)
from .samples import SampleBatch

WITNESS_TOL = 1e-8


def apply_symmetrization(batch, transform):
    """Rotate both halves of a batch by the same element of O(2n,R) ∩ Sp(2n,R)."""
    if transform.n * 2 != batch.x.size:
        raise InvalidDimensionError(
            f"transform acts on 2n={2 * transform.n} but batch has length {batch.x.size}")
    return SampleBatch(transform.apply(batch.x), transform.apply(batch.y))


def witness_transform(source, target, tol=WITNESS_TOL):
    """An element of O(2n,R) ∩ Sp(2n,R) mapping source to target.

    Both batches must agree on all four invariants (|x|^2, |y|^2, x.y and
    the symplectic product) to relative tolerance ``tol``; the symplectic
    product is required because the construction matches the full complex
    inner product of the mode amplitudes, whose imaginary part it is.

    Construction: U = Q(a', b') Q(a, b)^H from the phase-fixed complete QR
    of each complex amplitude pair.  With R's diagonal real and >= 0,
    R = [[|a|, <a|b>/|a|], [0, (|b|^2 - |<a|b>|^2/|a|^2)^(1/2)]] depends on
    the invariants alone, so U [a b] = Q(a', b') R = [a' b'] for every pair,
    colinear, zero or single-mode included.  The longer source vector goes
    first (in both pairs): LAPACK leaves q_1 = e_1 for a zero first column,
    which would make r_12 = b[0] instead of an invariant.
    """
    inv_s = source.invariant_triple()
    inv_t = target.invariant_triple()
    if source.x.size != target.x.size:
        raise InvalidDimensionError("source and target dimensions differ")
    devs = inv_s.relative_deviations(inv_t)
    # "not <=" so that a NaN deviation (overflowed squared norms) fails closed.
    bad = {name: dev for name, dev in devs.items() if not dev <= tol}
    if bad:
        worst = max(bad, key=bad.get)
        raise PreconditionError(
            f"invariant mismatch: {worst} differs by relative {bad[worst]:.3e} (> {tol:.1e}); "
            f"all mismatches: {sorted(bad)}")

    src = np.column_stack([complex_modes(source.x), complex_modes(source.y)])
    tgt = np.column_stack([complex_modes(target.x), complex_modes(target.y)])
    if np.linalg.norm(source.y) > np.linalg.norm(source.x):
        src, tgt = src[:, ::-1], tgt[:, ::-1]
    u = phase_fixed_qr(tgt) @ phase_fixed_qr(src).conj().T

    transform = unitary_to_symplectic(ComplexUnitary(source.n, u))
    scale = max(np.linalg.norm(source.x), np.linalg.norm(source.y), 1e-300)
    resid = max(np.max(np.abs(transform.apply(source.x) - target.x)),
                np.max(np.abs(transform.apply(source.y) - target.y))) / scale
    if not resid <= tol:
        raise RuntimeError(f"witness construction failed: mapping residual {resid:.3e} > {tol:.1e}")
    return transform


def batch_with_invariants(n, norm_x_sq, norm_y_sq, dot_xy, symp_xy, rng=None):
    """Construct a batch whose invariants take the prescribed values.

    With an ``rng`` the batch is additionally rotated by a Haar-random
    element of the group, randomizing its orientation without touching the
    invariants.  Requires dot_xy^2 + symp_xy^2 <= norm_x_sq * norm_y_sq.
    """
    cross = dot_xy * dot_xy + symp_xy * symp_xy
    # |y|^2 left for the second mode once the first carries dot and symp.
    residual = max(norm_y_sq - cross / norm_x_sq, 0.0) if norm_x_sq > 0 else 0.0
    require(("n", n >= 1, "must be >= 1"),
            ("norm_x_sq", norm_x_sq >= 0, "must be >= 0"),
            ("norm_y_sq", norm_y_sq >= 0, "must be >= 0"),
            ("dot_xy", cross <= norm_x_sq * norm_y_sq * (1.0 + 1e-12) and np.isfinite(cross),
             "dot_xy^2 + symp_xy^2 exceeds the Cauchy-Schwarz budget or the float range"),
            ("n", n >= 2 or residual == 0.0, "must be >= 2 unless the pair is colinear"))
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    if norm_x_sq == 0.0:
        b[0] = np.sqrt(norm_y_sq)
    else:
        a[0] = np.sqrt(norm_x_sq)
        b[0] = (dot_xy + 1j * symp_xy) / a[0]
        if residual > 0.0:
            b[1] = np.sqrt(residual)
    x = np.empty(2 * n)
    y = np.empty(2 * n)
    x[0::2], x[1::2] = a.real, a.imag
    y[0::2], y[1::2] = b.real, b.imag
    batch = SampleBatch(x, y)
    if rng is not None:
        batch = apply_symmetrization(batch, haar_orthogonal_symplectic(n, rng))
    return batch


def default_audit_statistics():
    """Named scalar statistics evaluated on a symmetrized batch.

    Each callable takes stacked (x, y) arrays of shape (trials, 2n) and
    returns one value per trial.
    """
    return {
        "y_first_coord": lambda x, y: y[:, 0],
        "mode0_dot": lambda x, y: x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1],
        "mode0_symplectic": lambda x, y: x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0],
        "mode0_x_power": lambda x, y: x[:, 0] ** 2 + x[:, 1] ** 2,
    }


def collect_audit_samples(pair_generator, trials, rng, statistics=None):
    """Symmetrize generator output and evaluate the audit statistics.

    Returns ``{name: (samples_a, samples_b)}``: for every trial the
    generator yields one batch per ensemble and each is randomized by an
    independent Haar-random transformation.
    """
    statistics = statistics or default_audit_statistics()
    rows = {name: ([], []) for name in statistics}
    for _ in range(trials):
        batch_a, batch_b = pair_generator(rng)
        sym_a = apply_symmetrization(batch_a, haar_orthogonal_symplectic(batch_a.n, rng))
        sym_b = apply_symmetrization(batch_b, haar_orthogonal_symplectic(batch_b.n, rng))
        for name, fn in statistics.items():
            rows[name][0].append(float(fn(sym_a.x[None], sym_a.y[None])[0]))
            rows[name][1].append(float(fn(sym_b.x[None], sym_b.y[None])[0]))
    return {name: (np.array(va), np.array(vb)) for name, (va, vb) in rows.items()}


@dataclass(frozen=True)
class AuditResult:
    statistic: float
    pvalue: float


@dataclass(frozen=True)
class InvariantAuditReport:
    trials: int
    underpowered: bool
    results: dict = field(default_factory=dict)

    @classmethod
    def from_samples(cls, samples, trials):
        """Two-sample KS test per statistic of ``{name: (samples_a, samples_b)}``.

        Fewer than 100 trials sets the ``underpowered`` flag.
        """
        results = {}
        for name, (va, vb) in samples.items():
            ks = sps.ks_2samp(va, vb)
            results[name] = AuditResult(float(ks.statistic), float(ks.pvalue))
        return cls(trials=trials, underpowered=trials < 100, results=results)

    def to_dict(self):
        return {
            "trials": self.trials,
            "underpowered": self.underpowered,
            "results": {k: {"ks_statistic": v.statistic, "pvalue": v.pvalue}
                        for k, v in self.results.items()},
        }


def invariant_audit(pair_generator, trials, rng, statistics=None):
    """Two-sample KS comparison of symmetrized ensembles.

    The generator controls what the two ensembles share (typically the
    three norm/dot invariants) and where they differ (typically the sign
    of the symplectic product).
    """
    return InvariantAuditReport.from_samples(
        collect_audit_samples(pair_generator, trials, rng, statistics), trials)


def roots_of_unity_design(count):
    """The single-mode design {e^{2 pi i j / count}}, exact for phase moments of order < count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [ComplexUnitary(1, np.array([[np.exp(2j * np.pi * j / count)]])) for j in range(count)]


def haar_design(n, size, rng):
    """A finite design made of Haar samples (an approximate design of any degree)."""
    return [ComplexUnitary(n, u) for u in haar_unitary_stack(n, size, rng)]


@dataclass(frozen=True)
class DesignCompareReport:
    n: int
    degree: int
    design_size: int
    samples: int
    matched_count: int
    moments_design: dict
    moments_haar: dict
    max_discrepancy_by_degree: dict
    stderr_by_degree: dict

    def to_dict(self):
        def _cplx(d):
            return {k: [v.real, v.imag] for k, v in d.items()}
        return {
            "n": self.n,
            "degree": self.degree,
            "design_size": self.design_size,
            "samples": self.samples,
            "matched_count": self.matched_count,
            "moments_design": _cplx(self.moments_design),
            "moments_haar": _cplx(self.moments_haar),
            "max_discrepancy_by_degree": dict(self.max_discrepancy_by_degree),
            "stderr_by_degree": dict(self.stderr_by_degree),
        }


def _monomial_exponents(degree):
    return [(p, q) for total in range(1, 2 * degree + 1)
            for p in range(total + 1) for q in [total - p]]


def finite_design_average(sampler, design, degree, rng, samples=200):
    """Moments of symmetrized data: finite-design average vs Haar Monte Carlo.

    For every mode amplitude on each side, monomials a^p conj(a)^q with
    1 <= p+q <= 2*degree are averaged (i) over the design elements and
    (ii) over fresh Haar draws matched to the same sample count, and the
    worst absolute difference per total degree is reported.
    """
    if not design:
        raise ValueError("design must be non-empty")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n = design[0].n
    if any(u.n != n for u in design):
        raise InvalidDimensionError("design elements have mixed mode counts")
    batches = [sampler(rng) for _ in range(samples)]
    if any(batch.n != n for batch in batches):
        raise InvalidDimensionError("sampler output does not match the design's mode count")
    amps = {
        "x": np.array([complex_modes(batch.x) for batch in batches]),
        "y": np.array([complex_modes(batch.y) for batch in batches]),
    }
    replicates = len(design)
    design_stack = np.array([u.entries for u in design])
    haar_stack = haar_unitary_stack(n, samples * replicates, rng).reshape(samples, replicates, n, n)

    exponents = _monomial_exponents(degree)
    moments_design, moments_haar, stderr_haar = {}, {}, {}
    for side, base in amps.items():
        # (samples, replicates, n): each batch pushed through every element.
        sym_design = np.einsum("rij,sj->sri", design_stack, base)
        sym_haar = np.einsum("srij,sj->sri", haar_stack, base)
        for p, q in exponents:
            term_d = sym_design ** p * np.conj(sym_design) ** q
            term_h = sym_haar ** p * np.conj(sym_haar) ** q
            mean_d = term_d.mean(axis=(0, 1))
            mean_h = term_h.mean(axis=(0, 1))
            count = samples * replicates
            se = np.sqrt((term_h.real.var(axis=(0, 1)) + term_h.imag.var(axis=(0, 1))) / count)
            for mode in range(n):
                key = f"{side}:{mode}:{p}:{q}"
                moments_design[key] = complex(mean_d[mode])
                moments_haar[key] = complex(mean_h[mode])
                stderr_haar[key] = float(se[mode])

    max_disc, max_se = {}, {}
    for (p, q) in exponents:
        d = p + q
        for side in amps:
            for mode in range(n):
                key = f"{side}:{mode}:{p}:{q}"
                disc = abs(moments_design[key] - moments_haar[key])
                max_disc[d] = max(max_disc.get(d, 0.0), disc)
                max_se[d] = max(max_se.get(d, 0.0), stderr_haar[key])
    return DesignCompareReport(
        n=n, degree=degree, design_size=len(design), samples=samples,
        matched_count=samples * replicates,
        moments_design=moments_design, moments_haar=moments_haar,
        max_discrepancy_by_degree=max_disc, stderr_by_degree=max_se)
