"""Randomization of paired quadrature data over O(2n,R) ∩ Sp(2n,R).

Contains the data-level symmetrization map, an explicit constructive
witness connecting any two batches with matching invariants, an empirical
audit of which statistics the symmetrized distribution can depend on, and
a finite-design substitute for full Haar averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, PreconditionError, require
from .linalg import (
    complex_modes,
    haar_unitary_stack,
    interleave_modes,
    phase_fixed_qr,
    unitary_to_symplectic,
)
from .samples import InvariantTriple, SampleBatch

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

    One pass over a complex stack (2, n, 2) that holds each pair's mode
    amplitudes as columns [a b], source first; non-finite coordinates fail
    the invariant check at once.  The stack is scaled by the
    power of two that brings the source's largest |entry| into [1/2, 1), so
    squared norms neither underflow nor overflow; the scaling is exact and
    U is linear, so U maps the given pair as it maps the scaled one.

    Invariants: each pair's Gram entries |a|^2, |b|^2 and
    <a|b> = x.y + i omega(x, y) give its :class:`InvariantTriple`, and
    :meth:`InvariantTriple.relative_deviations` compares the two.

    Construction: U = Q(a', b') Q(a, b)^H from one stacked phase-fixed
    complete QR of both pairs.  With R's diagonal real and >= 0,
    R = [[|a|, <a|b>/|a|], [0, (|b|^2 - |<a|b>|^2/|a|^2)^(1/2)]] depends on
    the invariants alone, so U [a b] = Q(a', b') R = [a' b'] for every pair,
    colinear, zero or single-mode included.  The longer source vector goes
    first (in both pairs): LAPACK leaves q_1 = e_1 for a zero first column,
    which would make r_12 = b[0] instead of an invariant.

    Checks: U must be unitary (:func:`unitary_to_symplectic`), and the real
    and imaginary parts of U [a b] - [a' b'], which are the coordinates of
    the real mapping error, must stay within ``tol`` of max(|a|, |b|).
    """
    if source.x.size != target.x.size:
        raise InvalidDimensionError("source and target dimensions differ")
    coords = np.array([[source.x, source.y], [target.x, target.y]])
    tops = np.abs(coords).max(axis=(1, 2)).tolist()  # each pair's largest |entry|
    if not all(map(math.isfinite, tops)):  # no invariants to match, and the Gram product would warn
        raise PreconditionError(f"invariant mismatch: non-finite coordinates, largest |entries| {tops}")
    _, exp = math.frexp(tops[0])
    # (pair, mode, side): columns [a b] of the source pair, then of the target pair.
    pairs = complex_modes(np.ldexp(coords, -exp)).mT
    src_inv, tgt_inv = (InvariantTriple(aa.real, bb.real, ab.real, ab.imag)
                        for (aa, ab), (_, bb) in (pairs.conj().mT @ pairs).tolist())
    devs = src_inv.relative_deviations(tgt_inv)
    # "not <=" so that a NaN deviation (an overflowed target) fails closed.
    bad = {name: dev for name, dev in devs.items() if not dev <= tol}
    if bad:
        worst = max(bad, key=bad.get)
        raise PreconditionError(
            f"invariant mismatch: {worst} differs by relative {bad[worst]:.3e} (> {tol:.1e}); "
            f"all mismatches: {sorted(bad)}")

    if src_inv.norm_y_sq > src_inv.norm_x_sq:
        pairs = pairs[..., ::-1]
    q = phase_fixed_qr(pairs)
    u = q[1] @ q[0].conj().T

    transform = unitary_to_symplectic(u)
    scale = max(max(src_inv.norm_x_sq, src_inv.norm_y_sq) ** 0.5, 1e-300)
    # Viewed as floats, the complex miss is the interleaved real one, R v - v'.
    resid = np.abs((u @ pairs[0] - pairs[1]).view(np.float64)).max() / scale
    if not resid <= tol:
        raise RuntimeError(f"witness construction failed: mapping residual {resid:.3e} > {tol:.1e}")
    return transform


def batch_with_invariants(n, norm_x_sq, norm_y_sq, dot_xy, symp_xy):
    """Construct a batch whose invariants take the prescribed values.

    Requires dot_xy^2 + symp_xy^2 <= norm_x_sq * norm_y_sq.
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
    a, b = np.zeros((2, n), dtype=complex)
    if norm_x_sq == 0.0:
        b[0] = np.sqrt(norm_y_sq)
    else:
        a[0] = np.sqrt(norm_x_sq)
        b[0] = (dot_xy + 1j * symp_xy) / a[0]
        if residual > 0.0:
            b[1] = np.sqrt(residual)
    return SampleBatch(interleave_modes(a), interleave_modes(b))


def default_audit_statistics():
    """Named scalar statistics of mode 0 of a symmetrized batch.

    Each callable takes the mode-0 coordinates (q_0, p_0) of Alice's and of
    Bob's data as real arrays x and y of shape (trials, 2) and returns one
    value per trial.
    """
    return {
        "y_first_coord": lambda x, y: y[:, 0],
        "mode0_dot": lambda x, y: x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1],
        "mode0_symplectic": lambda x, y: x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0],
        "mode0_x_power": lambda x, y: x[:, 0] ** 2 + x[:, 1] ** 2,
    }


def collect_audit_samples(pair, trials, rng):
    """Audit statistics of the two batches of ``pair``, each symmetrized ``trials`` times.

    Returns ``{name: (samples_a, samples_b)}``; every trial rotates each
    batch by an independent Haar element U.  The statistics read mode 0
    only, which U maps to u . a for its first row u, and that row is
    uniform on the unit sphere of C^n (Mezzadri, arXiv:math-ph/0609050).
    So a trial draws one normalized complex Gaussian row per batch instead
    of a whole U.
    """
    amps = complex_modes(np.array([[batch.x, batch.y] for batch in pair]))
    shape = (2, trials, amps.shape[-1])
    rows = np.empty(shape, dtype=complex)
    rows.real, rows.imag = rng.standard_normal(shape), rng.standard_normal(shape)
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    # (batch, side, trials, 2): the mode-0 coordinates of every symmetrized batch.
    mode0 = interleave_modes((amps @ rows.swapaxes(-1, -2))[..., None])
    return {name: (fn(*mode0[0]), fn(*mode0[1])) for name, fn in default_audit_statistics().items()}


def audit_report(samples, trials):
    """Two-sample KS test per statistic of ``{name: (samples_a, samples_b)}``, as a report dict.

    Fewer than 100 trials sets the ``underpowered`` flag.
    """
    from scipy.stats import ks_2samp  # imported here: scipy.stats dominates import time

    tests = {name: ks_2samp(va, vb) for name, (va, vb) in samples.items()}
    results = {name: {"ks_statistic": float(t.statistic), "pvalue": float(t.pvalue)} for name, t in tests.items()}
    return {"trials": trials, "underpowered": trials < 100, "results": results}


def roots_of_unity_design(count):
    """The single-mode design {e^{2 pi i j / count}} as a stack (count, 1, 1).

    Exact for phase moments of order < count.
    """
    return np.exp(1j * (2 * np.pi * np.arange(count) / count)).reshape(-1, 1, 1)


def haar_design(n, size, rng):
    """A finite design of ``size`` Haar samples, a stack (size, n, n); approximate at any degree."""
    return haar_unitary_stack(n, size, rng)


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
        """The fields, each complex moment as [real, imag]."""
        return {name: {k: [v.real, v.imag] for k, v in value.items()} if name.startswith("moments_") else value
                for name, value in vars(self).items()}


# Monomials up to total degree 2 * degree are averaged one exponent pair at a
# time and conjugate pairs share one, so each side of each average takes
# about degree ** 2 passes over its amplitudes.
MAX_DESIGN_DEGREE = 8


def _monomial_exponents(degree):
    return [(p, q) for total in range(1, 2 * degree + 1)
            for p in range(total + 1) for q in [total - p]]


def require_design(size, degree):
    """The rules of :func:`finite_design_average` on a design's element count and the degree."""
    require(("design", size >= 1, "must have at least one element"),
            ("degree", 1 <= degree <= MAX_DESIGN_DEGREE, f"must lie in [1, {MAX_DESIGN_DEGREE}]"))


def haar_rotated_pairs(pairs, replicates, rng):
    """``U [a b]`` under ``replicates`` independent Haar U per amplitude pair.

    ``pairs`` is a stack (samples, n, 2) of columns [a b]; returns a stack
    (samples, replicates, n, 2).  With the reduced QR [a b] = Q0 R,
    U [a b] = (U Q0) R, and U Q0 has the law of the first k = min(n, 2)
    columns of a Haar unitary, so only those k columns are drawn
    (Mezzadri, arXiv:math-ph/0609050).
    """
    samples, n, _ = pairs.shape
    _, r = np.linalg.qr(pairs)
    frames = haar_unitary_stack(n, samples * replicates, rng, r.shape[-2])
    return frames.reshape(samples, replicates, n, -1) @ r[:, None]


def finite_design_average(sampler, design, degree, rng, samples=200):
    """Moments of symmetrized data: finite-design average vs Haar Monte Carlo.

    ``design`` is a stack of unitaries (size, n, n).  For every mode
    amplitude on each side, monomials a^p conj(a)^q with
    1 <= p+q <= 2*degree are averaged (i) over the design elements and
    (ii) over fresh Haar draws matched to the same sample count, each
    rotating Alice's and Bob's amplitudes of one sample together (see
    :func:`haar_rotated_pairs`), and the worst absolute difference per
    total degree is reported.
    """
    design = np.asarray(design, dtype=complex)
    require_design(len(design), degree)
    n = design.shape[-1]
    batches = [sampler(rng) for _ in range(samples)]
    if any(batch.n != n for batch in batches):
        raise InvalidDimensionError("sampler output does not match the design's mode count")
    replicates = len(design)
    count = samples * replicates
    # (side, samples, n): every sample's mode amplitudes, Alice's then Bob's.
    amps = complex_modes(np.array([[batch.x for batch in batches], [batch.y for batch in batches]]))
    # (kind, side) -> (samples, replicates, n): each sample pushed through every
    # design element (both sides in one GEMM), then under its matched Haar elements.
    pushed = ((amps.reshape(-1, n) @ design.reshape(-1, n).T).reshape(2, samples, replicates, n),
              np.moveaxis(haar_rotated_pairs(amps.transpose(1, 2, 0), replicates, rng), -1, 0))

    exponents = _monomial_exponents(degree)
    # (kind, side, exponent, mode) averages and the Haar standard error.
    mean = np.empty((2, 2, len(exponents), n), dtype=complex)
    se = np.empty((2, len(exponents), n))
    for kind, side in np.ndindex(2, 2):
        sym = pushed[kind][side]
        # numpy's complex power commutes exactly with conj, so a^p conj(a^q) is a^p conj(a)^q.
        powers = [None, sym] + [sym ** k for k in range(2, 2 * degree + 1)]
        # Reversed, so the conjugate (q, p) of each p < q entry, q - p entries on, is done first.
        for e, (p, q) in reversed(list(enumerate(exponents))):
            if p < q:  # a^p conj(a)^q is the exact conjugate of a^q conj(a)^p
                mean[kind, side, e], se[side, e] = mean[kind, side, e + q - p].conj(), se[side, e + q - p]
                continue
            term = np.multiply(powers[p], powers[q].conj()) if q else powers[p]  # `*` may swap operands
            mean[kind, side, e] = term.mean(axis=(0, 1))
            if kind:
                se[side, e] = np.sqrt((term.real.var(axis=(0, 1)) + term.imag.var(axis=(0, 1))) / count)

    keys = [f"{side}:{mode}:{p}:{q}" for side in "xy" for p, q in exponents for mode in range(n)]
    totals = np.array([p + q for p, q in exponents])
    diff = mean[0] - mean[1]
    # hypot, as Python's abs(complex), so each maximum is exactly |design - haar| of
    # a reported key; np.abs can differ in the last bit.
    disc = np.hypot(diff.real, diff.imag).max(axis=(0, 2))
    se_max = se.max(axis=(0, 2))
    return DesignCompareReport(
        n=n, degree=degree, design_size=replicates, samples=samples, matched_count=count,
        moments_design=dict(zip(keys, mean[0].ravel().tolist())),
        moments_haar=dict(zip(keys, mean[1].ravel().tolist())),
        max_discrepancy_by_degree={d: float(disc[totals == d].max()) for d in range(1, 2 * degree + 1)},
        stderr_by_degree={d: float(se_max[totals == d].max()) for d in range(1, 2 * degree + 1)})
