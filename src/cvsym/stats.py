"""Moment estimation, Gaussian-limit matrices, convergence bounds and distances.

The per-mode reduction of a data batch is the triple V = (X, Y, Z) with
X = |x|^2, Y = |y|^2, Z = x.y restricted to one mode's two coordinates.
Under collective attacks the mode triples are i.i.d., the standardized sum
converges to a 3-d Gaussian, and everything here quantifies that
convergence: the limiting second-moment matrix, its finite-sample
estimator, the quantitative central-limit bound, and total-variation /
Kolmogorov-Smirnov distance estimates.

The printed limit matrix (entries like 3<x^2>^2) is the *uncentered*
second-moment matrix of (X, Y, Z); the centered covariance needed by the
quantitative bound is computed separately.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import erf, kolmogorov, ndtr

from .errors import DegenerateCovarianceError, InvalidDimensionError, PreconditionError, require


def sigma_g(a, b, c):
    """Uncentered second-moment matrix of (X, Y, Z) in the Gaussian model.

    a, b, c are the per-coordinate moments <x^2>, <y^2>, <xy>.  The (3, 3)
    entry <x^2 y^2> equals a b + 2 c^2 for Gaussian data, which makes every
    entry a polynomial in (a, b, c).
    """
    if not (a > 0 and b > 0):
        raise ValueError("<x^2> and <y^2> must be positive")
    if c * c > a * b * (1.0 + 1e-12):
        raise ValueError("<xy>^2 exceeds <x^2><y^2> (Cauchy-Schwarz violation)")
    return np.array([
        [3 * a * a, a * b + 2 * c * c, 3 * a * c],
        [a * b + 2 * c * c, 3 * b * b, 3 * b * c],
        [3 * a * c, 3 * b * c, a * b + 2 * c * c],
    ])


def sigma_g_centered(a, b, c):
    """Centered covariance of (X, Y, Z) per coordinate in the Gaussian model."""
    return np.array([
        [2 * a * a, 2 * c * c, 2 * a * c],
        [2 * c * c, 2 * b * b, 2 * b * c],
        [2 * a * c, 2 * b * c, a * b + c * c],
    ])


@dataclass(frozen=True)
class SigmaEstimate:
    matrix: np.ndarray
    stderr: np.ndarray


# Entries of the symmetric fourth-moment matrix as indices into its five
# distinct products x^4, y^4, x^2 y^2, x^3 y, x y^3.
_FOURTH_MOMENT_ENTRIES = np.array([[0, 2, 3], [2, 1, 4], [3, 4, 2]])


def _fourth_moment_products(x, y):
    """The five distinct fourth-moment products of coordinate arrays, stacked first: (5, ...)."""
    x2, y2, xy = x * x, y * y, x * y
    out = np.empty((5,) + x2.shape)
    np.multiply(x2, x2, out=out[0])
    np.multiply(y2, y2, out=out[1])
    np.multiply(x2, y2, out=out[2])
    np.multiply(x2, xy, out=out[3])
    np.multiply(y2, xy, out=out[4])
    return out


def _fourth_moment_matrix(values):
    """Symmetric (..., 3, 3) matrices from (5, ...) values of the five distinct products.

    C-contiguous: reductions over the result, as in
    :func:`summarize_scaled_errors`, then add in the same order whether or
    not the array went through a worker process.
    """
    return np.ascontiguousarray(np.moveaxis(values[_FOURTH_MOMENT_ENTRIES], (0, 1), (-2, -1)))


def sigma_est(samples):
    """Empirical fourth-moment matrix over coordinate pairs with CLT standard errors.

    ``samples`` is (m, 2): in the protocol, the fraction of the data
    sacrificed for estimation.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise InvalidDimensionError(f"expected (m, 2) samples, got {samples.shape}")
    m = samples.shape[0]
    if m < 2:
        raise PreconditionError(f"need at least 2 samples for an estimate, got {m}")
    products = _fourth_moment_products(samples[:, 0], samples[:, 1])
    return SigmaEstimate(_fourth_moment_matrix(products.mean(axis=1)),
                         _fourth_moment_matrix(products.std(axis=1, ddof=1)) / np.sqrt(m))


# Jacobi stops once no column pair has |cos angle| above the tolerance, within a few sweeps.
_JACOBI_TOL, _JACOBI_MAX_SWEEPS = 4.0 * np.finfo(float).eps, 10


def covariance_spectrum(cov):
    """Ascending eigenvalues and eigenvector columns of a positive-definite 3x3 covariance, or None.

    None when the Cholesky factorization cov = L L^T fails.  One-sided Jacobi
    rotates the columns of L^T to orthogonality: their squared norms are the
    eigenvalues, the accumulated rotation holds the eigenvectors.  Every
    eigenpair of a graded cov (D A D, A well conditioned) keeps its relative
    accuracy, which a symmetric eigensolver loses below eps * the largest
    eigenvalue (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)).
    """
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return None
    columns = np.vstack([lower.T, np.eye(3)])  # L^T above the accumulated rotation
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            gi, gj = columns[:3, i], columns[:3, j]
            alpha, beta, gamma = gi @ gi, gj @ gj, gi @ gj
            if abs(gamma) <= _JACOBI_TOL * np.sqrt(alpha) * np.sqrt(beta):
                continue
            # The rotation by t = tan(angle) that makes columns i and j orthogonal.
            zeta = (beta - alpha) / (2.0 * gamma)
            t = np.copysign(1.0, zeta) / (abs(zeta) + np.hypot(1.0, zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            columns[:, [i, j]] = columns[:, [i, j]] @ np.array([[c, c * t], [-c * t, c]])
            rotated = True
        if not rotated:
            break
    values = np.einsum("ij,ij->j", columns[:3], columns[:3])
    order = np.argsort(values)
    return values[order], columns[3:, order]


@dataclass(frozen=True)
class MomentSummary:
    """First three moment summaries of the per-mode triples."""

    mean: np.ndarray
    covariance: np.ndarray
    third_abs: float
    lambda_min: float

    @classmethod
    def from_triples(cls, triples):
        triples = np.asarray(triples, dtype=float)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise InvalidDimensionError(f"expected (m, 3) triples, got {triples.shape}")
        mu = triples.mean(axis=0)
        centered = triples - mu
        cov = centered.T @ centered / triples.shape[0]
        norm_sq = np.sum(triples * triples, axis=1)
        third = float(np.mean(norm_sq * np.sqrt(norm_sq)))
        spectrum = covariance_spectrum(cov)
        return cls(mu, cov, third, 0.0 if spectrum is None else float(spectrum[0][0]))


def berry_esseen_bound(summary, n):
    """Quantitative central-limit bound in "bound / c" units: sqrt(3) lambda_min^{-3/2} E|V|^3 / sqrt(n).

    The caller scales it by the universal constant c.
    """
    if n < 1:
        raise InvalidDimensionError("n must be >= 1")
    if summary.lambda_min <= 0:
        raise DegenerateCovarianceError("covariance of the triples is degenerate")
    with np.errstate(over="ignore"):
        bound = float(np.sqrt(3.0) * np.float64(summary.lambda_min) ** -1.5 * summary.third_abs / np.sqrt(n))
    if not np.isfinite(bound):
        raise DegenerateCovarianceError(
            f"covariance of the triples is nearly degenerate: lambda_min = {summary.lambda_min:.3e} "
            "puts the bound outside the float range")
    return bound


def gaussian_tv_1d(sigma1, sigma2):
    """Integrated absolute density difference of two centered normals.

    Equals 2 erf(s2 sqrt(L)) - 2 erf(s1 sqrt(L)) with
    L = ln(s2/s1) / (s2^2 - s1^2) for s2 > s1; symmetric in its arguments
    and 0 at equality by continuity.
    """
    if not (sigma1 > 0 and sigma2 > 0):
        raise ValueError("standard deviations must be positive")
    lo, hi = sorted((float(sigma1), float(sigma2)))
    if lo == hi:
        return 0.0
    ratio = np.log(hi / lo) / (hi * hi - lo * lo)
    return float(2.0 * erf(hi * np.sqrt(ratio)) - 2.0 * erf(lo * np.sqrt(ratio)))


def gaussian_tv_first_order(sigma1, delta):
    """First-order expansion of :func:`gaussian_tv_1d` at sigma2 = sigma1 + delta."""
    if not sigma1 > 0:
        raise ValueError("sigma1 must be positive")
    return float(delta * np.sqrt(8.0 / (np.e * np.pi * sigma1 ** 2)))


def _inverse_sqrt(cov):
    """The symmetric cov^(-1/2), so whitening rotates no axis."""
    spectrum = covariance_spectrum(cov)
    if spectrum is None:
        raise DegenerateCovarianceError("reference covariance is not positive definite")
    vals, vecs = spectrum
    return (vecs / np.sqrt(vals)) @ vecs.T


@dataclass(frozen=True)
class TvDiagnostics:
    """Histogram TV estimate plus KS statistics of a whitened 3-d sample against N(0, I_3).

    ``tv_estimate`` compares equal-mass cell frequencies with exact
    reference cell probabilities; ``tv_bias_bound`` is its plug-in bias
    bound sqrt(K / N) for K = bins_per_axis^3 cells and N samples.
    ``ks_corrected`` subtracts the finite-sample noise floor in quadrature:
    sqrt(max(D^2 - floor^2, 0)) where ``ks_floor`` is the closed-form mean
    null KS statistic at the same sample size (:func:`ks_null_mean`,
    Marsaglia, Tsang & Wang 2003).  The raw statistic of a sample at true
    distance well below the floor is dominated by the floor; the corrected
    value tracks the distance.  ``ks_pvalues`` are exact below
    ``KS_ASYMPTOTIC_MIN_N`` = 10^4 samples and from Kolmogorov's limit law
    from there on.
    """

    tv_estimate: float
    tv_bias_bound: float
    bins_per_axis: int
    sample_count: int
    ks_raw: dict
    ks_pvalues: dict
    ks_corrected: dict
    ks_floor: float
    ks_max: float
    ks_max_corrected: float

    def to_dict(self):
        return asdict(self)


# From this sample size on, KS p-values come from the Kolmogorov limit law;
# against the exact law it is within 2.5 % relative at N = 1e4 for p in
# [1e-8, 0.5], and the exact law costs O(N) per small p-value.
KS_ASYMPTOTIC_MIN_N = 10_000

# Fewest samples :func:`empirical_tv_3d` accepts.
MIN_TV_SAMPLES = 1000


def ks_null_mean(count):
    """Mean of the one-sample two-sided KS statistic under the null hypothesis.

    Closed form sqrt(pi/2) ln 2 / sqrt(N) - 1 / (6 N) from the expansion of
    Kolmogorov's distribution (Marsaglia, Tsang & Wang, J. Stat. Softw.
    8(18), 2003); within 1e-4 relative of the exact mean from N = 1000 on.
    """
    return float(np.sqrt(np.pi / 2.0) * np.log(2.0) / np.sqrt(count) - 1.0 / (6.0 * count))


def _ks_steps(count):
    """Empirical CDF just after and just before each order statistic, as kstest forms them, and a block length.

    A block of about sqrt(N) / 6 values overstates its exact values by about
    1 / (6 sqrt(N)); below 5000 values one full pass beats the pruned scan.
    """
    block = round(np.sqrt(count) / 6.0) if count >= 5000 else 0
    return np.arange(1.0, count + 1) / count, np.arange(0.0, count) / count, block


def _ks_statistic_sorted(sorted_values, steps):
    """Two-sided KS distance of ascending values from N(0, 1); ``steps`` is ``_ks_steps(N)``.

    Bit for bit the value of ``scipy.stats.kstest(values, "norm")``, but ndtr
    runs first at block end points and past the last whole block.  Phi is
    monotone, so a block's values reach at most after[last] - Phi(first) and
    Phi(last) - before[first]; only blocks reaching the best exact value so
    far are evaluated in full.
    """
    after, before, block = steps
    head = len(sorted_values) - len(sorted_values) % block if block else 0
    cdf = ndtr(sorted_values[head:])
    best = max((after[head:] - cdf).max(initial=0.0), (cdf - before[head:]).max(initial=0.0))
    if head:
        values, after, before = (a[:head].reshape(-1, block) for a in (sorted_values, after, before))
        ends = ndtr(values[:, ::block - 1])
        best = max(best, (after[:, ::block - 1] - ends).max(), (ends - before[:, ::block - 1]).max())
        reach = np.maximum(after[:, -1] - ends[:, 0], ends[:, 1] - before[:, 0])
        # The slack covers ndtr's rounding: at adjacent floats it can step down an ulp.
        pick = reach >= best - 1e-12
        cdf = ndtr(values[pick])
        best = max(best, (after[pick] - cdf).max(initial=0.0), (cdf - before[pick]).max(initial=0.0))
    return float(best)


def _ks_pvalues(statistics, count):
    """Two-sided KS p-values: exact below ``KS_ASYMPTOTIC_MIN_N`` samples, Kolmogorov's limit above."""
    statistics = np.asarray(statistics, dtype=float)
    if count < KS_ASYMPTOTIC_MIN_N:
        # Imported here: scipy.stats is most of the package's import time.
        from scipy.stats import kstwo

        pvalues = kstwo.sf(statistics, count)
    else:
        pvalues = kolmogorov(statistics * np.sqrt(count))
    return np.clip(pvalues, 0.0, 1.0)


def _equal_mass_edges(sorted_values, bins):
    """Interior edges of ``bins`` equal-mass bins, read by index from ascending values.

    Equal to ``np.quantile(values, np.linspace(0, 1, bins + 1)[1:-1])``,
    whose linear interpolation this repeats, without its partition pass.
    """
    position = (len(sorted_values) - 1) * np.linspace(0.0, 1.0, bins + 1)[1:-1]
    below = np.floor(position)
    weight = position - below
    below = below.astype(np.intp)
    lo, hi = sorted_values[below], sorted_values[below + 1]
    step = hi - lo
    return np.where(weight >= 0.5, hi - step * (1.0 - weight), lo + step * weight)


def empirical_tv_3d(samples, mean, cov, rng, bins_per_axis=None, projections=6):
    """Distance diagnostics between 3-d samples and the Gaussian N(mean, cov).

    The samples are whitened once, to z = (samples - mean) cov^(-1/2), and
    every diagnostic is taken in z against N(0, I_3):

    * TV: equal-mass binning of each whitened axis into ceil(N^(1/5))
      bins.  The bins are axis-aligned, so each reference cell probability
      is exactly a product of three 1-d normal CDF differences; the plug-in
      estimate carries the bias bound sqrt(total_bins / N).  Density
      differences in 3-d are bias-dominated, so the KS statistics are the
      headline diagnostics.
    * KS: the three whitened axes and ``projections`` random unit
      directions, each sorted once; p-values from :func:`_ks_pvalues`, null
      floor from :func:`ks_null_mean`.

    ``rng`` draws only the projection directions: 3 * projections standard
    normals.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise InvalidDimensionError(f"expected (N, 3) samples, got {samples.shape}")
    count = samples.shape[0]
    if count < MIN_TV_SAMPLES:
        raise PreconditionError(f"need >= {MIN_TV_SAMPLES} samples, got {count}")
    whiten = _inverse_sqrt(np.asarray(cov, dtype=float))
    z = (samples - np.asarray(mean, dtype=float)) @ whiten

    bins = int(bins_per_axis or np.ceil(count ** 0.2))
    steps = _ks_steps(count)
    values = np.empty(count)  # every statistic sorts into this buffer
    cell = np.zeros(count, dtype=np.int64)
    reference = np.ones(1)
    ks_raw = {}
    for k in range(3):
        row = np.ascontiguousarray(z[:, k])
        values[:] = row
        values.sort()
        ks_raw[f"axis{k}"] = _ks_statistic_sorted(values, steps)
        edges = _equal_mass_edges(values, bins)
        cell *= bins
        for edge in edges:  # the index searchsorted(edges, row, side="right") gives
            cell += row >= edge
        mass = np.diff(ndtr(np.concatenate(([-np.inf], edges, [np.inf]))))
        reference = np.multiply.outer(reference, mass).ravel()
    total_bins = bins ** 3
    p_hat = np.bincount(cell, minlength=total_bins) / count
    tv_estimate = 0.5 * float(np.abs(p_hat - reference).sum())
    tv_bias_bound = float(np.sqrt(total_bins / count))

    for j in range(projections):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        np.matmul(z, direction, out=values)
        values.sort()
        ks_raw[f"proj{j}"] = _ks_statistic_sorted(values, steps)

    pvalues = _ks_pvalues(list(ks_raw.values()), count)
    ks_pvalues = {name: float(p) for name, p in zip(ks_raw, pvalues)}
    ks_floor = ks_null_mean(count)
    ks_corrected = {name: float(np.sqrt(max(val * val - ks_floor * ks_floor, 0.0)))
                    for name, val in ks_raw.items()}
    return TvDiagnostics(
        tv_estimate=tv_estimate, tv_bias_bound=tv_bias_bound, bins_per_axis=bins,
        sample_count=count, ks_raw=ks_raw, ks_pvalues=ks_pvalues,
        ks_corrected=ks_corrected, ks_floor=ks_floor, ks_max=max(ks_raw.values()),
        ks_max_corrected=max(ks_corrected.values()))


def columnwise_shape_stats(z):
    """Sample skewness and excess kurtosis per column, with i.i.d.-Gaussian standard errors.

    Each centred column is scaled by the power of two that puts its largest
    magnitude in [1/2, 1), which is exact, and then standardized before any
    power, so no power can underflow.  A constant column reports 0 for both.
    """
    rows = np.array(np.asarray(z, dtype=float).T, order="C")
    count = rows.shape[1]
    rows -= rows.mean(axis=1, keepdims=True)
    np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None], out=rows)
    scale = np.sqrt(np.einsum("ij,ij->i", rows, rows) / count)
    rows /= np.where(scale > 0, scale, 1.0)[:, None]
    squared = rows * rows
    skew = np.einsum("ij,ij->i", squared, rows) / count
    kurt = np.where(scale > 0, np.einsum("ij,ij->i", squared, squared) / count - 3.0, 0.0)
    return skew, kurt, float(np.sqrt(6.0 / count)), float(np.sqrt(24.0 / count))


def cholesky_2x2(a, b, c):
    """Lower Cholesky factor (l11, l21, l22) of [[a, c], [c, b]].

    l22 is clamped at 0, so a pair at Cauchy-Schwarz equality (c^2 = a b,
    up to rounding) gets a finite, degenerate factor.
    """
    l11 = np.sqrt(a)
    return l11, c / l11, np.sqrt(max(b - c * c / a, 0.0))


@dataclass(frozen=True)
class BivariateMixture:
    """Centered coordinate-pair law: a mixture of bivariate normals with moments (a, b, c).

    Under a Gaussian-mixture channel each coordinate pair follows one
    component; a single component is the Gaussian case.
    """

    weights: tuple
    components: tuple

    def __post_init__(self):
        for a, b, c in self.components:
            if not (a > 0 and b > 0):
                raise ValueError("variances must be positive")
            if c * c > a * b:
                raise ValueError("correlation violates Cauchy-Schwarz")

    def draw(self, m, rng):
        """(m, 2) pairs; one component draws no component labels."""
        k = len(self.weights)
        labels = rng.choice(k, size=m, p=np.asarray(self.weights)) if k > 1 else 0
        g = rng.standard_normal((m, 2))
        # Each pair takes the Cholesky factor (l11, l21, l22) of its component.
        l11, l21, l22 = np.array([cholesky_2x2(*comp) for comp in self.components]).T[:, labels]
        return np.column_stack([l11 * g[:, 0], l21 * g[:, 0] + l22 * g[:, 1]])

    def fourth_moment_matrix(self):
        return sum(w * sigma_g(*comp) for w, comp in zip(self.weights, self.components))


def GaussianBivariate(a, b, c):
    """Centered bivariate normal coordinate model: the one-component :class:`BivariateMixture`."""
    return BivariateMixture((1.0,), ((a, b, c),))


@dataclass(frozen=True)
class EstimationErrorReport:
    """Distribution summary of the scaled estimator error sqrt(m) (est - truth)."""

    trials: int
    m: int
    mean: np.ndarray
    std: np.ndarray
    se_mean: np.ndarray
    skew: np.ndarray
    excess_kurtosis: np.ndarray

    def to_dict(self):
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in vars(self).items()}


# Fewest and most samples per estimate in the estimation-error study.  A
# trial holds 64 bytes per sample at once (five fourth-moment products and
# three second-order ones), so the cap keeps one trial under 80 MB.
MIN_ESTIMATION_SAMPLES, MAX_ESTIMATION_SAMPLES = 10, 1 << 20


def scaled_estimation_errors(model, m, trials, rng):
    """Per-trial scaled errors sqrt(m) (Sigma_est - E Sigma_est), shape (trials, 3, 3)."""
    require(("m", MIN_ESTIMATION_SAMPLES <= m <= MAX_ESTIMATION_SAMPLES,
             f"must lie in [{MIN_ESTIMATION_SAMPLES}, {MAX_ESTIMATION_SAMPLES}]"))
    truth = model.fourth_moment_matrix()
    draws = model.draw(trials * m, rng).reshape(trials, m, 2)
    est = _fourth_moment_matrix(_fourth_moment_products(draws[..., 0], draws[..., 1]).mean(axis=-1))
    return np.sqrt(m) * (est - truth)


def summarize_scaled_errors(errors, m):
    """Distribution summary of scaled errors from :func:`scaled_estimation_errors` at sample size m."""
    errors = np.asarray(errors, dtype=float)
    trials = errors.shape[0]
    mean = errors.mean(axis=0)
    std = errors.std(axis=0)
    skew, kurt, _, _ = columnwise_shape_stats(errors.reshape(trials, 9))
    return EstimationErrorReport(
        trials=trials, m=m, mean=mean, std=std,
        se_mean=std / np.sqrt(trials), skew=skew.reshape(3, 3), excess_kurtosis=kurt.reshape(3, 3))


def estimation_error_mc(model, m, trials, rng):
    """Monte Carlo distribution of the scaled estimator error for a coordinate model.

    For a model with finite eighth moments the scaled error is asymptotically
    centered normal entry-wise; the report carries the empirical mean (with
    standard errors), spread, and shape diagnostics.
    """
    return summarize_scaled_errors(scaled_estimation_errors(model, m, trials, rng), m)
