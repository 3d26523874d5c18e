"""Collective-Gaussian-attack key rate from estimated channel parameters.

All formulas are pinned to the package noise convention (see
:mod:`cvsym.protocol`): data y = sqrt(T) x + noise with conditional
variance 1 + T xi / 2 per coordinate.  The entangled-picture covariance
matrix in shot-noise units is then

    gamma_AB = [[V I2, c sigma_z], [c sigma_z, B I2]]

with V = variance_a + 1, B = T (V - 1) + 1 + T xi and
c = sqrt(T (V^2 - 1)).  The heterodyne mutual information and the Holevo
bound (via the purification argument and the Gaussian entropy function of
the symplectic eigenvalues) follow from this single construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError, PreconditionError, require
from .stats import Moments, block_array

MIN_ESTIMATION_COORDS = 2000  # 10^3 modes
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ChannelEstimate:
    """Estimated channel parameters plus the reconciliation efficiency; ``variance_a`` = V - 1 keeps the digits
    of a small modulation variance that V rounds away (``v_variance - 1`` unless given)."""

    transmittance: float
    excess_noise: float
    v_variance: float
    beta: float
    se_transmittance: float = 0.0
    se_excess_noise: float = 0.0
    variance_a: float | None = None

    def __post_init__(self):
        require(("transmittance", 0.0 <= self.transmittance <= 1.0, "must lie in [0, 1]"),
                ("excess_noise", self.excess_noise >= 0, "must be >= 0"),
                ("v_variance", self.v_variance >= 1.0, "must be >= 1"),
                ("beta", 0.0 < self.beta <= 1.0, "must lie in (0, 1]"))
        if self.variance_a is None:
            object.__setattr__(self, "variance_a", self.v_variance - 1.0)


@dataclass(frozen=True)
class ChannelMoments:
    """Mergeable summary of paired coordinate data for the channel estimate.

    A ratio plus a :class:`~cvsym.stats.Moments`: ``ratio`` is
    sum(x y) / sum(x^2), and ``moments`` summarizes one row per mode,
    u = (|e|^2, e.x, |x|^2) with e = y - ratio x over the mode's two
    quadratures.  Under a mixture channel a mode's quadratures share one
    component, so only whole modes are independent.  Two summaries merge by
    shearing both to their common ratio, which is linear in u, and then by
    :meth:`~cvsym.stats.Moments.merge`.  Raw (x^2, xy, y^2) moments would
    merge more simply but lose digits as the modulation variance grows,
    since e^2 is a small difference of large terms.
    """

    ratio: float
    moments: Moments

    @classmethod
    def from_data(cls, x, y):
        """Summary of one block of interleaved modes, reduced in the block array "rows"; no BLAS."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        u = block_array("rows", (3, x.size))
        np.multiply(x, x, out=u[2])
        sxx = u[2].sum()
        ratio = float(np.einsum("i,i->", x, y) / sxx) if sxx > 0.0 else 0.0
        e = np.multiply(x, ratio, out=u[1])
        np.subtract(y, e, out=e)
        np.multiply(e, e, out=u[0])
        e *= x
        # Each mode's two quadratures, added in place: a new array would outgrow the block budget.
        rows = u[:, 0::2]
        rows += u[:, 1::2]
        return cls(ratio, Moments.of_rows(rows))

    def sheared(self, ratio):
        """The same data summarized against ``ratio``: e' = e - (ratio - self.ratio) x."""
        d = ratio - self.ratio
        shear = np.array([[1.0, -2.0 * d, d * d], [0.0, 1.0, -d], [0.0, 0.0, 1.0]])
        m = self.moments
        return ChannelMoments(ratio, Moments(m.count, shear @ m.mean, shear @ m.centred @ shear.T))

    @classmethod
    def merge(cls, parts):
        """One summary of the concatenated data of ``parts``, merged in order."""
        sxx = sum(p.moments.count * p.moments.mean[2] for p in parts)
        sxy = sum(p.moments.count * (p.moments.mean[1] + p.ratio * p.moments.mean[2]) for p in parts)
        ratio = float(sxy / sxx) if sxx > 0.0 else 0.0
        return cls(ratio, Moments.merge([p.sheared(ratio).moments for p in parts]))

    def estimate(self, modulation_variance, beta):
        """The :class:`ChannelEstimate` of :func:`estimate_channel` from this summary."""
        count, mean, centred = self.moments.count, self.moments.mean, self.moments.centred
        if 2 * count < MIN_ESTIMATION_COORDS:
            raise PreconditionError(f"need at least {MIN_ESTIMATION_COORDS} coordinates, got {2 * count}")
        sxx = float(mean[2])
        if sxx == 0.0:
            raise DegenerateCovarianceError("<x^2> vanishes; transmittance is unidentifiable")
        ratio = self.ratio
        # The delta-method influence of each mode on the ratio is e.x / <|x|^2>.
        se_ratio = float(np.sqrt(centred[1, 1] / count) / sxx / np.sqrt(count))
        t_raw = ratio * ratio
        se_t = 2.0 * abs(ratio) * se_ratio

        # Per coordinate: half of each mode's |e|^2.
        var_res = float(mean[0]) / 2.0
        se_var = float(np.sqrt(centred[0, 0] / count) / np.sqrt(count)) / 2.0
        t_hat = min(max(t_raw, 0.0), 1.0)
        if t_raw > 0.0:
            xi_raw = 2.0 * (var_res - 1.0) / t_raw
            # xi = 2 (v - 1) / T, so se_xi = (2 / T) sqrt(se_v^2 + k^2 se_T^2 - 2 k cov(v, T)) with
            # k = (v - 1) / T.  No t_raw^2 is formed: it overflows at tiny modulation variances.
            k = (var_res - 1.0) / t_raw
            cov_vt = ratio * float(centred[0, 1]) / count / count / sxx
            se_xi = 2.0 / t_raw * np.sqrt(se_var * se_var + (k * se_t) ** 2 - 2.0 * k * cov_vt)
        else:
            xi_raw, se_xi = 0.0, float("inf")
        return ChannelEstimate(
            transmittance=t_hat, excess_noise=max(xi_raw, 0.0),
            v_variance=float(modulation_variance) + 1.0, beta=float(beta),
            se_transmittance=se_t, se_excess_noise=float(se_xi), variance_a=float(modulation_variance))


def estimate_channel(x, y, modulation_variance, beta=0.95):
    """Moment-based channel estimate from paired coordinate data.

    T_hat = (<xy> / <x^2>)^2 and xi_hat solves the conditional-variance
    formula Var(y - sqrt(T) x) = 1 + T xi / 2.  Standard errors are
    first-order (delta method) over i.i.d. modes, the T-xi error
    correlation included.  x and y interleave each mode's two quadratures.
    This is the one-block case of :class:`ChannelMoments`.
    """
    if np.size(x) != np.size(y) or np.size(x) % 2:
        raise PreconditionError("x and y must have equal, even size: two quadratures per mode")
    return ChannelMoments.from_data(x, y).estimate(modulation_variance, beta)


def _entropy_of_excess(excess):
    """G(excess / 2) with G(x) = (x+1) log2(x+1) - x log2 x, summed from terms of one sign."""
    x = excess / 2.0
    if x <= 0.0:
        return 0.0
    if x < 1.0:
        return ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LN2
    return (x * math.log1p(1.0 / x) + math.log1p(x)) / _LN2


def _symplectic_excesses(variance_a, transmittance, excess_noise):
    """nu - 1 of the symplectic eigenvalues (nu_+, nu_-) of gamma_AB and nu_c of Alice's mode given Bob's outcome.

    Each is formed from variance_a = V - 1 as sums of nonnegative terms, so none cancels at any modulation.  With
    u = 1 - T and w = T xi: (nu_+ - nu_-)^2 = (a u - w)^2, (nu_+ + nu_-)^2 = 4 + (a u + w)^2 + 4 (a (u + T w) + w),
    det = nu_+ nu_- = V (u + w) + T, (nu_+ - 1)(nu_- - 1) = w (2u + w) a (a + 2) / (det + 1 + nu_+ + nu_-), and
    nu_c = (V (2u + w) + T) / (B + 1), B = T a + 1 + w.
    """
    a, t = variance_a, transmittance
    u, w = 1.0 - t, t * excess_noise
    squares = (a * u + w) ** 2 + 4.0 * (a * (u + t * w) + w)  # (nu_+ + nu_-)^2 - 4
    total = math.sqrt(4.0 + squares)
    plus = (squares / (total + 2.0) + abs(a * u - w)) / 2.0
    det = a * (u + w) + 1.0 + w
    minus = w * (2.0 * u + w) * a * (a + 2.0) / (det + 1.0 + total) / plus if plus > 0.0 else 0.0
    return plus, minus, a * (2.0 * u + w) / (t * a + 2.0 + w)


@dataclass(frozen=True)
class KeyRateResult:
    rate: float
    mutual_information: float
    holevo_bound: float
    symplectic_eigenvalues: tuple
    conditional_eigenvalue: float
    no_key: bool


def gaussian_keyrate(estimate):
    """Reverse-reconciliation rate beta * I_AB - chi_BE in bits per symbol.

    I_AB is the two-quadrature Gaussian mutual information of the
    heterodyne data; chi_BE comes from the purification argument:
    S(E) = S(AB) and S(E|y_B) = S(A|y_B), each the Gaussian entropy of
    symplectic eigenvalues, taken from their excesses nu - 1 so that a small
    modulation keeps its digits.  Negative rates are clamped to zero and flagged.
    """
    t, xi, a = estimate.transmittance, estimate.excess_noise, estimate.variance_a
    # Bob's variance given Alice's heterodyne outcome is 1 + T xi, so I_AB = log2((B + 1) / (2 + T xi)).
    mutual_information = math.log1p(t * a / (2.0 + t * xi)) / _LN2
    plus, minus, cond = _symplectic_excesses(a, t, xi)
    holevo = max(_entropy_of_excess(plus) + _entropy_of_excess(minus) - _entropy_of_excess(cond), 0.0)

    raw = estimate.beta * mutual_information - holevo
    return KeyRateResult(
        rate=max(raw, 0.0), mutual_information=mutual_information, holevo_bound=holevo,
        symplectic_eigenvalues=(1.0 + plus, 1.0 + minus), conditional_eigenvalue=1.0 + cond,
        no_key=raw < 0.0)
