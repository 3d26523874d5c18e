"""Prepare-and-measure simulation: Gaussian modulation, channel, heterodyne, postselection.

Noise convention (used consistently by every module and test)
--------------------------------------------------------------
Data lives in heterodyne-outcome units where the outcome of measuring the
vacuum has variance 1 per coordinate.  Alice's coordinates are coherent
amplitudes with per-coordinate variance ``variance_a / 2`` so a mode's
complex amplitude has variance ``variance_a`` (the modulation variance,
V - 1 in shot-noise units).  For a channel with transmittance T and excess
noise ``xi`` (defined at the channel output, per quadrature pair):

    y = sqrt(T) * x + g,   Var(g) = 1 + T * xi / 2   per coordinate.

Equivalently, in raw quadrature units the conditional noise is one vacuum
unit, plus one extra vacuum unit added by heterodyne detection, plus the
excess-noise term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, require
from .stats import MomentSummary, cholesky_2x2, covariance_spectrum, sigma_g, sigma_g_centered

# Below the floor the triples' Berry-Esseen bound leaves the float range.  Their covariance's
# condition number grows as variance_a ** 2, and from 3e7 some T = 1 key rates find it degenerate.
MIN_MODULATION_VARIANCE, MAX_MODULATION_VARIANCE = 1e-100, 1e6
# Gauss-Legendre nodes and weights, computed once per count; the arrays are shared, so never written.
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


@dataclass(frozen=True)
class ModulationParams:
    """Alice's Gaussian modulation: mode count and modulation variance (V - 1, SNU)."""

    n: int
    variance_a: float

    def __post_init__(self):
        require(("n", self.n >= 1, "must be >= 1"),
                ("variance_a", MIN_MODULATION_VARIANCE <= self.variance_a <= MAX_MODULATION_VARIANCE,
                 f"must lie in [{MIN_MODULATION_VARIANCE:g}, {MAX_MODULATION_VARIANCE:g}]"))


@dataclass(frozen=True)
class GaussianMixture:
    """Per-mode mixture of Gaussian channels; replaces the base (T, xi) when set."""

    weights: tuple
    transmittances: tuple
    excess_noises: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        t = tuple(float(v) for v in self.transmittances)
        x = tuple(float(v) for v in self.excess_noises)
        require(("weights", 0 < len(w) == len(t) == len(x),
                 "mixture components must have matching non-zero lengths"),
                ("weights", all(v >= 0 for v in w) and abs(sum(w) - 1.0) <= 1e-9,
                 "must be nonnegative and sum to 1"),
                ("transmittances", all(0.0 <= v <= 1.0 for v in t), "must lie in [0, 1]"),
                ("excess_noises", all(v >= 0 for v in x), "must be >= 0"))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "transmittances", t)
        object.__setattr__(self, "excess_noises", x)


@dataclass(frozen=True)
class PhaseDiffusion:
    """Per-mode random phase rotation with standard deviation sigma (radians)."""

    sigma: float

    def __post_init__(self):
        require(("sigma", self.sigma >= 0, "must be >= 0"))


@dataclass(frozen=True)
class ChannelModel:
    """Gaussian loss/excess-noise core with an optional non-Gaussian perturbation."""

    transmittance: float
    excess_noise: float
    perturbation: object = None

    def __post_init__(self):
        require(("transmittance", 0.0 <= self.transmittance <= 1.0, "must lie in [0, 1]"),
                ("excess_noise", self.excess_noise >= 0, "must be >= 0"),
                ("perturbation", self.perturbation is None
                 or isinstance(self.perturbation, (GaussianMixture, PhaseDiffusion)),
                 "must be None, GaussianMixture or PhaseDiffusion"))

    def _gaussian_components(self, modulation):
        a = modulation.variance_a / 2.0
        if isinstance(self.perturbation, GaussianMixture):
            mix = self.perturbation
            weights, channels = list(mix.weights), zip(mix.transmittances, mix.excess_noises)
        else:
            weights, channels = [1.0], [(self.transmittance, self.excess_noise)]
        return weights, [(a, t * a + 1.0 + t * xi / 2.0, float(np.sqrt(t)) * a) for t, xi in channels]

    def _phase_factors(self):
        """(k1, k2) = (E cos phi, E cos^2 phi); both reach their limits (0, 1/2) by sigma = 40."""
        var = min(self.perturbation.sigma, 40.0) ** 2
        return np.exp(-var / 2.0), (1.0 + np.exp(-2.0 * var)) / 2.0

    def mode_moments(self, modulation):
        """Exact mean and covariance of one mode's triple (|x|^2, |y|^2, x.y).

        A mixture mode is two i.i.d. coordinate triples given its component.
        Phase diffusion with core moments (a, b, c) keeps the Gaussian form
        except that phi scales every Z term by k1 = E cos phi, and
        Var Z = 8 k2 c^2 - 4 k1^2 c^2 + 2 (a b - c^2) with k2 = E cos^2 phi.
        """
        weights, comps = self._gaussian_components(modulation)
        if isinstance(self.perturbation, PhaseDiffusion):
            (a, b, c), = comps
            k1, k2 = self._phase_factors()
            cov = 2.0 * sigma_g_centered(a, b, c)
            cov[2, :2] *= k1
            cov[:2, 2] *= k1
            cov[2, 2] = 8.0 * k2 * c * c - 4.0 * k1 * k1 * c * c + 2.0 * (a * b - c * c)
            return 2.0 * np.array([a, b, k1 * c]), cov
        mus = 2.0 * np.array(comps)
        mu = np.asarray(weights, dtype=float) @ mus
        # The law of total covariance: within-component plus between-component terms.
        cov = sum(w * (2.0 * sigma_g_centered(*comp) + np.outer(mu_k - mu, mu_k - mu))
                  for w, comp, mu_k in zip(weights, comps, mus))
        return mu, cov

    def mode_summary(self, modulation, n_psi=40, n_theta=32, n_phi=64):
        """Exact :class:`MomentSummary` of one mode's triple V; nothing is drawn.

        lambda_min comes from :func:`~cvsym.stats.covariance_spectrum`, which keeps its relative
        accuracy on the graded cov of a tiny ``variance_a`` (0 if cov is not positive definite).
        A component (a, b, c), Cholesky factor (l11, l21, l22), has x = l11 |h| e
        and y = l21 |h| R(phi) e + l22 (g1 e + g2 e'): V is quadratic in the standard
        4-d Gaussian (h, g1, g2), so E|V|^3 = E(chi^2_4)^3 = 192 times the mean of
        |V|^3 on its unit sphere.  Gauss-Legendre in psi (|h| = cos psi, density
        sin 2 psi), trapezoid in theta (g1 + i g2 = sin psi e^{i theta}) and in phi,
        weighted by the wrapped normal's Fourier series (README, convergence sweeps).
        """
        mu, cov = self.mode_moments(modulation)
        spectrum = covariance_spectrum(cov)
        lam = 0.0 if spectrum is None else float(spectrum[0][0])
        u, w_psi = _gauss_legendre(n_psi)
        psi = np.pi / 4.0 * (u + 1.0)
        w_psi = w_psi * (192.0 * np.pi / 4.0 * np.sin(2.0 * psi) / n_theta)
        theta = 2.0 * np.pi / n_theta * np.arange(n_theta)
        phi, w_phi = np.zeros(1), np.ones(1)
        if isinstance(self.perturbation, PhaseDiffusion):
            phi, m = 2.0 * np.pi / n_phi * np.arange(n_phi), np.arange(1, n_phi // 2)
            # E cos(m phi) = exp(-m^2 sigma^2 / 2) = k1^(m^2).
            w_phi = (1.0 + 2.0 * self._phase_factors()[0] ** (m * m) @ np.cos(np.outer(m, phi))) / n_phi
        cos, sin, h = np.cos(phi), np.sin(phi), np.cos(psi)[:, None, None]  # axes (psi, theta, phi)
        g1, g2 = np.sin(psi)[:, None, None] * np.array([np.cos(theta), np.sin(theta)])[:, None, :, None]
        third = 0.0
        for weight, (a, b, c) in zip(*self._gaussian_components(modulation)):
            l11, l21, l22 = cholesky_2x2(a, b, c)
            x, s = l11 * h, l21 * h  # |x| and the norm of y's signal part
            z = x * (s * cos + l22 * g1)
            y = s * s + 2.0 * s * l22 * (g1 * cos + g2 * sin) + l22 * l22 * (g1 * g1 + g2 * g2)
            third += weight * np.einsum("i,ijk,k->", w_psi, (x ** 4 + y * y + z * z) ** 1.5, w_phi)
        return MomentSummary(mu, cov, float(third), lam)

    def fourth_moment_matrix(self, modulation):
        """Exact <(x^2, y^2, xy)(x^2, y^2, xy)^T> of one coordinate pair.

        The weighted sum of component ``sigma_g``; phase diffusion scales
        <x^3 y> and <x y^3> by k1 and sets <x^2 y^2> = a b + 2 k2 c^2.
        """
        weights, comps = self._gaussian_components(modulation)
        matrix = sum(w * sigma_g(*comp) for w, comp in zip(weights, comps))
        if isinstance(self.perturbation, PhaseDiffusion):
            (a, b, c), = comps
            k1, k2 = self._phase_factors()
            matrix[2, :2] *= k1
            matrix[:2, 2] *= k1
            matrix[0, 1] = matrix[1, 0] = matrix[2, 2] = a * b + 2.0 * k2 * c * c
        return matrix

    def mixture_components(self, modulation):
        """Per-mode Gaussian components as (weights, [(a, b, c), ...]), or None.

        Conditioned on its component every mode's coordinate pair is exactly
        bivariate normal; phase diffusion has no such finite decomposition,
        so it returns None.
        """
        if isinstance(self.perturbation, PhaseDiffusion):
            return None
        return self._gaussian_components(modulation)


def alice_modulate(params, rng, trials=None):
    """Draw Alice's interleaved 2n-vector of i.i.d. centered Gaussian coordinates.

    With ``trials`` the draw is a (trials, 2n) stack of such vectors.
    """
    size = 2 * params.n if trials is None else (trials, 2 * params.n)
    # The values of rng.normal(0, scale), which is loc + scale * z, without its broadcasting pass.
    x = rng.standard_normal(size)
    x *= np.sqrt(params.variance_a / 2.0)
    return x


def _stacked(x):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[-1] % 2:
        raise InvalidDimensionError("interleaved vectors must have even length")
    return x, squeeze


def channel_and_heterodyne(x, model, rng):
    """Bob's heterodyne outcomes for input x; supports stacked inputs (..., 2n).

    Implements the package noise convention documented in the module
    docstring.  For stacked inputs all per-mode draws are vectorized;
    draw order is fixed, so results are reproducible for a given rng.
    """
    x, squeeze = _stacked(x)
    trials, two_n = x.shape
    n = two_n // 2
    t, xi = model.transmittance, model.excess_noise
    if isinstance(model.perturbation, GaussianMixture):
        mix = model.perturbation
        comp = rng.choice(len(mix.weights), size=(trials, n), p=np.array(mix.weights))
        t = np.repeat(np.array(mix.transmittances)[comp], 2, axis=1)
        xi = np.repeat(np.array(mix.excess_noises)[comp], 2, axis=1)
    if isinstance(model.perturbation, PhaseDiffusion):
        phi = rng.standard_normal((trials, n))
        phi *= model.perturbation.sigma
        cos, sin = np.cos(phi), np.sin(phi, out=phi)
        # In place; IEEE + and * commute, so this equals cos x0 - sin x1 and
        # sin x0 + cos x1 bit for bit.
        signal = np.empty_like(x)
        np.multiply(cos, x[:, 0::2], out=signal[:, 0::2])
        signal[:, 0::2] -= sin * x[:, 1::2]
        np.multiply(sin, x[:, 0::2], out=signal[:, 1::2])
        signal[:, 1::2] += cos * x[:, 1::2]
        signal *= np.sqrt(t)
    else:
        signal = np.sqrt(t) * x
    y = rng.standard_normal(x.shape)
    y *= np.sqrt(1.0 + t * xi / 2.0)
    y += signal
    return y[0] if squeeze else y


@dataclass(frozen=True)
class PostselectionRegion:
    """Mode-local keep/discard rule applied to the measured data.

    rule values: "none" keeps everything; "amplitude-threshold" keeps modes
    with Bob's amplitude |beta_k| >= threshold; "product-threshold" keeps
    modes with |alpha_k| * |beta_k| >= threshold and matching coordinate
    signs on both quadratures.
    """

    rule: str = "none"
    threshold: float = 0.0

    def __post_init__(self):
        require(("rule", self.rule in ("none", "amplitude-threshold", "product-threshold"),
                 "must be none, amplitude-threshold or product-threshold"),
                ("threshold", self.threshold >= 0, "must be >= 0"))


def postselect(x, y, region):
    """Per-mode boolean keep-mask and the acceptance fraction; deterministic."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size % 2:
        raise InvalidDimensionError("x and y must be equal-length even 1-d vectors")
    xs = x.reshape(-1, 2)
    ys = y.reshape(-1, 2)
    if region.rule == "none":
        mask = np.ones(xs.shape[0], dtype=bool)
    elif region.rule == "amplitude-threshold":
        mask = np.hypot(ys[:, 0], ys[:, 1]) >= region.threshold
    else:
        product = np.hypot(xs[:, 0], xs[:, 1]) * np.hypot(ys[:, 0], ys[:, 1])
        signs = (np.sign(xs[:, 0]) == np.sign(ys[:, 0])) & (np.sign(xs[:, 1]) == np.sign(ys[:, 1]))
        mask = (product >= region.threshold) & signs
    return mask, float(mask.mean())
