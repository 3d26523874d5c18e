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
from .stats import BivariateMixture, MomentSummary, block_array, cholesky_2x2, covariance_spectrum, sigma_g_centered

# Below the floor the triples' Berry-Esseen bound leaves the float range.  Their covariance's
# condition number grows as variance_a ** 2, and from 3e7 some T = 1 key rates find it degenerate.
MIN_MODULATION_VARIANCE, MAX_MODULATION_VARIANCE = 1e-100, 1e6
# At the modulation floor a key rate's Berry-Esseen bound leaves the float range for xi = 1000, not for 100.
# phi = sigma * g overflows for |g| > 1.8 at sigma = 1e308; 1e300 leaves every drawn phi finite.
MAX_EXCESS_NOISE, MAX_PHASE_SIGMA = 100.0, 1e300
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
    """The mixture channel: each mode draws one Gaussian channel (T_k, xi_k) for both its quadratures.

    Its one-component case is the Gaussian channel.  A sweep runs the runner's kernel named ``sweep_kernel``.
    """

    weights: tuple
    transmittances: tuple
    excess_noises: tuple
    sweep_kernel = "wishart_triples"

    def __post_init__(self):
        for name in ("weights", "transmittances", "excess_noises"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        w, t, x = self.weights, self.transmittances, self.excess_noises
        require(("weights", 0 < len(w) == len(t) == len(x),
                 "mixture components must have matching non-zero lengths"),
                ("weights", all(v >= 0 for v in w) and abs(sum(w) - 1.0) <= 1e-9,
                 "must be nonnegative and sum to 1"),
                ("transmittances", all(0.0 <= v <= 1.0 for v in t), "must lie in [0, 1]"),
                ("excess_noises", all(0.0 <= v <= MAX_EXCESS_NOISE for v in x),
                 f"must lie in [0, {MAX_EXCESS_NOISE:g}]"))
        # heterodyne's constants: not fields, so ==, hash and repr see only the law; shared, so never written.
        t, cdf = np.array(t), np.cumsum(w)
        for name, value in (("_root_t", np.sqrt(t)), ("_scale", np.sqrt(1.0 + t * np.array(x) / 2.0)),
                            ("_cdf", cdf / cdf[-1])):
            object.__setattr__(self, name, value)

    def components(self, modulation):
        """A coordinate pair's law: one bivariate normal, moments (a, b, c) = (<x^2>, <y^2>, <xy>), per component."""
        a = modulation.variance_a / 2.0
        return BivariateMixture(self.weights, tuple((a, t * a + 1.0 + t * xi / 2.0, float(np.sqrt(t)) * a)
                                                    for t, xi in zip(self.transmittances, self.excess_noises)))

    def mode_moments(self, modulation):
        """Exact mean and covariance of one mode's triple (|x|^2, |y|^2, x.y): two i.i.d. coordinate triples given
        its component, so the law of total covariance adds within- and between-component terms."""
        law = self.components(modulation)
        mus = 2.0 * np.array(law.components)
        mu = np.asarray(law.weights) @ mus
        cov = sum(w * (2.0 * sigma_g_centered(*comp) + np.outer(mu_k - mu, mu_k - mu))
                  for w, comp, mu_k in zip(law.weights, law.components, mus))
        return mu, cov

    def fourth_moment_matrix(self, modulation):
        """Exact <(x^2, y^2, xy)(x^2, y^2, xy)^T> of one coordinate pair."""
        return self.components(modulation).fourth_moment_matrix()

    def phase_axis(self, n_phi):
        """The phi nodes and weights of :meth:`mode_summary`'s quadrature: no rotation."""
        return np.zeros(1), np.ones(1)

    def mode_summary(self, modulation, n_psi=40, n_theta=32, n_phi=64):
        """Exact :class:`MomentSummary` of one mode's triple V; nothing is drawn.

        lambda_min comes from :func:`~cvsym.stats.covariance_spectrum`, which keeps its relative
        accuracy on the graded cov of a tiny ``variance_a`` (0 if cov is not positive definite).
        A component (a, b, c), Cholesky factor (l11, l21, l22), has x = l11 |h| e
        and y = l21 |h| R(phi) e + l22 (g1 e + g2 e'): V is quadratic in the standard
        4-d Gaussian (h, g1, g2), so E|V|^3 = E(chi^2_4)^3 = 192 times the mean of
        |V|^3 on its unit sphere.  Gauss-Legendre in psi (|h| = cos psi, density
        sin 2 psi), trapezoid in theta (g1 + i g2 = sin psi e^{i theta}), phi on :meth:`phase_axis`.
        """
        mu, cov = self.mode_moments(modulation)
        spectrum = covariance_spectrum(cov)
        lam = 0.0 if spectrum is None else float(spectrum[0][0])
        u, w_psi = _gauss_legendre(n_psi)
        psi = np.pi / 4.0 * (u + 1.0)
        w_psi = w_psi * (192.0 * np.pi / 4.0 * np.sin(2.0 * psi) / n_theta)
        theta = 2.0 * np.pi / n_theta * np.arange(n_theta)
        phi, w_phi = self.phase_axis(n_phi)
        cos, sin, h = np.cos(phi), np.sin(phi), np.cos(psi)[:, None, None]  # axes (psi, theta, phi)
        g1, g2 = np.sin(psi)[:, None, None] * np.array([np.cos(theta), np.sin(theta)])[:, None, :, None]
        third = 0.0
        law = self.components(modulation)
        for weight, (a, b, c) in zip(law.weights, law.components):
            l11, l21, l22 = cholesky_2x2(a, b, c)
            x, s = l11 * h, l21 * h  # |x| and the norm of y's signal part
            z = x * (s * cos + l22 * g1)
            y = s * s + 2.0 * s * l22 * (g1 * cos + g2 * sin) + l22 * l22 * (g1 * g1 + g2 * g2)
            third += weight * np.einsum("i,ijk,k->", w_psi, (x ** 4 + y * y + z * z) ** 1.5, w_phi)
        return MomentSummary(mu, cov, float(third), lam)

    def sweep_law(self, modulation):
        """The sweep kernel's args after (n, trials), and a trial's cost in a block's coordinates: exact totals."""
        law = self.components(modulation)
        return (law.weights, law.components), 1

    def heterodyne(self, x, rng, out=None):
        """Bob's outcomes for a (trials, 2n) stack x, in ``out`` if given: each mode's component, then the noise.
        Block array "rows" holds sqrt(T) x and, gathered by component label, each mode's sqrt(T) and noise scale."""
        root_t, scale = self._root_t, self._scale
        signal, per_mode = block_array("rows", (2, *x.shape))
        if len(root_t) > 1:  # the labels of rng.choice(k, (trials, n), p=weights), uniforms in the cumulative weights
            per_mode = per_mode.reshape(2, len(x), -1)
            labels = np.searchsorted(self._cdf, rng.random(out=per_mode[0]), side="right")
            root_t, scale = np.take(root_t, labels, out=per_mode[0]), np.take(scale, labels, out=per_mode[1])
        np.multiply(x.reshape(len(x), -1, 2), root_t[..., None], out=signal.reshape(len(x), -1, 2))
        y = rng.standard_normal(x.shape, out=out)
        modes = y.reshape(len(y), -1, 2)  # a view: y is contiguous
        modes *= scale[..., None]
        y += signal
        return y


@dataclass(frozen=True)
class PhaseDiffusionChannel(GaussianMixture):
    """The phase-diffusion channel: a one-component core after a per-mode rotation phi ~ N(0, sigma^2)."""

    sigma: float
    sweep_kernel = "coordinate_triples"

    def _phase_factors(self):
        """(k1, k2) = (E cos phi, E cos^2 phi); both reach their limits (0, 1/2) by sigma = 40."""
        var = min(self.sigma, 40.0) ** 2
        return np.exp(-var / 2.0), (1.0 + np.exp(-2.0 * var)) / 2.0

    def mode_moments(self, modulation):
        """The core's, except that phi scales every Z term by k1 = E cos phi and, with the core's (a, b, c)
        and k2 = E cos^2 phi, Var Z = 8 k2 c^2 - 4 k1^2 c^2 + 2 (a b - c^2)."""
        (a, b, c), = self.components(modulation).components
        (k1, k2), (mu, cov) = self._phase_factors(), super().mode_moments(modulation)
        mu[2] *= k1
        cov[2, :2] *= k1
        cov[:2, 2] *= k1
        cov[2, 2] = 8.0 * k2 * c * c - 4.0 * k1 * k1 * c * c + 2.0 * (a * b - c * c)
        return mu, cov

    def fourth_moment_matrix(self, modulation):
        """The core's, with <x^3 y> and <x y^3> scaled by k1 and <x^2 y^2> = a b + 2 k2 c^2."""
        (a, b, c), = self.components(modulation).components
        (k1, k2), matrix = self._phase_factors(), super().fourth_moment_matrix(modulation)
        matrix[2, :2] *= k1
        matrix[:2, 2] *= k1
        matrix[0, 1] = matrix[1, 0] = matrix[2, 2] = a * b + 2.0 * k2 * c * c
        return matrix

    def phase_axis(self, n_phi):
        """A trapezoid weighted by the wrapped normal's Fourier series, E cos(m phi) = k1^(m^2)."""
        phi, m = 2.0 * np.pi / n_phi * np.arange(n_phi), np.arange(1, n_phi // 2)
        return phi, (1.0 + 2.0 * self._phase_factors()[0] ** (m * m) @ np.cos(np.outer(m, phi))) / n_phi

    def sweep_law(self, modulation):
        """The sweep kernel's args after (n, trials), and a trial's cost in a block's coordinates: its 2n."""
        return (self, modulation), 2 * modulation.n

    def heterodyne(self, x, rng, out=None):
        """Each mode's phi, then the core's heterodyne of x rotated by it; "rows" holds phi, cos phi and the rotation."""
        signal, per_mode = block_array("rows", (2, *x.shape))
        phi, cos = per_mode.reshape(2, len(x), -1)
        rng.standard_normal(out=phi)
        phi *= self.sigma
        cos, sin = np.cos(phi, out=cos), np.sin(phi, out=phi)
        # In place; IEEE + and * commute, so this equals cos x0 - sin x1 and
        # sin x0 + cos x1 bit for bit.
        np.multiply(cos, x[:, 0::2], out=signal[:, 0::2])
        np.multiply(sin, x[:, 0::2], out=signal[:, 1::2])
        signal[:, 0::2] -= np.multiply(sin, x[:, 1::2], out=sin)
        signal[:, 1::2] += np.multiply(cos, x[:, 1::2], out=cos)
        return super().heterodyne(signal, rng, out)


def ChannelModel(transmittance, excess_noise, phase_sigma=None):
    """The Gaussian channel (T, xi) or, given ``phase_sigma``, its phase-diffusion channel; one check for all three."""
    require(("transmittance", 0.0 <= transmittance <= 1.0, "must lie in [0, 1]"),
            ("excess_noise", 0.0 <= excess_noise <= MAX_EXCESS_NOISE, f"must lie in [0, {MAX_EXCESS_NOISE:g}]"),
            ("phase_sigma", phase_sigma is None or 0.0 <= phase_sigma <= MAX_PHASE_SIGMA,
             f"must lie in [0, {MAX_PHASE_SIGMA:g}]"))
    core = (1.0,), (transmittance,), (excess_noise,)
    return GaussianMixture(*core) if phase_sigma is None else PhaseDiffusionChannel(*core, phase_sigma)


def alice_modulate(params, rng, trials=None, out=None):
    """Draw Alice's interleaved 2n-vector of i.i.d. centered Gaussian coordinates.

    With ``trials`` the draw is a (trials, 2n) stack of such vectors, in ``out`` if given.
    """
    size = 2 * params.n if trials is None else (trials, 2 * params.n)
    # The values of rng.normal(0, scale), which is loc + scale * z, without its broadcasting pass.
    x = rng.standard_normal(size, out=out)
    x *= np.sqrt(params.variance_a / 2.0)
    return x


def channel_and_heterodyne(x, model, rng, out=None):
    """Bob's heterodyne outcomes for x, a 2n-vector or a (trials, 2n) stack, by ``model.heterodyne``: the noise
    convention of the module docstring, in a fixed draw order, so results are reproducible for a given rng."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise InvalidDimensionError("interleaved vectors must have even length")
    y = model.heterodyne(np.atleast_2d(x), rng, out)
    return y[0] if x.ndim == 1 else y


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
