"""The sweeps' per-trial total laws against a coordinate-by-coordinate simulation.

Each case draws (X^n, Y^n, Z^n) from the law under test and from
``alice_modulate`` plus ``channel_and_heterodyne`` summed per trial, and
compares the two samples with two-sample KS tests on X, Y, Z and three
fixed projections.  The projections act on columns standardized by the
pooled sample, a symmetric function of both samples, so the null law of
each test is kept.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cvsym.protocol import (
    ChannelModel,
    GaussianMixture,
    ModulationParams,
    alice_modulate,
    channel_and_heterodyne,
)
from cvsym.runner import coordinate_triples, wishart_triples
from cvsym.stats import cholesky_2x2

TRIALS = 3000
MODULATION_VARIANCE = 4.0
NS = (1, 2, 50, 300)
PROJECTIONS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
# 120 phase-diffusion and 48 Wishart tests at pinned seeds: a family-wise
# level below 2 %, while the mutants these tests exist for (a dropped noise
# projection, sin for cos) give p-values far below it.
ALPHA = 1e-4

PHASE_CASES = [(0.3, 0.7, 0.02), (1.5, 0.2, 0.5), (0.0, 0.7, 0.02), (0.3, 0.0, 0.1), (0.3, 1.0, 0.0)]
GAUSSIAN_MODELS = {
    "gaussian": (ChannelModel(0.7, 0.02), MODULATION_VARIANCE),
    "mixture": (GaussianMixture((0.85, 0.15), (0.9, 0.15), (0.01, 3.0)), 20.0),
}


def _simulated_totals(n, model, variance, rng):
    x = alice_modulate(ModulationParams(n, variance), rng, TRIALS)
    y = channel_and_heterodyne(x, model, rng)
    return np.column_stack([(x * x).sum(axis=1), (y * y).sum(axis=1), (x * y).sum(axis=1)])


def _ks_pvalues(law, reference):
    pooled = np.concatenate([law, reference])
    mean, std = pooled.mean(axis=0), pooled.std(axis=0)
    columns = [(law[:, j], reference[:, j]) for j in range(3)]
    columns += [(((law - mean) / std) @ d, ((reference - mean) / std) @ d) for d in PROJECTIONS]
    return [ks_2samp(a, b).pvalue for a, b in columns]


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("case", range(len(PHASE_CASES)))
def test_phase_diffusion_law_matches_coordinate_simulation(case, n):
    sigma, t, xi = PHASE_CASES[case]
    model = ChannelModel(t, xi, sigma)
    rng = np.random.default_rng([case, n])
    law = coordinate_triples(n, TRIALS, model, ModulationParams(n, MODULATION_VARIANCE), rng)
    reference = _simulated_totals(n, model, MODULATION_VARIANCE, rng)
    assert law.shape == (TRIALS, 3) and np.all(np.isfinite(law))
    assert min(_ks_pvalues(law, reference)) > ALPHA


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("name", sorted(GAUSSIAN_MODELS))
def test_wishart_triples_match_coordinate_simulation(name, n):
    model, variance = GAUSSIAN_MODELS[name]
    mixture = model.components(ModulationParams(n, variance))
    rng = np.random.default_rng([len(name), n])
    law = wishart_triples(n, TRIALS, mixture.weights, mixture.components, rng)
    reference = _simulated_totals(n, model, variance, rng)
    assert min(_ks_pvalues(law, reference)) > ALPHA


def test_phase_diffusion_law_at_modulation_floor():
    # Near X = 0 only the noise is left: Z vanishes with sqrt(X), Y is |G|^2.
    model = ChannelModel(0.7, 0.02, 0.3)
    totals = coordinate_triples(3, 50, model, ModulationParams(3, 1e-100), np.random.default_rng(0))
    assert np.all(np.isfinite(totals))
    assert np.all(np.abs(totals[:, 2]) < 1e-40) and np.all(totals[:, 1] > 0)


@pytest.mark.parametrize("n, trials", [(300, 436), (20_000, 6), (131_073, 1)])
def test_phase_diffusion_law_follows_documented_draw_order(n, trials):
    # Bit for bit: r^2 and phi as one (trials, n) draw each, then p1 and p2, then Q.
    sigma, t, xi = PHASE_CASES[0]
    got = coordinate_triples(n, trials, ChannelModel(t, xi, sigma), ModulationParams(n, MODULATION_VARIANCE),
                             np.random.default_rng(n))
    rng = np.random.default_rng(n)
    r2 = MODULATION_VARIANCE * rng.standard_exponential((trials, n))
    c = np.einsum("ij,ij->i", r2, np.cos(sigma * rng.standard_normal((trials, n))))
    s2 = 1.0 + t * xi / 2.0
    p1, p2 = np.sqrt(s2) * rng.standard_normal((2, trials))
    q = 2.0 * s2 * rng.standard_gamma(n - 1.0, size=trials)
    x = r2.sum(axis=1)
    along = c / np.sqrt(x)
    across = np.sqrt(np.maximum(x - along * along, 0.0))
    y = t * x + 2.0 * np.sqrt(t) * (along * p1 + across * p2) + p1 * p1 + p2 * p2 + q
    np.testing.assert_array_equal(got, np.column_stack([x, y, np.sqrt(t) * c + np.sqrt(x) * p1]))


@pytest.mark.parametrize("n", [1, 2, 1000])
def test_single_component_wishart_draws_as_a_constant_count_array(n):
    # The scalar count n must draw the stream that a (trials,) array of n draws.
    a, b, c = 2.0, 2.4, 1.6
    got = wishart_triples(n, TRIALS, (1.0,), ((a, b, c),), np.random.default_rng(n))
    rng = np.random.default_rng(n)
    m = np.full(TRIALS, float(n))
    l11, l21, l22 = cholesky_2x2(a, b, c)
    a11 = np.sqrt(2.0 * rng.standard_gamma(m))
    c22 = 2.0 * rng.standard_gamma(m - 0.5)
    b11, b21, b22 = l11 * a11, l21 * a11 + l22 * rng.standard_normal(TRIALS), l22 * np.sqrt(c22)
    np.testing.assert_array_equal(got, np.column_stack([b11 * b11, b21 * b21 + b22 * b22, b11 * b21]))
