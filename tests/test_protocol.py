import numpy as np
import pytest

from cvsym.errors import ConfigError
from cvsym.protocol import (
    ChannelModel,
    GaussianMixture,
    ModulationParams,
    PhaseDiffusionChannel,
    PostselectionRegion,
    alice_modulate,
    channel_and_heterodyne,
    postselect,
)
from cvsym import runner
from cvsym.samples import mode_triples
from cvsym.stats import berry_esseen_bound


def test_modulation_variance_per_coordinate():
    rng = np.random.default_rng(0)
    x = alice_modulate(ModulationParams(10_000, 4.0), rng)
    var = x.var()
    se = 2.0 * np.sqrt(2.0 / x.size)
    assert abs(var - 2.0) <= 3 * se


def test_modulation_vanishes_with_variance():
    rng = np.random.default_rng(1)
    x = alice_modulate(ModulationParams(100, 1e-18), rng)
    assert np.max(np.abs(x)) < 1e-6


def test_modulation_reproducible():
    x1 = alice_modulate(ModulationParams(50, 4.0), np.random.default_rng(9))
    x2 = alice_modulate(ModulationParams(50, 4.0), np.random.default_rng(9))
    np.testing.assert_array_equal(x1, x2)


@pytest.mark.parametrize("variance, trials", [(4.0, None), (4.0, 7), (1e-100, 3), (1e6, None)])
def test_modulation_equals_generator_normal(variance, trials):
    # Scaled standard draws give exactly Generator.normal's loc + scale * z.
    params = ModulationParams(5, variance)
    x = alice_modulate(params, np.random.default_rng(9), trials)
    size = 10 if trials is None else (trials, 10)
    assert np.array_equal(x, np.random.default_rng(9).normal(0.0, np.sqrt(variance / 2.0), size=size))


def test_modulation_parameter_validation():
    with pytest.raises(ValueError):
        ModulationParams(10, 0.0)
    with pytest.raises(ValueError):
        ModulationParams(0, 1.0)


def test_identity_channel_leaves_unit_detection_noise():
    rng = np.random.default_rng(2)
    x = alice_modulate(ModulationParams(100_000, 4.0), rng)
    y = channel_and_heterodyne(x, ChannelModel(1.0, 0.0), rng)
    resid_var = np.var(y - x)
    se = np.sqrt(2.0 / x.size)
    assert abs(resid_var - 1.0) <= 3 * se


def test_opaque_channel_decorrelates():
    rng = np.random.default_rng(3)
    x = alice_modulate(ModulationParams(100_000, 4.0), rng)
    y = channel_and_heterodyne(x, ChannelModel(0.0, 0.3), rng)
    cov = np.mean(x * y)
    se = np.sqrt(np.mean(x * x) * np.mean(y * y) / x.size)
    assert abs(cov) <= 3 * se


def test_gaussian_core_moment_identities():
    rng = np.random.default_rng(4)
    model = ChannelModel(0.5, 0.1)
    mod = ModulationParams(100_000, 4.0)
    x = alice_modulate(mod, rng)
    y = channel_and_heterodyne(x, model, rng)
    a, b, c = model.mode_moments(mod)[0] / 2.0
    assert (a, b, c) == (2.0, 0.5 * 2.0 + 1.0 + 0.5 * 0.1 / 2.0, np.sqrt(0.5) * 2.0)
    n = x.size
    assert abs(np.mean(x * y) / np.mean(x * x) - np.sqrt(0.5)) <= 3 * np.sqrt((a * b) / (a * a * n))
    assert abs(np.mean(y * y) - b) <= 3 * b * np.sqrt(2.0 / n)


def test_mixture_channel_moments():
    rng = np.random.default_rng(5)
    model = GaussianMixture((0.7, 0.3), (0.9, 0.2), (0.05, 1.5))
    mod = ModulationParams(200_000, 4.0)
    x = alice_modulate(mod, rng)
    y = channel_and_heterodyne(x, model, rng)
    a, b, c = model.mode_moments(mod)[0] / 2.0
    n = x.size
    assert abs(np.mean(y * y) - b) <= 4 * b * np.sqrt(6.0 / n)
    assert abs(np.mean(x * y) - c) <= 4 * np.sqrt(a * b / n)


def test_phase_diffusion_damps_correlation():
    rng = np.random.default_rng(6)
    sigma = 0.6
    model = ChannelModel(0.8, 0.0, sigma)
    mod = ModulationParams(200_000, 4.0)
    x = alice_modulate(mod, rng)
    y = channel_and_heterodyne(x, model, rng)
    a, b, c = model.mode_moments(mod)[0] / 2.0
    assert abs(c - np.sqrt(0.8) * 2.0 * np.exp(-sigma * sigma / 2.0)) < 1e-12
    n = x.size
    assert abs(np.mean(x * y) - c) <= 4 * np.sqrt(a * b / n)
    assert abs(np.mean(y * y) - b) <= 4 * b * np.sqrt(6.0 / n)


@pytest.mark.parametrize("seed, sigma, t, xi", [
    (31, 0.3, 0.7, 0.02), (32, 1.5, 0.2, 0.5), (33, 0.3, 0.0, 0.1), (34, 0.8, 1.0, 0.0)])
def test_phase_diffusion_moments_match_simulation(seed, sigma, t, xi):
    # 10^6 simulated modes.  Both coordinates of a mode share phi, so every
    # standard error is taken over per-mode values.
    model = ChannelModel(t, xi, sigma)
    mod = ModulationParams(1_000_000, 4.0)
    rng = np.random.default_rng(seed)
    x = alice_modulate(mod, rng)
    y = channel_and_heterodyne(x, model, rng)
    modes = mod.n

    triples = mode_triples(x, y)
    mu, cov = model.mode_moments(mod)
    assert np.all(np.abs(triples.mean(axis=0) - mu) <= 5 * triples.std(axis=0) / np.sqrt(modes))
    centered = triples - triples.mean(axis=0)
    for j in range(3):
        for k in range(j, 3):
            products = centered[:, j] * centered[:, k]
            se = products.std() / np.sqrt(modes)
            assert abs(products.mean() - cov[j, k]) <= 5 * se, (j, k)
            assert cov[j, k] == cov[k, j]
    del triples, centered

    xs, ys = x.reshape(-1, 2), y.reshape(-1, 2)
    powers = {(0, 0): (4, 0), (1, 1): (0, 4), (0, 1): (2, 2), (2, 2): (2, 2), (0, 2): (3, 1), (1, 2): (1, 3)}
    truth = model.fourth_moment_matrix(mod)
    for (j, k), (p, q) in powers.items():
        per_mode = (xs ** p * ys ** q).mean(axis=1)
        se = per_mode.std() / np.sqrt(modes)
        assert abs(per_mode.mean() - truth[j, k]) <= 5 * se, (j, k)
        assert truth[j, k] == truth[k, j]


MIXTURE = GaussianMixture((0.85, 0.15), (0.9, 0.15), (0.01, 3.0))
QUADRATURE_CASES = [
    (ChannelModel(0.7, 0.02), 4.0), (ChannelModel(0.0, 0.1), 4.0), (ChannelModel(1.0, 0.0), 4.0),
    (MIXTURE, 20.0),
] + [(ChannelModel(0.7, 0.02, sigma), 4.0) for sigma in (0.01, 0.3, 1.5, 30.0)]


@pytest.mark.parametrize("seed, case", list(enumerate(QUADRATURE_CASES, start=40)), ids=[
    "T0.7", "T0", "T1", "mixture", "phase0.01", "phase0.3", "phase1.5", "phase30"])
def test_mode_summary_third_moment_matches_monte_carlo(seed, case):
    # Independent per-mode samplers: the exact Wishart law at n = 1 for
    # Gaussian and mixture channels, the phase-diffusion law of
    # coordinate_triples otherwise (both checked in test_triple_laws.py).
    model, variance = case
    mod, modes = ModulationParams(1, variance), 1_000_000
    rng = np.random.default_rng(seed)
    args, _ = model.sweep_law(mod)
    triples = getattr(runner, model.sweep_kernel)(1, modes, *args, rng)
    norm_cubed = np.sum(triples * triples, axis=1) ** 1.5
    se = norm_cubed.std() / np.sqrt(modes)
    summary = model.mode_summary(mod)
    assert abs(summary.third_abs - norm_cubed.mean()) <= 4 * se
    mu, cov = model.mode_moments(mod)
    assert np.array_equal(summary.mean, mu) and np.array_equal(summary.covariance, cov)
    assert summary.lambda_min == pytest.approx(np.linalg.eigvalsh(cov)[0], rel=1e-12)


@pytest.mark.parametrize("model, variance", QUADRATURE_CASES + [
    (ChannelModel(1.0, 0.0, sigma), variance)
    for sigma in (0.0, 0.01, 1.0, 1e300) for variance in (1e-100, 4.0, 1e6)])
def test_mode_summary_quadrature_is_converged(model, variance):
    mod = ModulationParams(1, variance)
    third = model.mode_summary(mod).third_abs
    doubled = model.mode_summary(mod, n_psi=80, n_theta=64, n_phi=128).third_abs
    assert np.isfinite(third) and abs(doubled / third - 1.0) < 1e-12


def test_mode_summary_repeats_bit_for_bit():
    # The Gauss-Legendre table is computed once and shared by every call; a
    # call that scaled its weights in place would move every later summary.
    model, mod = ChannelModel(0.7, 0.02, 0.3), ModulationParams(1, 4.0)
    first = model.mode_summary(mod)
    model.mode_summary(ModulationParams(1, 9.0))
    second = model.mode_summary(mod)
    assert first.third_abs == second.third_abs
    assert np.array_equal(first.covariance, second.covariance)


@pytest.mark.parametrize("perturbation", [None, MIXTURE, ChannelModel(0.7, 0.02, 0.3)])
def test_mode_summary_bound_is_finite_at_smallest_modulation(perturbation):
    # The covariance is graded: Var X = variance_a^2 = 1e-200 next to O(1)
    # entries.  Its smallest eigenvalue tends to Var X, which the smallest
    # eigenvalue of cov itself loses to rounding.
    model = ChannelModel(0.7, 0.02) if perturbation is None else perturbation
    summary = model.mode_summary(ModulationParams(1, 1e-100))
    assert summary.lambda_min == pytest.approx(1e-200, rel=1e-9, abs=0.0)
    assert np.isfinite(berry_esseen_bound(summary, 1))


@pytest.mark.parametrize("model", [ChannelModel(0.7, 0.02), ChannelModel(0.7, 0.02, 0.3), MIXTURE])
def test_channel_follows_documented_draw_order(model):
    # The fixed draw order: the per-mode perturbation (phi, or the mixture
    # component), then the noise g; y = sqrt(T) * signal + sd * g exactly,
    # and the input is left untouched.
    x = np.random.default_rng(3).standard_normal((6, 10))
    x_before = x.copy()
    y = channel_and_heterodyne(x, model, np.random.default_rng(4))

    rng = np.random.default_rng(4)
    t, xi, signal = 0.7, 0.02, x
    if isinstance(model, PhaseDiffusionChannel):
        phi = rng.normal(0.0, 0.3, size=(6, 5))
        signal = np.empty_like(x)
        signal[:, 0::2] = np.cos(phi) * x[:, 0::2] - np.sin(phi) * x[:, 1::2]
        signal[:, 1::2] = np.sin(phi) * x[:, 0::2] + np.cos(phi) * x[:, 1::2]
    elif len(model.weights) > 1:
        comp = rng.choice(2, size=(6, 5), p=np.array(model.weights))
        t = np.repeat(np.array(model.transmittances)[comp], 2, axis=1)
        xi = np.repeat(np.array(model.excess_noises)[comp], 2, axis=1)
    g = rng.standard_normal(x.shape)
    assert np.array_equal(y, np.sqrt(t) * signal + np.sqrt(1.0 + t * xi / 2.0) * g)
    assert np.array_equal(x, x_before)


def test_channel_compares_and_hashes_by_its_law():
    # heterodyne's cached arrays are not fields, so ==, hash and repr see only the law.
    assert ChannelModel(0.7, 0.02, 0.3) == ChannelModel(0.7, 0.02, 0.3) != ChannelModel(0.7, 0.02)
    assert hash(MIXTURE) == hash(GaussianMixture((0.85, 0.15), (0.9, 0.15), (0.01, 3.0)))
    assert repr(ChannelModel(0.7, 0.02)) == ("GaussianMixture(weights=(1.0,), transmittances=(0.7,), "
                                             "excess_noises=(0.02,))")


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture((0.5, 0.4), (1.0, 0.5), (0.0, 0.0))  # weights do not sum to 1
    with pytest.raises(ValueError):
        GaussianMixture((0.5, 0.5), (1.2, 0.5), (0.0, 0.0))  # transmittance > 1
    with pytest.raises(ValueError):
        ChannelModel(1.5, 0.0)
    with pytest.raises(ValueError):
        ChannelModel(0.5, -0.1)
    with pytest.raises(ConfigError) as err:
        ChannelModel(1.5, -0.1)
    assert err.value.fields == ["transmittance", "excess_noise"]


def test_postselect_none_keeps_everything():
    x = np.arange(8.0)
    mask, frac = postselect(x, x, PostselectionRegion())
    assert mask.all() and frac == 1.0


def test_postselect_amplitude_thresholds():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    mask, frac = postselect(x, y, PostselectionRegion("amplitude-threshold", 0.0))
    assert mask.all() and frac == 1.0
    mask, frac = postselect(x, y, PostselectionRegion("amplitude-threshold", np.inf))
    assert not mask.any() and frac == 0.0


def test_postselect_commutes_with_mode_permutation():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    region = PostselectionRegion("product-threshold", 0.8)
    mask, _ = postselect(x, y, region)
    perm = np.array([2, 0, 1, 5, 3, 4])
    coord_perm = np.ravel(np.column_stack([2 * perm, 2 * perm + 1]))
    mask_perm, _ = postselect(x[coord_perm], y[coord_perm], region)
    np.testing.assert_array_equal(mask_perm, mask[perm])


def test_postselect_deterministic():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(10)
    y = rng.standard_normal(10)
    region = PostselectionRegion("amplitude-threshold", 1.0)
    m1, f1 = postselect(x, y, region)
    m2, f2 = postselect(x, y, region)
    np.testing.assert_array_equal(m1, m2)
    assert f1 == f2


def test_postselection_region_validation():
    with pytest.raises(ValueError):
        PostselectionRegion("banana", 1.0)
    with pytest.raises(ValueError):
        PostselectionRegion("amplitude-threshold", -1.0)
