import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import kstest, kstwo, kurtosis, norm, skew

from cvsym.errors import DegenerateCovarianceError, PreconditionError
from cvsym.protocol import (
    ChannelModel,
    GaussianMixture,
    ModulationParams,
    PhaseDiffusion,
    alice_modulate,
    channel_and_heterodyne,
)
from cvsym.samples import SampleBatch, mode_triples
from cvsym.stats import (
    KS_ASYMPTOTIC_MIN_N,
    BivariateMixture,
    GaussianBivariate,
    MomentSummary,
    berry_esseen_bound,
    cholesky_2x2,
    columnwise_shape_stats,
    covariance_spectrum,
    empirical_tv_3d,
    estimation_error_mc,
    gaussian_tv_1d,
    gaussian_tv_first_order,
    ks_null_mean,
    scaled_estimation_errors,
    sigma_est,
    sigma_g,
    sigma_g_centered,
    summarize_scaled_errors,
    _equal_mass_edges,
    _inverse_sqrt,
    _ks_pvalues,
    _ks_statistic_sorted,
    _ks_steps,
)


def test_triple_reduce_single_mode():
    batch = SampleBatch(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    np.testing.assert_array_equal(mode_triples(batch.x, batch.y), [[1.0, 4.0, 0.0]])


def test_triple_reduce_sums_are_exact():
    rng = np.random.default_rng(0)
    batch = SampleBatch(rng.standard_normal(40), rng.standard_normal(40))
    triples = mode_triples(batch.x, batch.y)
    inv = batch.invariant_triple()
    # Same arithmetic path: exact equality, no tolerance.
    assert triples[:, 0].sum() == inv.norm_x_sq
    assert triples[:, 1].sum() == inv.norm_y_sq
    assert triples[:, 2].sum() == inv.dot_xy


def test_triple_reduce_two_modes():
    batch = SampleBatch(np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, 0.0, 0.0, 1.0]))
    np.testing.assert_array_equal(mode_triples(batch.x, batch.y), [[2.0, 1.0, 1.0], [2.0, 1.0, 1.0]])


def test_triples_satisfy_per_mode_cauchy_schwarz():
    rng = np.random.default_rng(40)
    for _ in range(50):
        batch = SampleBatch(rng.standard_normal(60), rng.standard_normal(60))
        t = mode_triples(batch.x, batch.y)
        assert np.all(t[:, 0] >= 0.0)
        assert np.all(t[:, 1] >= 0.0)
        assert np.all(t[:, 2] ** 2 <= t[:, 0] * t[:, 1] * (1.0 + 1e-12))


def test_sigma_g_unit_uncorrelated():
    np.testing.assert_allclose(sigma_g(1.0, 1.0, 0.0), [[3, 1, 0], [1, 3, 0], [0, 0, 1]])


def test_sigma_g_homogeneity():
    m1 = sigma_g(1.0, 2.0, 0.5)
    m2 = sigma_g(4.0, 8.0, 2.0)
    np.testing.assert_allclose(m2, 16.0 * m1, rtol=1e-14)


def test_sigma_g_perfect_correlation_is_rank_deficient():
    centered = sigma_g_centered(1.0, 1.0, 1.0)
    assert np.linalg.eigvalsh(centered)[0] < 1e-12


def test_sigma_g_rejects_cauchy_schwarz_violation():
    with pytest.raises(ValueError):
        sigma_g(1.0, 1.0, 1.5)


def test_single_sample_fourth_matrix():
    est = sigma_est(np.array([[1.0, 2.0], [1.0, 2.0]]))
    np.testing.assert_array_equal(est.matrix, [[1, 4, 2], [4, 16, 8], [2, 8, 4]])
    np.testing.assert_array_equal(est.stderr, np.zeros((3, 3)))


def test_sigma_est_needs_two_samples():
    with pytest.raises(PreconditionError):
        sigma_est(np.array([[1.0, 2.0]]))


def test_sigma_est_matches_sigma_g_for_gaussian_data():
    rng = np.random.default_rng(1)
    model = GaussianBivariate(1.0, 1.0, 0.0)
    est = sigma_est(model.draw(100_000, rng))
    target = sigma_g(1.0, 1.0, 0.0)
    assert np.all(np.abs(est.matrix - target) <= 3 * est.stderr)


def test_sigma_est_error_shrinks_like_sqrt_m():
    model = GaussianBivariate(1.0, 2.0, 0.5)
    r1 = estimation_error_mc(model, 500, 400, np.random.default_rng(2))
    r2 = estimation_error_mc(model, 1000, 400, np.random.default_rng(3))
    # unscaled error std ratio: (std_m / sqrt(m)) / (std_2m / sqrt(2m))
    ratio = (r1.std / np.sqrt(500)) / (r2.std / np.sqrt(1000))
    assert np.all(ratio >= np.sqrt(2.0) * 0.8)
    assert np.all(ratio <= np.sqrt(2.0) * 1.2)


def test_moment_summary_consistency():
    rng = np.random.default_rng(4)
    triples = np.abs(rng.standard_normal((5000, 3)))
    summary = MomentSummary.from_triples(triples)
    np.testing.assert_allclose(summary.covariance, np.cov(triples.T, bias=True), atol=1e-10)
    assert summary.lambda_min >= 0.0


def test_berry_esseen_explicit_n_dependence():
    rng = np.random.default_rng(5)
    model = GaussianBivariate(1.0, 1.0, 0.0)
    pairs = model.draw(20_000, rng).reshape(-1, 2, 2)
    triples = np.stack([
        (pairs[:, :, 0] ** 2).sum(axis=1),
        (pairs[:, :, 1] ** 2).sum(axis=1),
        (pairs[:, :, 0] * pairs[:, :, 1]).sum(axis=1),
    ], axis=1)
    summary = MomentSummary.from_triples(triples)
    assert abs(berry_esseen_bound(summary, 400) - berry_esseen_bound(summary, 100) / 2.0) < 1e-12


def test_berry_esseen_factor_recomposition():
    # Unit Gaussian uncorrelated data, 1e6 per-mode samples; the bound must
    # equal the hand-composed product of its factors.
    rng = np.random.default_rng(6)
    coords = rng.standard_normal((1_000_000, 2, 2))
    triples = np.stack([
        (coords[:, :, 0] ** 2).sum(axis=1),
        (coords[:, :, 1] ** 2).sum(axis=1),
        (coords[:, :, 0] * coords[:, :, 1]).sum(axis=1),
    ], axis=1)
    summary = MomentSummary.from_triples(triples)
    lam = np.linalg.eigvalsh(np.cov(triples.T))[0]
    third = np.mean(np.linalg.norm(triples, axis=1) ** 3)
    hand = np.sqrt(3.0) * lam ** -1.5 * third / np.sqrt(1000.0)
    assert abs(berry_esseen_bound(summary, 1000) / hand - 1.0) < 1e-3


def test_berry_esseen_scale_invariance():
    rng = np.random.default_rng(7)
    triples = np.abs(rng.standard_normal((20_000, 3))) + 0.1
    s1 = MomentSummary.from_triples(triples)
    s2 = MomentSummary.from_triples(9.0 * triples)  # data rescaled by s=3
    b1 = berry_esseen_bound(s1, 50)
    b2 = berry_esseen_bound(s2, 50)
    assert abs(b1 / b2 - 1.0) < 1e-9


def test_berry_esseen_degenerate_covariance():
    triples = np.tile([1.0, 2.0, 3.0], (100, 1))
    summary = MomentSummary.from_triples(triples)
    with pytest.raises(DegenerateCovarianceError):
        berry_esseen_bound(summary, 10)


@pytest.mark.parametrize("lambda_min", [1e-206, 1e-320])
def test_berry_esseen_bound_past_float_range_is_degenerate(lambda_min):
    summary = MomentSummary(np.zeros(3), np.eye(3), 1.0, lambda_min)
    with pytest.raises(DegenerateCovarianceError, match="lambda_min"):
        berry_esseen_bound(summary, 10)


# The sweep's reference covariances: Gaussian channels, phase diffusion and the benchmark mixture.
_WHITENING_CHANNELS = {
    "T0.7": ChannelModel(0.7, 0.02), "T1": ChannelModel(1.0, 0.0),
    "phase0.3": ChannelModel(0.7, 0.02, PhaseDiffusion(0.3)),
    "mixture": ChannelModel(0.7, 0.02, GaussianMixture((0.85, 0.15), (0.9, 0.15), (0.01, 3.0))),
}


@pytest.mark.parametrize("variance, tolerance", [(1e-100, 1e-12), (1e-30, 1e-12), (4.0, 1e-12), (1e6, 1e-4)])
@pytest.mark.parametrize("channel", list(_WHITENING_CHANNELS))
def test_whitening_is_exact_across_the_modulation_range(channel, variance, tolerance):
    # max|W Sigma W - I| in exact arithmetic on n Sigma at n = 3000.  At the
    # floor Sigma is graded (Var X = 1e-200 next to O(1) entries); at 1e6 its
    # condition number, about V^2, sets the error of any float whitening.
    cov = 3000.0 * _WHITENING_CHANNELS[channel].mode_moments(ModulationParams(1, variance))[1]
    whiten = _inverse_sqrt(cov)
    with mpmath.workdps(400):  # every float product and sum below is exact at this precision
        w, sigma = mpmath.matrix(whiten.tolist()), mpmath.matrix(cov.tolist())
        assert max(abs(entry) for entry in w * sigma * w - mpmath.eye(3)) <= tolerance
    # lambda_min against the Cholesky form 1 / |L^-1|_2^2.
    cholesky_form = np.linalg.norm(np.linalg.inv(np.linalg.cholesky(cov)), 2) ** -2
    assert abs(covariance_spectrum(cov)[0][0] / cholesky_form - 1.0) <= 1e-15


def test_covariance_spectrum_is_an_eigendecomposition():
    rng = np.random.default_rng(25)
    for _ in range(20):
        factor = rng.standard_normal((3, 3))
        cov = factor @ factor.T
        vals, vecs = covariance_spectrum(cov)
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-14)
        np.testing.assert_allclose((vecs * vals) @ vecs.T, cov, atol=1e-13 * np.abs(cov).max())
    assert covariance_spectrum(np.diag([1.0, 0.0, 1.0])) is None
    assert covariance_spectrum(np.diag([1.0, -1e-300, 1.0])) is None


def _tv_quadrature(s1, s2):
    lo, hi = sorted((s1, s2))
    crossing = lo * hi * np.sqrt(2.0 * np.log(hi / lo) / (hi * hi - lo * lo))
    f = lambda t: abs(norm.pdf(t, scale=lo) - norm.pdf(t, scale=hi))
    return sum(quad(f, a, b, limit=200)[0]
               for a, b in ((-np.inf, -crossing), (-crossing, crossing), (crossing, np.inf)))


def test_gaussian_tv_equal_sigmas():
    assert gaussian_tv_1d(1.3, 1.3) == 0.0


def test_gaussian_tv_exact_matches_quadrature():
    for s1, ratio in ((1.0, 2.0), (0.5, 1.5), (2.0, 1.01)):
        exact = gaussian_tv_1d(s1, ratio * s1)
        assert abs(exact - _tv_quadrature(s1, ratio * s1)) <= 1e-6
    assert abs(gaussian_tv_1d(1.0, 2.0) - 0.645349) < 1e-4


def test_gaussian_tv_first_order_value():
    assert abs(gaussian_tv_first_order(1.0, 0.01) - 0.009679) < 1e-6


def test_gaussian_tv_first_order_is_leading_term():
    for delta in (1e-3, 1e-4):
        ratio = gaussian_tv_1d(1.0, 1.0 + delta) / gaussian_tv_first_order(1.0, delta)
        assert abs(ratio - 1.0) < 10 * delta
    ratio = gaussian_tv_1d(1.0, 1.0 + 1e-4) / gaussian_tv_first_order(1.0, 1e-4)
    assert abs(ratio - 1.0) < 0.01


def test_gaussian_tv_domain():
    with pytest.raises(ValueError):
        gaussian_tv_1d(0.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_tv_first_order(-1.0, 0.1)


def test_empirical_tv_null_case():
    rng = np.random.default_rng(8)
    cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    chol = np.linalg.cholesky(cov)
    samples = rng.standard_normal((20_000, 3)) @ chol.T
    diag = empirical_tv_3d(samples, np.zeros(3), cov, np.random.default_rng(9))
    assert diag.tv_estimate <= diag.tv_bias_bound
    # joint null consistency across 9 dependent statistics: Bonferroni level
    pvals = sorted(diag.ks_pvalues.values())
    assert pvals[0] > 0.01 / len(pvals)
    assert pvals[len(pvals) // 2] > 0.01


def test_empirical_tv_disjoint_supports():
    rng = np.random.default_rng(10)
    samples = rng.standard_normal((20_000, 3)) + 5.0
    diag = empirical_tv_3d(samples, np.zeros(3), np.eye(3), np.random.default_rng(11))
    assert diag.tv_estimate >= 0.95


def test_empirical_tv_preconditions():
    rng = np.random.default_rng(12)
    with pytest.raises(PreconditionError):
        empirical_tv_3d(rng.standard_normal((100, 3)), np.zeros(3), np.eye(3), rng)
    with pytest.raises(DegenerateCovarianceError):
        empirical_tv_3d(rng.standard_normal((2000, 3)), np.zeros(3), np.zeros((3, 3)), rng)


def test_ks_null_mean_matches_exact_law():
    assert abs(ks_null_mean(1000) / kstwo(1000).mean() - 1.0) < 1e-4


def test_sorted_ks_matches_kstest():
    rng = np.random.default_rng(17)
    for count in (1000, 5000, KS_ASYMPTOTIC_MIN_N, 20_000):
        for shift in (0.0, 0.02, 0.05, 0.08):
            values = rng.standard_normal(count) + shift
            ref = kstest(values, "norm")
            stat = _ks_statistic_sorted(np.sort(values), _ks_steps(count))
            pvalue = _ks_pvalues([stat], count)[0]
            assert abs(stat - ref.statistic) <= 1e-15
            if count < KS_ASYMPTOTIC_MIN_N:
                assert pvalue == ref.pvalue
            elif ref.pvalue >= 1e-8:
                assert abs(pvalue / ref.pvalue - 1.0) < 0.03


def _ks_full(sorted_values):
    """The KS statistic with ndtr at every value: the unpruned reference."""
    count = len(sorted_values)
    cdf = ndtr(sorted_values)
    return max(float(np.max(np.arange(1.0, count + 1) / count - cdf)),
               float(np.max(cdf - np.arange(0.0, count) / count)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(count=st.integers(1, 12_000), block=st.sampled_from([None, 2, 3, 16, 37, 5000]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.0, 1e-3, 1.0, 7.0, 60.0]),
       shift=st.floats(-45.0, 45.0), decimals=st.sampled_from([None, 0, 1, 3]))
def test_pruned_ks_equals_full_evaluation(count, block, seed, scale, shift, decimals):
    # block None keeps _ks_steps' own length (no blocks below 5000 values);
    # the others cover samples shorter than one block and not a multiple of
    # it.  Scale 0 gives constant samples, rounding gives ties, and shifts
    # past +-40 saturate Phi (D = 1) or come near it.
    values = np.random.default_rng(seed).standard_normal(count) * scale + shift
    if decimals is not None:
        values = np.round(values, decimals)
    values.sort()
    after, before, own_block = _ks_steps(count)
    steps = (after, before, own_block if block is None else block)
    assert _ks_statistic_sorted(values, steps) == _ks_full(values)


@pytest.mark.parametrize("count, bins", [(1000, None), (2001, 3), (4000, 5)])
def test_edge_compare_cells_match_searchsorted(count, bins):
    # Integer-valued samples put many values exactly on the equal-mass edges.
    samples = np.random.default_rng(count).integers(-3, 4, size=(count, 3)).astype(float)
    got = empirical_tv_3d(samples, np.zeros(3), np.eye(3), np.random.default_rng(0),
                          bins_per_axis=bins, projections=0)
    bins = got.bins_per_axis
    z = samples @ _inverse_sqrt(np.eye(3))
    cell, reference = np.zeros(count, dtype=np.int64), np.ones(1)
    for k in range(3):
        edges = _equal_mass_edges(np.sort(z[:, k]), bins)
        cell = cell * bins + np.searchsorted(edges, z[:, k], side="right")
        mass = np.diff(ndtr(np.concatenate(([-np.inf], edges, [np.inf]))))
        reference = np.multiply.outer(reference, mass).ravel()
    p_hat = np.bincount(cell, minlength=bins ** 3) / count
    assert got.tv_estimate == 0.5 * float(np.abs(p_hat - reference).sum())


def test_equal_mass_edges_match_np_quantile():
    rng = np.random.default_rng(18)
    for count in (1000, 1001, 12_345):
        values = rng.standard_normal(count)
        for bins in (4, 7, 8):
            expected = np.quantile(values, np.linspace(0.0, 1.0, bins + 1)[1:-1])
            np.testing.assert_array_equal(_equal_mass_edges(np.sort(values), bins), expected)


def test_empirical_tv_draws_only_projection_directions():
    # The reference law and the null floor are closed forms; the rng feeds
    # nothing but the random projection directions.
    samples = np.random.default_rng(19).standard_normal((5000, 3))
    for projections in (0, 2, 6):
        rng = np.random.default_rng(20)
        empirical_tv_3d(samples, np.zeros(3), np.eye(3), rng, projections=projections)
        expected = np.random.default_rng(20)
        expected.standard_normal(3 * projections)
        assert rng.bit_generator.state == expected.bit_generator.state


def test_estimation_error_centered_and_shrinking():
    model = GaussianBivariate(1.0, 1.0, 0.0)
    report = estimation_error_mc(model, 1000, 10_000, np.random.default_rng(13))
    assert np.all(np.abs(report.mean) <= 3 * report.se_mean)


def test_estimation_error_degenerate_data_is_exactly_zero():
    # A point mass has exactly zero estimator error; the summary must not
    # divide by its zero spread.
    report = summarize_scaled_errors(np.zeros((100, 3, 3)), 50)
    assert report.m == 50 and report.trials == 100
    for values in (report.mean, report.std, report.se_mean, report.skew, report.excess_kurtosis):
        assert np.all(values == 0.0)


def test_gaussian_draw_at_cauchy_schwarz_equality_is_finite():
    # c^2 = a b up to rounding: b - c^2 / a is -4.4e-16 here, so an
    # unclamped Cholesky factor makes every y NaN.
    a, b, c = 9.341094724402934, 3.5843740151236116, 5.786361309403184
    pairs = GaussianBivariate(a, b, c).draw(1000, np.random.default_rng(22))
    assert np.all(np.isfinite(pairs))
    np.testing.assert_allclose(pairs[:, 1], (c / a) * pairs[:, 0], rtol=1e-12)
    assert cholesky_2x2(a, b, c)[2] == 0.0


def test_gaussian_draw_consumes_only_normals():
    # One component draws no component labels: 2 m standard normals, the
    # draw order of the Gaussian estimation-error path.
    rng = np.random.default_rng(23)
    pairs = GaussianBivariate(2.0, 3.0, 1.0).draw(500, rng)
    expected = np.random.default_rng(23)
    g = expected.standard_normal((500, 2))
    assert rng.bit_generator.state == expected.bit_generator.state
    np.testing.assert_array_equal(pairs[:, 0], np.sqrt(2.0) * g[:, 0])


def test_mixture_draw_gives_each_pair_its_component_factor():
    law = BivariateMixture((0.5, 0.3, 0.2), ((1.0, 2.0, 0.5), (1.0, 4.0, -1.0), (3.0, 1.0, 1.7)))
    pairs = law.draw(5000, np.random.default_rng(25))
    expected = np.random.default_rng(25)
    labels = expected.choice(3, size=5000, p=np.asarray(law.weights))
    g = expected.standard_normal((5000, 2))
    for j, comp in enumerate(law.components):
        l11, l21, l22 = cholesky_2x2(*comp)
        sel = labels == j
        np.testing.assert_array_equal(pairs[sel, 0], l11 * g[sel, 0])
        np.testing.assert_array_equal(pairs[sel, 1], l21 * g[sel, 0] + l22 * g[sel, 1])


def _fourth_moment_outer(pairs):
    """Per-pair outer products v v^T of v = (x^2, y^2, x y), shape (..., 3, 3)."""
    x, y = pairs[..., 0], pairs[..., 1]
    v = np.stack([x * x, y * y, x * y], axis=-1)
    return v[..., :, None] * v[..., None, :]


def test_fourth_moment_estimators_match_outer_products():
    law = BivariateMixture((0.7, 0.3), ((1.0, 2.0, 0.5), (1.0, 4.0, -1.0)))
    pairs = law.draw(3000, np.random.default_rng(26))
    terms = _fourth_moment_outer(pairs)
    est = sigma_est(pairs)
    np.testing.assert_allclose(est.matrix, terms.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(est.stderr, terms.std(axis=0, ddof=1) / np.sqrt(3000), rtol=1e-12)

    errors = scaled_estimation_errors(law, 100, 30, np.random.default_rng(27))
    draws = law.draw(3000, np.random.default_rng(27)).reshape(30, 100, 2)
    expected = np.sqrt(100) * (_fourth_moment_outer(draws).mean(axis=1) - law.fourth_moment_matrix())
    assert errors.flags.c_contiguous
    np.testing.assert_allclose(errors, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_mixture_fourth_moment_matrix_matches_draws():
    law = BivariateMixture((0.7, 0.3), ((1.0, 2.0, 0.5), (1.0, 4.0, -1.0)))
    np.testing.assert_allclose(law.fourth_moment_matrix(),
                               0.7 * sigma_g(1.0, 2.0, 0.5) + 0.3 * sigma_g(1.0, 4.0, -1.0))
    est = sigma_est(law.draw(200_000, np.random.default_rng(24)))
    assert np.all(np.abs(est.matrix - law.fourth_moment_matrix()) <= 4 * est.stderr)


def test_mode_triple_moments_match_monte_carlo():
    # Mode moments of a mixture channel against its coordinate simulation:
    # both coordinates of a mode share the component.
    rng = np.random.default_rng(15)
    model = ChannelModel(0.5, 0.0, GaussianMixture((0.6, 0.4), (0.9, 0.2), (0.05, 1.5)))
    mod = ModulationParams(200_000, 4.0)
    mu, cov = model.mode_moments(mod)
    x = alice_modulate(mod, rng)
    triples = mode_triples(x, channel_and_heterodyne(x, model, rng))
    np.testing.assert_allclose(triples.mean(axis=0), mu, atol=4 * np.sqrt(cov.max() / mod.n))
    emp_cov = np.cov(triples.T)
    assert np.max(np.abs(emp_cov - cov)) <= 0.05 * np.max(np.abs(cov))


def test_columnwise_shape_stats_gaussian():
    rng = np.random.default_rng(16)
    z = rng.standard_normal((200_000, 3))
    skew, kurt, se_skew, se_kurt = columnwise_shape_stats(z)
    assert np.all(np.abs(skew) <= 4 * se_skew)
    assert np.all(np.abs(kurt) <= 4 * se_kurt)


def test_shape_stats_do_not_underflow_at_small_scale():
    # At 1e-250 even the standardizing variance underflows unless the column is rescaled first.
    data = np.random.default_rng(22).chisquare(3.0, size=(20_000, 3))
    for scale in (1e-150, 1e-250):
        for got, want in zip(columnwise_shape_stats(scale * data), columnwise_shape_stats(data)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_shape_and_moment_stats_match_power_forms():
    data = np.random.default_rng(21).chisquare(3.0, size=(20_000, 3))
    col_skew, col_kurt, _, _ = columnwise_shape_stats(data)
    np.testing.assert_allclose(col_skew, skew(data, axis=0), rtol=1e-12)
    np.testing.assert_allclose(col_kurt, kurtosis(data, axis=0), rtol=1e-12)
    third = MomentSummary.from_triples(data).third_abs
    assert third == pytest.approx(np.mean(np.sum(data * data, axis=1) ** 1.5), rel=1e-13)
