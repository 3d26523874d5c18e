import mpmath
import numpy as np
import pytest

from cvsym.errors import DegenerateCovarianceError, PreconditionError
from cvsym.keyrate import (
    ChannelEstimate,
    ChannelMoments,
    _entropy_of_excess,
    estimate_channel,
    gaussian_keyrate,
)
from cvsym.protocol import (
    ChannelModel,
    GaussianMixture,
    ModulationParams,
    alice_modulate,
    channel_and_heterodyne,
)


def _simulated_estimate(t, xi, variance_a, n_modes, seed, beta=0.95):
    rng = np.random.default_rng(seed)
    x = alice_modulate(ModulationParams(n_modes, variance_a), rng)
    y = channel_and_heterodyne(x, ChannelModel(t, xi), rng)
    return estimate_channel(x, y, variance_a, beta=beta)


def test_estimate_identity_channel():
    est = _simulated_estimate(1.0, 0.0, 4.0, 100_000, 0)
    assert abs(est.transmittance - 1.0) <= 3 * est.se_transmittance
    assert est.excess_noise <= 3 * est.se_excess_noise


def test_estimate_round_trip():
    est = _simulated_estimate(0.5, 0.05, 4.0, 100_000, 1)
    assert abs(est.transmittance - 0.5) <= 3 * est.se_transmittance
    assert abs(est.excess_noise - 0.05) <= 3 * est.se_excess_noise


def test_estimate_opaque_channel():
    est = _simulated_estimate(0.0, 0.0, 4.0, 50_000, 2)
    assert est.transmittance <= 3 * est.se_transmittance + 1e-6


def test_estimate_round_trip_grid():
    for seed, (t, xi) in enumerate(((0.2, 0.0), (0.2, 0.2), (0.8, 0.0), (0.8, 0.2))):
        est = _simulated_estimate(t, xi, 4.0, 100_000, 20 + seed)
        assert abs(est.transmittance - t) <= 3 * est.se_transmittance
        assert abs(est.excess_noise - xi) <= 3 * est.se_excess_noise


def test_estimate_standard_errors_finite_at_tiny_modulation():
    # At x ~ 1e-150 the raw transmittance is ~1e276, whose square overflows.
    rng = np.random.default_rng(12)
    x = 1e-150 * rng.standard_normal(4000)
    y = np.sqrt(0.7) * x + rng.standard_normal(4000)
    est = estimate_channel(x, y, 1e-300)
    assert np.isfinite(est.se_transmittance) and np.isfinite(est.se_excess_noise)


def test_estimate_standard_errors_cover_a_mixture_channel():
    # A mode's two quadratures share its mixture component, and T_hat and
    # xi_hat errors are correlated: standard errors that treated coordinates
    # as independent and dropped the correlation read sd(xi_hat) / SE = 1.20 here.
    rng = np.random.default_rng(2024)
    model = GaussianMixture((0.85, 0.15), (0.9, 0.15), (0.01, 3.0))
    modulation = ModulationParams(4000, 20.0)
    estimates = []
    for _ in range(1000):
        x = alice_modulate(modulation, rng)
        est = estimate_channel(x, channel_and_heterodyne(x, model, rng), 20.0)
        estimates.append((est.transmittance, est.excess_noise, est.se_transmittance, est.se_excess_noise))
    t, xi, se_t, se_xi = np.array(estimates).T
    assert 0.9 <= t.std() / se_t.mean() <= 1.1
    assert 0.9 <= xi.std() / se_xi.mean() <= 1.1


def test_estimate_preconditions():
    rng = np.random.default_rng(3)
    with pytest.raises(PreconditionError):
        estimate_channel(rng.standard_normal(100), rng.standard_normal(100), 4.0)
    # Rows are per mode: an odd coordinate count has no whole last mode.
    with pytest.raises(PreconditionError, match="even"):
        estimate_channel(rng.standard_normal(5001), rng.standard_normal(5001), 4.0)
    with pytest.raises(DegenerateCovarianceError):
        estimate_channel(np.zeros(5000), rng.standard_normal(5000), 4.0)


def _per_mode(values):
    return values.reshape(-1, 2).sum(axis=1)


def _two_pass_estimate(x, y):
    """(ratio, se_ratio, <|e|^2>, se of <|e|^2>) over modes by whole-array two-pass formulas, e = y - ratio x."""
    ratio = np.mean(x * y) / np.mean(x * x)
    modes = x.size // 2
    se_ratio = np.std(_per_mode(x * y - ratio * x * x) / np.mean(_per_mode(x * x))) / np.sqrt(modes)
    sq_residual = _per_mode((y - ratio * x) ** 2)
    return ratio, se_ratio, np.mean(sq_residual), np.std(sq_residual) / np.sqrt(modes)


@pytest.mark.parametrize("variance_a", [1e-100, 4.0, 1e6, 1e12])
@pytest.mark.parametrize("t", [0.0, 0.7, 1.0])
def test_merged_blocks_match_two_pass_estimate(variance_a, t):
    # Unequal blocks, each summarized against its own ratio, then sheared to
    # the common one and merged in order.
    rng = np.random.default_rng(30)
    # alice_modulate's draw, taken directly: 1e12 lies past ModulationParams' ceiling.
    x = rng.normal(0.0, np.sqrt(variance_a / 2.0), size=120_000)
    y = channel_and_heterodyne(x, ChannelModel(t, 0.02), rng)
    cuts = [0, 5_000, 5_002, 40_000, 77_778, x.size]
    merged = ChannelMoments.merge([ChannelMoments.from_data(x[lo:hi], y[lo:hi])
                                   for lo, hi in zip(cuts, cuts[1:])])
    count, mean, centred = merged.moments.count, merged.moments.mean, merged.moments.centred
    got = (merged.ratio, np.sqrt(centred[1, 1] / count) / mean[2] / np.sqrt(count),
           mean[0], np.sqrt(centred[0, 0] / count) / np.sqrt(count))
    rtol = 1e-10 if variance_a > 1e6 else 1e-12
    np.testing.assert_allclose(got, _two_pass_estimate(x, y), rtol=rtol)
    assert count == x.size // 2
    whole, blocks = estimate_channel(x, y, variance_a), merged.estimate(variance_a, 0.95)
    for name in ("transmittance", "excess_noise", "se_transmittance", "se_excess_noise"):
        assert getattr(blocks, name) == pytest.approx(getattr(whole, name), rel=rtol, abs=0.0), name


def test_merge_does_not_depend_on_the_ratio_parts_were_summarized_against():
    rng = np.random.default_rng(31)
    x = rng.normal(0.0, 2.0, 6000)
    y = 0.8 * x + rng.standard_normal(6000)
    parts = [ChannelMoments.from_data(x[:2500], y[:2500]), ChannelMoments.from_data(x[2500:], y[2500:])]
    want = ChannelMoments.merge(parts)
    got = ChannelMoments.merge([parts[0].sheared(5.0), parts[1].sheared(-3.0)])
    assert got.ratio == pytest.approx(want.ratio, rel=1e-12)
    got, want = got.moments, want.moments
    assert got.count == want.count
    np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12, atol=1e-12 * np.abs(want.mean).max())
    np.testing.assert_allclose(got.centred, want.centred, rtol=1e-10,
                               atol=1e-10 * np.abs(want.centred).max())


def test_noiseless_channel_leaks_nothing():
    result = gaussian_keyrate(ChannelEstimate(1.0, 0.0, 11.0, 1.0))
    assert result.holevo_bound <= 1e-9
    assert abs(result.rate - result.mutual_information) <= 1e-12
    assert abs(result.mutual_information - np.log2(6.0)) < 1e-12


def test_rate_monotone_in_excess_noise():
    rates = [gaussian_keyrate(ChannelEstimate(0.9, xi, 11.0, 0.95)).rate
             for xi in np.linspace(0.0, 0.5, 21)]
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_physical_symplectic_eigenvalues_on_grid():
    for t in (0.0, 0.3, 0.7, 1.0):
        for xi in (0.0, 0.05, 0.2):
            for v in (1.5, 5.0, 20.0):
                result = gaussian_keyrate(ChannelEstimate(t, xi, v, 0.95))
                assert all(nu >= 1.0 - 1e-9 for nu in result.symplectic_eigenvalues)
                assert result.conditional_eigenvalue >= 1.0 - 1e-9
                assert result.rate >= 0.0


def test_vanishing_reconciliation_gives_no_key():
    result = gaussian_keyrate(ChannelEstimate(0.6, 0.1, 11.0, 1e-12))
    assert result.rate == 0.0
    assert result.no_key


def test_positive_rate_against_independent_coding():
    # Same covariance-matrix construction coded independently: symplectic
    # spectrum via |eig(i Omega gamma)| and entropies from scratch.
    est = ChannelEstimate(0.9, 0.01, 11.0, 0.95)
    result = gaussian_keyrate(est)
    assert result.rate > 0.0

    t, xi, v = est.transmittance, est.excess_noise, est.v_variance
    vb = t * (v - 1.0) + 1.0 + t * xi
    cc = np.sqrt(t * (v * v - 1.0))
    sz = np.diag([1.0, -1.0])
    gamma = np.block([[v * np.eye(2), cc * sz], [cc * sz, vb * np.eye(2)]])
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    nus = np.abs(np.linalg.eigvals(1j * omega @ gamma))
    nus = np.sort(nus)[::2][::-1]  # each eigenvalue appears twice

    def g(nu):
        xp, xm = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
        return xp * np.log2(xp) - (xm * np.log2(xm) if xm > 0 else 0.0)

    gamma_a_cond = (v - cc * cc / (vb + 1.0)) * np.eye(2)
    nu_cond = np.abs(np.linalg.eigvals(
        1j * np.array([[0.0, 1.0], [-1.0, 0.0]]) @ gamma_a_cond))[0]
    chi = g(nus[0]) + g(nus[1]) - g(nu_cond)
    i_ab = np.log2((vb + 1.0) / (vb - cc * cc / (v + 1.0) + 1.0))
    assert abs(result.holevo_bound - chi) < 1e-9
    assert abs(result.mutual_information - i_ab) < 1e-9
    assert abs(result.rate - (0.95 * i_ab - chi)) < 1e-9


def test_closed_form_eigenvalues_match_numeric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        variance_a, t, xi = 5.0 * rng.random(), rng.random(), 0.5 * rng.random()
        va, vb = variance_a + 1.0, t * variance_a + 1.0 + t * xi
        cc = np.sqrt(t * (va * va - 1.0))
        sz = np.diag([1.0, -1.0])
        gamma = np.block([[va * np.eye(2), cc * sz], [cc * sz, vb * np.eye(2)]])
        omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        numeric = np.sort(np.abs(np.linalg.eigvals(1j * omega @ gamma)))[::2]
        closed = sorted(gaussian_keyrate(ChannelEstimate(t, xi, va, 0.95, variance_a=variance_a)).symplectic_eigenvalues)
        np.testing.assert_allclose(sorted(numeric), closed, atol=1e-9)


def _reference_keyrate(variance_a, t, xi, beta):
    """(I_AB, chi, raw rate) from the general covariance formulas at 50 digits."""
    with mpmath.workdps(50):
        a, t, xi, beta = (mpmath.mpf(v) for v in (variance_a, t, xi, beta))
        va, vb = a + 1, t * a + 1 + t * xi
        c2 = t * (va * va - 1)
        delta, det = va * va + vb * vb - 2 * c2, va * vb - c2
        nu_plus = mpmath.sqrt((delta + mpmath.sqrt(delta * delta - 4 * det * det)) / 2)

        def g(nu):
            xp, xm = (nu + 1) / 2, (nu - 1) / 2
            return xp * mpmath.log(xp, 2) - (xm * mpmath.log(xm, 2) if xm > 0 else 0)

        info = mpmath.log((vb + 1) / (vb - c2 / (va + 1) + 1), 2)
        chi = g(nu_plus) + g(det / nu_plus) - g(va - c2 / (vb + 1))
        return info, chi, beta * info - chi


# The three finding points of the precision audit, then a grid over the config range.
_PRECISION_POINTS = [(1e6, 0.01, 0.01), (1e6, 0.9, 0.001), (1e-6, 0.7, 0.0)] + [
    (variance_a, t, xi) for variance_a in (1e-6, 1e-3, 0.1, 1.0, 4.0, 20.0, 1e3, 1e6)
    for t in (0.0, 0.01, 0.3, 0.7, 0.9, 0.999, 1.0) for xi in (0.0, 0.001, 0.01, 0.1, 1.0, 10.0)]


@pytest.mark.parametrize("variance_a, t, xi", _PRECISION_POINTS)
def test_keyrate_matches_50_digit_reference(variance_a, t, xi):
    result = gaussian_keyrate(ChannelEstimate(t, xi, variance_a + 1.0, 0.95, variance_a=variance_a))
    got = (result.mutual_information, result.holevo_bound, 0.95 * result.mutual_information - result.holevo_bound)
    for name, value, reference in zip(("I_AB", "chi", "raw"), got, _reference_keyrate(variance_a, t, xi, 0.95)):
        error = abs(value - reference)
        assert error <= 1e-12 * abs(reference) or (abs(reference) < 1e-3 and error <= 1e-15), (name, value, reference)


def test_entropy_g_limits():
    # G of a symplectic eigenvalue nu, taken from its excess nu - 1.
    assert _entropy_of_excess(0.0) == 0.0
    assert _entropy_of_excess(-1e-12) == 0.0  # clamped at the vacuum
    assert _entropy_of_excess(2.0) > 0.0


def test_estimate_validation():
    with pytest.raises(ValueError):
        gaussian_keyrate(ChannelEstimate(1.2, 0.0, 11.0, 0.95))
    with pytest.raises(ValueError):
        gaussian_keyrate(ChannelEstimate(0.5, -0.1, 11.0, 0.95))
    with pytest.raises(ValueError):
        gaussian_keyrate(ChannelEstimate(0.5, 0.1, 0.5, 0.95))
    with pytest.raises(ValueError):
        gaussian_keyrate(ChannelEstimate(0.5, 0.1, 11.0, 0.0))
