import warnings

import numpy as np
import pytest
from scipy import stats as sps

from cvsym.errors import InvalidDimensionError, PreconditionError
from cvsym.linalg import (
    complex_modes,
    haar_orthogonal_symplectic_stack,
    haar_unitary_stack,
    interleave_modes,
    orthogonality_residual,
    phase_fixed_qr,
    symplecticity_residual,
    unitary_to_symplectic,
)


def _haar_element(n, rng):
    return unitary_to_symplectic(haar_unitary_stack(n, 1, rng)[0])


def test_haar_unitary_single_mode_is_phase():
    u = haar_unitary_stack(1, 20, np.random.default_rng(0))
    assert np.max(np.abs(np.abs(u[:, 0, 0]) - 1.0)) < 1e-14


@pytest.mark.parametrize("m, k", [(5, 2), (1, 2), (3, 3)])
def test_phase_fixed_qr_gives_nonnegative_real_r_diagonal(m, k):
    rng = np.random.default_rng(m * 10 + k)
    z = rng.standard_normal((4, m, k)) + 1j * rng.standard_normal((4, m, k))
    z[0, :, 0] = 0.0  # a zero column keeps phase 1
    for mode, cols in (("complete", m), ("reduced", min(m, k))):
        q = phase_fixed_qr(z, mode=mode)
        assert q.shape == (4, m, cols)
        assert np.max(np.abs(q.conj().swapaxes(-1, -2) @ q - np.eye(cols))) < 1e-14
        r = q.conj().swapaxes(-1, -2) @ z
        assert np.max(np.abs(np.tril(r, -1))) < 1e-14
        d = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.max(np.abs(d.imag)) < 1e-14 and np.min(d.real) > -1e-14


def test_haar_unitary_deterministic_given_seed():
    u1 = haar_unitary_stack(3, 2, np.random.default_rng(123))
    u2 = haar_unitary_stack(3, 2, np.random.default_rng(123))
    np.testing.assert_array_equal(u1, u2)


def test_haar_unitary_rejects_zero_modes():
    with pytest.raises(InvalidDimensionError):
        haar_unitary_stack(0, 1, np.random.default_rng(0))
    for k in (0, 4):  # column counts outside [1, n]
        with pytest.raises(InvalidDimensionError):
            haar_unitary_stack(3, 1, np.random.default_rng(0), k)


@pytest.mark.parametrize("n", [1, 40])
def test_haar_unitary_whole_draw_matches_complete_qr(n):
    # The reduced QR of a square Ginibre stack is the complete one, bit for
    # bit, so whole unitaries keep the draw they had under the complete QR.
    size, seed = 50, 60 + n
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    expected = phase_fixed_qr(z / np.sqrt(2.0), mode="complete")
    np.testing.assert_array_equal(haar_unitary_stack(n, size, np.random.default_rng(seed)), expected)


def test_haar_columns_are_leading_columns_of_a_haar_unitary():
    # The first k columns of a whole draw and a k-column draw share a law;
    # compare every entry's real part, imaginary part and modulus.
    rng = np.random.default_rng(11)
    n, k, size = 4, 2, 4000
    cols = haar_unitary_stack(n, size, rng, k)
    assert cols.shape == (size, n, k)
    assert np.max(np.abs(cols.conj().swapaxes(-1, -2) @ cols - np.eye(k))) < 1e-14
    whole = haar_unitary_stack(n, size, rng)[..., :k]
    for part in (np.real, np.imag, np.abs):
        for i in range(n):
            for j in range(k):
                pvalue = sps.ks_2samp(part(cols[:, i, j]), part(whole[:, i, j])).pvalue
                assert pvalue > 1e-3, (part.__name__, i, j, pvalue)


def test_haar_unitary_second_moment_is_one_over_n():
    # E|u_ij|^2 = 1/n for Haar measure; Monte Carlo check at 3 standard errors.
    rng = np.random.default_rng(42)
    stack = haar_unitary_stack(4, 100_000, rng)
    sq = np.abs(stack) ** 2
    mean = sq.mean(axis=0)
    se = sq.std(axis=0) / np.sqrt(sq.shape[0])
    assert np.all(np.abs(mean - 0.25) <= 3 * se)


def test_haar_left_invariance_of_moments():
    # The law of V0 @ U matches the law of U: compare first two moments.
    rng = np.random.default_rng(7)
    n, size = 3, 4000
    v0 = haar_unitary_stack(n, 1, rng)[0]
    base = haar_unitary_stack(n, size, rng)
    rotated = v0 @ haar_unitary_stack(n, size, rng)
    for moment in (lambda s: np.abs(s) ** 2, lambda s: s.real, lambda s: s.imag):
        m1, m2 = moment(base), moment(rotated)
        se = np.sqrt(m1.var(axis=0) / size + m2.var(axis=0) / size)
        assert np.all(np.abs(m1.mean(axis=0) - m2.mean(axis=0)) <= 3 * se + 1e-12)


def test_unitary_to_symplectic_identity():
    r = unitary_to_symplectic(np.eye(1, dtype=complex))
    np.testing.assert_allclose(r.matrix, np.eye(2), atol=1e-15)


def test_unitary_to_symplectic_phase_rotation():
    # U = i is a 90 degree phase rotation: (q, p) -> (-p, q).
    r = unitary_to_symplectic(np.array([[1j]]))
    np.testing.assert_allclose(r.apply(np.array([1.0, 0.0])), [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(r.apply(np.array([0.0, 1.0])), [-1.0, 0.0], atol=1e-15)


def test_unitary_to_symplectic_residuals():
    rng = np.random.default_rng(3)
    r = unitary_to_symplectic(haar_unitary_stack(2, 1, rng)[0])
    assert orthogonality_residual(r.matrix) <= 1e-12
    assert symplecticity_residual(r.matrix) <= 1e-12


def test_unitary_to_symplectic_rejects_non_unitary():
    bad = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
    with pytest.raises(PreconditionError):
        unitary_to_symplectic(bad)
    # A NaN residual fails the check too, rather than passing "> tol".
    with pytest.raises(PreconditionError, match="residual nan"):
        unitary_to_symplectic(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


@pytest.mark.parametrize("n, size, k", [(1, 5, None), (3, 4, None), (6, 10, 2), (40, 3, 2)])
def test_haar_unitary_stack_draws_are_the_ginibre_formula(n, size, k):
    # The in-place Ginibre draw keeps the draw order and every value:
    # the output is bit for bit the phase-fixed QR of (a + i b) / sqrt(2).
    got = haar_unitary_stack(n, size, np.random.default_rng(n + size), k)
    rng = np.random.default_rng(n + size)
    shape = (size, n, n if k is None else k)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    want = phase_fixed_qr((a + 1j * b) / np.sqrt(2.0), mode="reduced")
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_complex_modes_is_an_exact_view():
    v = np.array([1.0, np.inf, -np.inf, np.nan, -0.0, 2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = complex_modes(v)
    assert np.shares_memory(a, v)
    assert np.array_equal(a.view(np.float64), v, equal_nan=True)
    assert np.signbit(a[2].real)
    # Lists, integers and strided input are copied to contiguous float64 first.
    assert complex_modes([1, 2]).tolist() == [1 + 2j]
    assert complex_modes(np.arange(8.0)[::2]).tolist() == [2j, 4 + 6j]
    with pytest.raises(InvalidDimensionError):
        complex_modes(np.ones(3))


@pytest.mark.parametrize("shape", [(2, 3), (0, 0), (2,), (1, 2, 2)])
def test_unitary_to_symplectic_rejects_non_square(shape):
    with pytest.raises(InvalidDimensionError):
        unitary_to_symplectic(np.ones(shape, dtype=complex))


def test_complex_real_consistency():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5):
        u = haar_unitary_stack(n, 1, rng)[0]
        r = unitary_to_symplectic(u)
        x = rng.standard_normal(2 * n)
        direct = interleave_modes(u @ complex_modes(x))
        assert np.max(np.abs(direct - r.apply(x))) <= 1e-12


def test_single_mode_group_is_planar_rotations():
    rng = np.random.default_rng(5)
    r = _haar_element(1, rng).matrix
    assert abs(r[0, 0] - r[1, 1]) < 1e-14
    assert abs(r[0, 1] + r[1, 0]) < 1e-14
    assert abs(np.linalg.det(r) - 1.0) < 1e-14


def test_determinant_is_one():
    rng = np.random.default_rng(6)
    for n in (2, 5):
        r = _haar_element(n, rng)
        assert abs(np.linalg.det(r.matrix) - 1.0) <= 1e-10


def test_rotated_vector_is_uniform_on_sphere():
    # (R v) . e1 for fixed unit v must match the first coordinate of a
    # uniform point on S^5; oracle: normalized 6-d Gaussians.
    rng = np.random.default_rng(8)
    n, size = 3, 10_000
    v = np.zeros(2 * n)
    v[0] = 1.0
    stack = haar_orthogonal_symplectic_stack(n, size, rng)
    first = stack[:, 0, :] @ v
    g = rng.standard_normal((size, 2 * n))
    oracle = g[:, 0] / np.linalg.norm(g, axis=1)
    assert sps.ks_2samp(first, oracle).pvalue > 0.01


def test_group_closure_of_products():
    rng = np.random.default_rng(9)
    for n in (2, 6):
        u1, u2 = haar_unitary_stack(n, 2, rng)
        prod = _haar_element(n, rng).matrix @ _haar_element(n, rng).matrix
        assert orthogonality_residual(prod) <= 1e-11
        assert symplecticity_residual(prod) <= 1e-11
        # The real image is a homomorphism: the image of U2 U1 is the product of the images.
        np.testing.assert_allclose(unitary_to_symplectic(u2 @ u1).matrix,
                                   unitary_to_symplectic(u2).matrix @ unitary_to_symplectic(u1).matrix,
                                   atol=1e-13)


def test_residual_helpers_match_definitions():
    rng = np.random.default_rng(10)
    n = 3
    r = _haar_element(n, rng).matrix
    omega = np.kron(np.eye(n), [[0, 1], [-1, 0]])
    assert abs(orthogonality_residual(r) - np.max(np.abs(r.T @ r - np.eye(2 * n)))) < 1e-15
    assert abs(symplecticity_residual(r) - np.max(np.abs(r.T @ omega @ r - omega))) < 1e-15
