"""Haar-random unitaries and their phase-space image in O(2n,R) ∩ Sp(2n,R).

Vectors of quadrature data use the *interleaved* ordering
``(q_1, p_1, q_2, p_2, ..., q_n, p_n)`` everywhere in this package, and
elements of U(n) are plain unitary arrays (n, n) or stacks (size, n, n).

Mode ``k`` of an interleaved vector ``v`` carries the complex amplitude
``a_k = v[2k] + 1j * v[2k+1]``.  A unitary ``U`` acting on the amplitude
vector corresponds to the real matrix returned by
:func:`unitary_to_symplectic` acting on the interleaved vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, PreconditionError

UNITARITY_TOL = 1e-12


def omega_apply(m):
    """Omega @ m without building Omega, the interleaved form diag([[0, 1], [-1, 0]], ...).

    Acts on axis -2, so it works for stacked matrices and for column
    vectors shaped (..., 2n, k).
    """
    out = np.empty_like(m)
    out[..., 0::2, :] = m[..., 1::2, :]
    out[..., 1::2, :] = -m[..., 0::2, :]
    return out


def complex_modes(v):
    """Pack an interleaved real 2n-vector into its n complex mode amplitudes.

    A complex128 view of ``v`` (of a contiguous float64 copy unless ``v`` is
    one): no arithmetic, so every value, inf included, carries over exactly.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape[-1] % 2:
        raise InvalidDimensionError(f"interleaved vector length must be even, got {v.shape[-1]}")
    return v.view(np.complex128)


def interleave_modes(a):
    """Inverse of :func:`complex_modes`."""
    a = np.asarray(a)
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],))
    out[..., 0::2] = a.real
    out[..., 1::2] = a.imag
    return out


@dataclass(frozen=True)
class SymplecticOrthogonal:
    """A 2n x 2n matrix in O(2n,R) ∩ Sp(2n,R), interleaved ordering."""

    n: int
    matrix: np.ndarray

    def apply(self, v):
        v = np.asarray(v)
        if v.shape[-1] != 2 * self.n:
            raise InvalidDimensionError(f"vector length {v.shape[-1]} does not match 2n={2 * self.n}")
        return v @ self.matrix.T


def orthogonality_residual(r):
    """max |R^T R - 1| over entries; accepts stacked matrices (..., 2n, 2n)."""
    r = np.asarray(r)
    d = r.shape[-1]
    g = np.swapaxes(r, -1, -2) @ r
    g[..., np.arange(d), np.arange(d)] -= 1.0
    return np.max(np.abs(g), axis=(-2, -1))


def symplecticity_residual(r):
    """max |R^T Omega R - Omega| over entries; accepts stacked matrices."""
    r = np.asarray(r)
    n = r.shape[-1] // 2
    g = np.swapaxes(r, -1, -2) @ omega_apply(r)
    idx = np.arange(n)
    g[..., 2 * idx, 2 * idx + 1] -= 1.0
    g[..., 2 * idx + 1, 2 * idx] += 1.0
    return np.max(np.abs(g), axis=(-2, -1))


def phase_fixed_qr(z, mode="complete"):
    """Unitary Q of ``z = Q R`` (..., m, k) with R's diagonal real and >= 0.

    ``mode`` is passed to ``np.linalg.qr``: "complete" returns the whole
    (..., m, m) Q, "reduced" its first min(m, k) columns.  Those columns
    are multiplied by the phases of R's diagonal (phase 1 where an entry is
    zero), which makes the factorization unique wherever R's diagonal is
    nonzero (Mezzadri, arXiv:math-ph/0609050).  Works on stacks.
    """
    q, r = np.linalg.qr(z, mode=mode)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phases = np.divide(d, mag, out=np.ones_like(d), where=mag > 0)
    q[..., :d.shape[-1]] *= phases[..., None, :]
    return q


def haar_unitary_stack(n, size, rng, k=None):
    """Sample ``size`` independent Haar unitaries as an array (size, n, n).

    With ``k`` columns, 1 <= k <= n, only the first k columns of each
    unitary are drawn, as an array (size, n, k); k = n (the default) is the
    whole unitary.  Uses the phase-fixed reduced QR of a complex Ginibre
    matrix (size, n, k), whose Q has the law of the first k columns of a
    Haar unitary; without the phase fix the QR output is not
    Haar-distributed.
    """
    k = n if k is None else k
    if not 1 <= k <= n:
        raise InvalidDimensionError(f"need 1 <= k <= n, got k = {k} columns of n = {n} modes")
    z = np.empty((size, n, k), dtype=complex)
    z.real, z.imag = rng.standard_normal(z.shape), rng.standard_normal(z.shape)
    z /= np.sqrt(2.0)
    return phase_fixed_qr(z, mode="reduced")


def realify_stack(u_stack):
    """Real interleaved-ordering image of unitaries (..., n, n) -> (..., 2n, 2n).

    Entry u = U[j, k] becomes the 2x2 block [[Re u, -Im u], [Im u, Re u]].
    No unitarity validation; callers that accept untrusted input should go
    through :func:`unitary_to_symplectic`.
    """
    u_stack = np.asarray(u_stack)
    n = u_stack.shape[-1]
    out = np.empty(u_stack.shape[:-2] + (2 * n, 2 * n))
    out[..., 0::2, 0::2] = u_stack.real
    out[..., 0::2, 1::2] = -u_stack.imag
    out[..., 1::2, 0::2] = u_stack.imag
    out[..., 1::2, 1::2] = u_stack.real
    return out


def unitary_to_symplectic(u, tol=UNITARITY_TOL):
    """Map a unitary array U (n, n) to its matrix in O(2n,R) ∩ Sp(2n,R).

    The returned matrix acts on interleaved vectors so that the image of
    mode amplitudes ``a`` under U matches the matrix action on the real
    vector: ``complex_modes(R @ v) == U @ complex_modes(v)``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
        raise InvalidDimensionError(f"expected a square non-empty matrix, got shape {u.shape}")
    gram = u.conj().T @ u
    gram.reshape(-1)[::u.shape[0] + 1] -= 1.0  # U^H U - 1, in place
    res = np.abs(gram).max()
    if not res <= tol:  # a NaN residual fails too
        raise PreconditionError(f"matrix is not unitary: residual {res:.3e} > {tol:.1e}")
    return SymplecticOrthogonal(u.shape[0], realify_stack(u))


def haar_orthogonal_symplectic_stack(n, size, rng):
    """``size`` Haar-distributed elements of O(2n,R) ∩ Sp(2n,R) (isomorphic to U(n)), (size, 2n, 2n)."""
    return realify_stack(haar_unitary_stack(n, size, rng))
