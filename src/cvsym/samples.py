"""Paired quadrature data batches and the statistics preserved by symmetrization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError


def mode_triples(x, y):
    """Per-mode reduction to (X, Y, Z) rows, shape (n, 3).

    Mode k contributes X_k = x_{2k}^2 + x_{2k+1}^2, likewise Y_k for y,
    and Z_k = x_{2k} y_{2k} + x_{2k+1} y_{2k+1}.
    """
    xs = np.asarray(x).reshape(-1, 2)
    ys = np.asarray(y).reshape(-1, 2)
    return np.stack([(xs * xs).sum(axis=1), (ys * ys).sum(axis=1), (xs * ys).sum(axis=1)], axis=1)


@dataclass(frozen=True)
class SampleBatch:
    """One protocol round: Alice's and Bob's interleaved 2n-vectors."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise InvalidDimensionError(f"x and y must be 1-d with equal length, got {x.shape} and {y.shape}")
        if x.size == 0 or x.size % 2:
            raise InvalidDimensionError(f"vector length must be positive and even, got {x.size}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.x.size // 2


@dataclass(frozen=True)
class InvariantTriple:
    """The quantities preserved by every orthogonal-symplectic transformation.

    Besides the three of the limiting-distribution reduction (|x|^2, |y|^2,
    x.y) this also audits the symplectic product omega(x, y), which is the
    imaginary part of the complex inner product of the mode amplitudes and
    is itself invariant.
    """

    norm_x_sq: float
    norm_y_sq: float
    dot_xy: float
    symp_xy: float

    @classmethod
    def from_coords(cls, x, y):
        """The invariants of interleaved vectors x, y (..., 2n), one per leading index.

        Summed per mode first, as :func:`mode_triples` rows are, so sums of
        its rows reproduce these values with zero tolerance.
        """
        xs = np.reshape(x, np.shape(x)[:-1] + (-1, 2))
        ys = np.reshape(y, np.shape(y)[:-1] + (-1, 2))
        return cls((xs * xs).sum(axis=-1).sum(axis=-1), (ys * ys).sum(axis=-1).sum(axis=-1),
                   (xs * ys).sum(axis=-1).sum(axis=-1),
                   (xs[..., 0] * ys[..., 1] - xs[..., 1] * ys[..., 0]).sum(axis=-1))

    def relative_deviations(self, other):
        """Per-quantity |self - other| on the natural scale of each quantity.

        Norms are compared relative to themselves; the dot and symplectic
        products relative to the Cauchy-Schwarz scale |x||y|, which keeps
        the comparison meaningful when they vanish.  Works elementwise on
        triples whose fields are arrays of one shape.
        """
        mine = np.array([self.norm_x_sq, self.norm_y_sq, self.dot_xy, self.symp_xy], dtype=float)
        theirs = np.array([other.norm_x_sq, other.norm_y_sq, other.dot_xy, other.symp_xy], dtype=float)
        # np.maximum, unlike max(), keeps a NaN, so a NaN quantity fails closed.
        scale = np.maximum(mine, theirs)
        scale[2:] = np.sqrt(np.maximum(mine[0] * mine[1], theirs[0] * theirs[1]))
        # A zero scale means both quantities vanish: the deviation is 0.
        dev = np.abs(mine - theirs) / np.where(scale == 0.0, np.inf, scale)
        return dict(zip(("norm_x_sq", "norm_y_sq", "dot_xy", "symp_xy"), dev))
