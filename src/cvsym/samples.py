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


def mode_symplectic_products(x, y):
    """Per-mode symplectic products x_{2k} y_{2k+1} - x_{2k+1} y_{2k}, shape (n,)."""
    xs = np.asarray(x).reshape(-1, 2)
    ys = np.asarray(y).reshape(-1, 2)
    return xs[:, 0] * ys[:, 1] - xs[:, 1] * ys[:, 0]


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

    def invariant_triple(self):
        return InvariantTriple.from_batch(self)


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
    def from_batch(cls, batch):
        # Summed from mode_triples, so sums of its rows reproduce these
        # values with zero tolerance.
        t = mode_triples(batch.x, batch.y)
        w = mode_symplectic_products(batch.x, batch.y)
        return cls(float(np.sum(t[:, 0])), float(np.sum(t[:, 1])),
                   float(np.sum(t[:, 2])), float(np.sum(w)))

    def relative_deviations(self, other):
        """Per-quantity |self - other| on the natural scale of each quantity.

        Norms are compared relative to themselves; the dot and symplectic
        products relative to the Cauchy-Schwarz scale |x||y|, which keeps
        the comparison meaningful when they vanish.
        """
        cs_scale = max(np.sqrt(self.norm_x_sq * self.norm_y_sq),
                       np.sqrt(other.norm_x_sq * other.norm_y_sq))
        out = {}
        for name, scale in (("norm_x_sq", max(self.norm_x_sq, other.norm_x_sq)),
                            ("norm_y_sq", max(self.norm_y_sq, other.norm_y_sq)),
                            ("dot_xy", cs_scale),
                            ("symp_xy", cs_scale)):
            diff = abs(getattr(self, name) - getattr(other, name))
            out[name] = 0.0 if scale == 0.0 else diff / scale
        return out
