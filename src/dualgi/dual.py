"""Dual-number scalars, matrices and vectors.

A dual number is a + eps*b with eps != 0 and eps**2 == 0.  A dual matrix
is written Ahat = A + eps*B for real matrices A (standard part) and B
(infinitesimal part) of equal shape.  All arithmetic follows the ring
law (a + eps b)(c + eps d) = ac + eps(ad + bc).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "DualScalar",
    "DualMatrix",
    "DualVector",
    "dual_power",
    "s_matrix",
]


@dataclass(frozen=True)
class DualScalar:
    """Scalar dual number std + eps*inf."""

    std: float
    inf: float = 0.0

    def __add__(self, other):
        other = _as_dual_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return DualScalar(self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dual_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return DualScalar(self.std - other.std, self.inf - other.inf)

    def __neg__(self):
        return DualScalar(-self.std, -self.inf)

    def __mul__(self, other):
        other = _as_dual_scalar(other)
        if other is NotImplemented:
            return NotImplemented  # defer to matrix/vector __rmul__
        return DualScalar(self.std * other.std,
                          self.std * other.inf + self.inf * other.std)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{self.std} + {self.inf}eps"


def _as_dual_scalar(x):
    if isinstance(x, DualScalar):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        return DualScalar(float(x))
    return NotImplemented


def _as_pair(std, inf, ndim):
    std = np.asarray(std, dtype=float)
    if inf is None:
        inf = np.zeros_like(std)
    inf = np.asarray(inf, dtype=float)
    if std.ndim != ndim or inf.ndim != ndim:
        raise DimensionError(f"expected {ndim}-dimensional parts, got "
                             f"{std.ndim} and {inf.ndim}")
    if std.shape != inf.shape:
        raise DimensionError(f"standard part {std.shape} and infinitesimal "
                             f"part {inf.shape} differ in shape")
    if not (np.all(np.isfinite(std)) and np.all(np.isfinite(inf))):
        raise ValueError("entries must be finite")
    return std, inf


@dataclass(frozen=True)
class DualVector:
    """Dual column vector std + eps*inf."""

    std: np.ndarray
    inf: np.ndarray = None

    def __post_init__(self):
        std, inf = _as_pair(self.std, self.inf, ndim=1)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "inf", inf)

    def __len__(self):
        return self.std.shape[0]

    def __add__(self, other):
        return DualVector(self.std + other.std, self.inf + other.inf)

    def __sub__(self, other):
        return DualVector(self.std - other.std, self.inf - other.inf)

    def __neg__(self):
        return DualVector(-self.std, -self.inf)

    def norm(self):
        """max of the 2-norms of the two parts."""
        return max(np.linalg.norm(self.std), np.linalg.norm(self.inf))

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class DualMatrix:
    """Dual matrix Ahat = std + eps*inf with real parts of equal shape."""

    std: np.ndarray
    inf: np.ndarray = None

    def __post_init__(self):
        std, inf = _as_pair(self.std, self.inf, ndim=2)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "inf", inf)

    # -- structure ----------------------------------------------------
    @property
    def shape(self):
        return self.std.shape

    @property
    def is_square(self):
        return self.std.shape[0] == self.std.shape[1]

    def is_appreciable(self, tol=0.0):
        """True when the standard part is nonzero."""
        return np.linalg.norm(self.std) > tol

    @property
    def T(self):
        """Dual transpose: both parts transposed componentwise."""
        return DualMatrix(self.std.T, self.inf.T)

    def norm(self):
        """Dual norm: max of the Frobenius norms of the two parts."""
        return max(np.linalg.norm(self.std), np.linalg.norm(self.inf))

    @classmethod
    def from_real(cls, a):
        a = np.asarray(a, dtype=float)
        return cls(a, np.zeros_like(a))

    @classmethod
    def eye(cls, n):
        return cls(np.eye(n), np.zeros((n, n)))

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(np.zeros((rows, cols)), np.zeros((rows, cols)))

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _as_dual_matrix(other)
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return DualMatrix(self.std + other.std, self.inf + other.inf)

    def __sub__(self, other):
        other = _as_dual_matrix(other)
        if self.shape != other.shape:
            raise DimensionError(f"cannot subtract {self.shape} and {other.shape}")
        return DualMatrix(self.std - other.std, self.inf - other.inf)

    def __neg__(self):
        return DualMatrix(-self.std, -self.inf)

    def __mul__(self, scalar):
        s = _as_dual_scalar(scalar)
        if s is NotImplemented:
            return NotImplemented
        return DualMatrix(s.std * self.std,
                          s.std * self.inf + s.inf * self.std)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, DualVector):
            if self.shape[1] != len(other):
                raise DimensionError(f"cannot multiply {self.shape} by "
                                     f"vector of length {len(other)}")
            return DualVector(self.std @ other.std,
                              self.std @ other.inf + self.inf @ other.std)
        other = _as_dual_matrix(other)
        if self.shape[1] != other.shape[0]:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        return DualMatrix(self.std @ other.std,
                          self.std @ other.inf + self.inf @ other.std)

    def power(self, k):
        """k-th dual power via Ahat^k = A^k + eps * sum A^(k-i) B A^(i-1)."""
        return dual_power(self, k)


def _as_dual_matrix(x):
    if isinstance(x, DualMatrix):
        return x
    return DualMatrix.from_real(x)


def dual_power(x, k):
    """Ahat^k with standard part A^k and infinitesimal part
    sum_{i=1..k} A^(k-i) B A^(i-1)."""
    if not x.is_square:
        raise DimensionError(f"power of non-square dual matrix {x.shape}")
    k = int(k)
    if k < 0:
        raise ValueError("negative dual power is not defined here")
    if k == 0:
        return DualMatrix.eye(x.shape[0])
    a, b = x.std, x.inf
    return DualMatrix(np.linalg.matrix_power(a, k), s_matrix(a, b, k))


def s_matrix(a, b, m):
    """S = sum_{i=1..m} A^(m-i) B A^(i-1), the infinitesimal part of
    (A + eps B)^m."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"s_matrix needs equal square shapes, got "
                             f"{a.shape} and {b.shape}")
    m = int(m)
    if m < 1:
        raise ValueError("s_matrix needs m >= 1")
    return _s_terms(a, b, m)[0]


def _s_terms(a, b, m):
    """(S, sum_{i=1..m} ||A^(m-i) B A^(i-1)||_F): S and the size of its
    terms, the scale of every residual of S."""
    n = a.shape[0]
    powers = [np.eye(n)]
    for _ in range(m - 1):
        powers.append(powers[-1] @ a)
    s, size = np.zeros((n, n)), 0.0
    for i in range(1, m + 1):
        term = powers[m - i] @ b @ powers[i - 1]
        s += term
        size += np.linalg.norm(term)
    return s, size
