"""Dual-number scalars, matrices and vectors.

A dual number is a + eps*b with eps != 0 and eps**2 == 0.  A dual matrix
is written Ahat = A + eps*B for real matrices A (standard part) and B
(infinitesimal part) of equal shape.  All arithmetic follows the ring
law (a + eps b)(c + eps d) = ac + eps(ad + bc).  Values a caller
supplies are checked; ring results are not (``_trusted``), so one that
overflows holds inf, as a NumPy array would.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .realkernel import _count, _real, _tolerance

__all__ = [
    "DualScalar",
    "DualMatrix",
    "DualVector",
    "dual_power",
    "s_matrix",
]


@dataclass(frozen=True)
class DualScalar:
    """Scalar dual number std + eps*inf, its parts Python floats."""

    std: float
    inf: float = 0.0

    def __post_init__(self):
        for part in ("std", "inf"):
            object.__setattr__(self, part, float(
                _real(getattr(self, part), "dual parts", ndim=0)))

    def __add__(self, other):
        other = _as_dual_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return _trusted(DualScalar, self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dual_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return _trusted(DualScalar, self.std - other.std, self.inf - other.inf)

    def __neg__(self):
        return _trusted(DualScalar, -self.std, -self.inf)

    def __mul__(self, other):
        other = _as_dual_scalar(other)
        if other is NotImplemented:
            return NotImplemented  # defer to matrix/vector __rmul__
        return _trusted(DualScalar, self.std * other.std,
                        self.std * other.inf + self.inf * other.std)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{self.std} + {self.inf}eps"


def _as_dual_scalar(x):
    if isinstance(x, DualScalar):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        return DualScalar(x)
    return NotImplemented


def _as_pair(std, inf, ndim):
    std = _real(std, "dual parts", ndim)
    inf = np.zeros_like(std) if inf is None else _real(inf, "dual parts", ndim)
    if std.shape != inf.shape:
        raise DimensionError(f"standard part {std.shape} and infinitesimal "
                             f"part {inf.shape} differ in shape")
    return std, inf


def _refuse_radd(self, other):
    """Refuse ``other + self`` with the TypeError ``other - self``
    raises: without it an ndarray ``other`` falls back to concatenation,
    whose message misleads."""
    raise TypeError(f"unsupported operand type(s) for +: "
                    f"'{type(other).__name__}' and '{type(self).__name__}'")


def _trusted(cls, std, inf):
    """The ``cls`` with parts ``std`` and ``inf``, float arrays of equal
    shape (Python floats for a DualScalar), built with none of the
    constructor's checks: for ring results of checked values."""
    x = object.__new__(cls)
    state = vars(x)
    state["std"], state["inf"] = std, inf
    return x


@dataclass(frozen=True)
class DualVector:
    """Dual column vector std + eps*inf."""

    std: np.ndarray
    inf: np.ndarray = None
    __array_ufunc__ = None  # as DualMatrix: a real array goes on the right

    def __post_init__(self):
        std, inf = _as_pair(self.std, self.inf, ndim=1)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "inf", inf)

    def __len__(self):
        return self.std.shape[0]

    def __add__(self, other):
        _check_length(self, other, "add")
        return _trusted(DualVector, self.std + other.std, self.inf + other.inf)

    __radd__ = _refuse_radd

    def __sub__(self, other):
        _check_length(self, other, "subtract")
        return _trusted(DualVector, self.std - other.std, self.inf - other.inf)

    def __neg__(self):
        return _trusted(DualVector, -self.std, -self.inf)

    def norm(self):
        """max of the 2-norms of the two parts."""
        return max(_fro(self.std), _fro(self.inf))

    @classmethod
    def zeros(cls, n):
        if np.ndim(n):  # a shape: a dual vector has one size
            raise DimensionError(f"'n' must be a size, not a shape: {n!r}")
        n = _count(n, "'n'")
        return _trusted(cls, np.zeros(n), np.zeros(n))


def _check_length(x, y, verb):
    """DimensionError unless ``y`` is a DualVector as long as ``x``."""
    size = len(y) if isinstance(y, DualVector) else type(y).__name__
    if size != len(x):
        raise DimensionError(f"cannot {verb} dual vectors of length "
                             f"{len(x)} and {size}")


@dataclass(frozen=True)
class DualMatrix:
    """Dual matrix Ahat = std + eps*inf with real parts of equal shape.

    A real array operand goes on the right (``X + a``, ``X @ a``) or
    through ``from_real``: ``a + X``, ``a - X`` and ``a @ X`` raise
    TypeError, as NumPy defers to DualMatrix (``__array_ufunc__ =
    None``), which defines no reflected operator but a refusing
    ``__radd__``."""

    std: np.ndarray
    inf: np.ndarray = None
    __array_ufunc__ = None

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
        """True when ||A||_F > ``tol``, a finite number >= 0."""
        return _fro(self.std) > _tolerance(tol, low=">=")

    @property
    def T(self):
        """Dual transpose: both parts transposed componentwise."""
        return _trusted(DualMatrix, self.std.T, self.inf.T)

    def norm(self):
        """Dual norm: max of the Frobenius norms of the two parts."""
        return max(_fro(self.std), _fro(self.inf))

    @classmethod
    def from_real(cls, a):
        return cls(a)

    @classmethod
    def eye(cls, n):
        n = _count(n, "'n'")
        return _trusted(cls, np.eye(n), np.zeros((n, n)))

    @classmethod
    def zeros(cls, rows, cols=None):
        shape = _count(rows, "'rows'"), _count(
            rows if cols is None else cols, "'cols'")
        return _trusted(cls, np.zeros(shape), np.zeros(shape))

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _as_dual_matrix(other)
        if self.std.shape != other.std.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return _trusted(DualMatrix, self.std + other.std, self.inf + other.inf)

    __radd__ = _refuse_radd

    def __sub__(self, other):
        other = _as_dual_matrix(other)
        if self.std.shape != other.std.shape:
            raise DimensionError(f"cannot subtract {self.shape} and {other.shape}")
        return _trusted(DualMatrix, self.std - other.std, self.inf - other.inf)

    def __neg__(self):
        return _trusted(DualMatrix, -self.std, -self.inf)

    def __mul__(self, scalar):
        s = _as_dual_scalar(scalar)
        if s is NotImplemented:
            return NotImplemented
        return _trusted(DualMatrix, s.std * self.std,
                        s.std * self.inf + s.inf * self.std)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, DualVector):
            if self.std.shape[1] != len(other):
                raise DimensionError(f"cannot multiply {self.shape} by "
                                     f"vector of length {len(other)}")
            cls = DualVector
        else:
            other = _as_dual_matrix(other)
            if self.std.shape[1] != other.std.shape[0]:
                raise DimensionError(f"cannot multiply {self.shape} by "
                                     f"{other.shape}")
            cls = DualMatrix
        a = self.std  # ndarray.dot: see the realkernel module docstring
        return _trusted(cls, a.dot(other.std),
                        a.dot(other.inf) + self.inf.dot(other.std))

    def power(self, k):
        """k-th dual power via Ahat^k = A^k + eps * sum A^(k-i) B A^(i-1)."""
        return dual_power(self, k)


def _as_dual_matrix(x):
    """The operand rule, of every dual-matrix argument (README)."""
    if isinstance(x, DualMatrix):
        return x
    if isinstance(x, (DualVector, DualScalar)):
        raise DimensionError(f"a {type(x).__name__} is not a dual matrix "
                             "operand")
    if np.ndim(x) != 2:
        raise DimensionError(f"a {np.ndim(x)}-dimensional {type(x).__name__}"
                             " is not a dual matrix operand")
    return DualMatrix.from_real(x)


def dual_power(x, k):
    """Ahat^k with standard part A^k and infinitesimal part
    sum_{i=1..k} A^(k-i) B A^(i-1), unchecked as ``@``'s result."""
    x = _as_dual_matrix(x)
    if not x.is_square:
        raise DimensionError(f"power of non-square dual matrix {x.shape}")
    k = _count(k, "'k'")
    if k == 0:
        return DualMatrix.eye(x.shape[0])
    a, b = x.std, x.inf
    return _trusted(DualMatrix, np.linalg.matrix_power(a, k),
                    _s_terms(a, b, k)[0])


def s_matrix(a, b, m):
    """S = sum_{i=1..m} A^(m-i) B A^(i-1), the infinitesimal part of
    (A + eps B)^m."""
    a, b = _real(a, "'a'"), _real(b, "'b'")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"s_matrix needs equal square shapes, got "
                             f"{a.shape} and {b.shape}")
    return _s_terms(a, b, _count(m, "'m'", 1))[0]


def _s_terms(a, b, m):
    """(S, sum_{i=1..m} ||A^(m-i) B A^(i-1)||_F): S and the size of its
    terms, the scale of every residual of S."""
    n = a.shape[0]
    powers = [None, a]  # A^k for k >= 1; A^0 = I multiplies by nothing
    for _ in range(m - 2):
        powers.append(powers[-1].dot(a))
    s, size = np.zeros((n, n)), 0.0
    for i in range(1, m + 1):
        term = powers[m - i].dot(b) if m > i else b
        if i > 1:
            term = term.dot(powers[i - 1])
        s += term
        size += _fro(term)
    return s, size


def _fro(x):
    """The Frobenius (2-) norm of the float array ``x`` as a Python float:
    NumPy's own route for ``np.linalg.norm(x)``, bit for bit, without its
    argument handling."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))
