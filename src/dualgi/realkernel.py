"""Real-matrix kernel: rank, index, Moore-Penrose, Drazin, core-EP.

The central object is the core-EP (Schur-like) decomposition

    A = U [[T1, T2], [O, N]] U^T

with U orthogonal, T1 invertible (t x t, t = rank(A^m), m = Ind(A))
and N nilpotent.  One factorization feeds the Drazin inverse, the
core-EP inverse and the dual core-EP frame (``inverses._Frame``).
Every factorization and solve of the package runs in this module,
through ``_lapack``, every rank it cuts follows ``_svd_rank``, and
every value a caller passes meets ``_real`` (arrays), ``_count`` (counts)
or ``_tolerance`` (tolerances): README, "What a call accepts".

Every product of two real arrays in the package is ``a.dot(b)``, not
``a @ b``, and every row of two blocks is ``np.concatenate(..., axis=1)``,
not ``np.hstack``.  One call makes tens of small products, and at n <= 8
the dispatch of NumPy's ``matmul`` ufunc costs twice the product: 0.84
against 0.38 us for a 6 x 6 product, 0.82 against 0.40 us for a matrix
times a vector, 1.65 against 0.80 us for the row (NumPy 2.4.6, one
OpenBLAS thread, 2-vCPU x86-64 VM); from n = 64 on the two are equal.
``dot`` calls the same BLAS routine, so the two agree bit for bit on
C-contiguous operands; a transposed or sliced operand may reach BLAS in
another layout and move the last bits.  The rule covers 2-D and 1-D
float operands only: ``dot`` is not a batched product on stacked
(k, n, n) arrays, which need ``np.matmul``.  ``_horner`` keeps ``@``,
as it serves DualMatrix values too, whose ``@`` is built on ``dot``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NumericalError

__all__ = [
    "DEFAULT_TOL",
    "CoreEPBlocks",
    "numerical_rank",
    "index",
    "moore_penrose",
    "drazin",
    "core_ep_decompose",
    "core_ep_inverse",
]

#: Default relative residual threshold used throughout the package.
DEFAULT_TOL = 1e-10

#: The rank rule cuts at this times the roundoff scale; README says why.
#: A Python float, so the cut and its comparisons stay out of NumPy scalars.
_RANK_REL = 100 * float(np.finfo(float).eps)


def _real(x, name, ndim=2, finite=True):
    """The array rule: ``x`` as a float array (no copy of one) of a real
    dtype with ``ndim`` dimensions and, if ``finite``, finite entries."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":  # NumPy drops 1j, parses strings
        raise TypeError(f"{name} must be real numbers, got dtype {x.dtype}")
    if x.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {x.shape}")
    x = x.astype(float, copy=False)
    if finite and not np.isfinite(x).all():
        raise ValueError(f"{name} must have finite entries")
    return x


def _count(value, name, low=0):
    """The count rule: ``value`` as an int, for an integer >= ``low``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _tolerance(tol, name="'tol'", low=">"):
    """The tolerance rule: ``tol`` as a Python float, for a real scalar
    (not a bool, a string or an array), finite and > 0, or >= 0 for
    ``low`` ">=" (README says why)."""
    if isinstance(tol, bool) or not isinstance(
            tol, (int, float, np.integer, np.floating)) or not (
            0 < tol < np.inf or low == ">=" and tol == 0):
        raise ValueError(f"{name} must be a finite number {low} 0, "
                         f"got {tol!r}")
    return float(tol)


def _lapack(what, fn, a, *args, **kwargs):
    """``fn(a, *args, **kwargs)`` for a LAPACK routine ``fn`` (``what``
    names it): a LinAlgError (no convergence, a singular matrix) becomes
    NumericalError, or ``_real``'s ValueError for an ``a`` not finite."""
    try:
        return fn(a, *args, **kwargs)
    except np.linalg.LinAlgError as exc:
        _real(a, "'a'")
        raise NumericalError(f"{what} of a {a.shape[0]}x{a.shape[1]} matrix "
                             f"failed: {exc}") from exc


def _svd_rank(a, floor=0.0, uv=False):
    """The one rank rule: one SVD of ``a``, and the count of its
    singular values above 100 eps max(max(shape) sigma_max(a), floor).

    ``floor`` is the roundoff scale ``a`` carries from the matrix it was
    built from (n sigma_max(A) for a staircase block of A).  Returns
    (rank, sigma_max(a), svd), svd being the singular values, or
    (U, sv, Vt) with ``uv``, so that a basis or pseudo-inverse from
    these factors has that rank.  The entries of ``a``, a float array,
    are read only where the SVD fails or overflows (``_real``).
    """
    svd = _lapack("SVD", np.linalg.svd, a, compute_uv=uv)
    sv = (svd[1] if uv else svd).tolist()
    sigma = sv[0] if sv else 0.0
    if not sigma < np.inf:  # inf or nan
        _real(a, "'a'")
        raise NumericalError(f"the SVD overflowed: sigma_max {sigma}")
    cut = _RANK_REL * max(max(a.shape) * sigma, floor)
    return sum(s > cut for s in sv), sigma, svd


def _range_factor(a, u1):
    """(Q, K^-1) with a = U1 [K, O] Q^T, for ``u1`` t orthonormal columns
    that span R(a) (U1 of the core-EP frame for a = A^m): K = R^T from
    the complete QR a^T U1 = Q [[R], [O]], inverted by a solve.  The rank
    is the frame's t; no singular value is cut here."""
    q, r = _lapack("QR", np.linalg.qr, a.T.dot(u1), mode="complete")
    t = u1.shape[1]
    return q, _lapack("solve", np.linalg.solve, r[:t], np.eye(t)).T


def numerical_rank(a):
    """Rank via singular values, cut at 100 max(rows, cols) eps sigma_max."""
    return _svd_rank(_real(a, "'a'", finite=False))[0]


def _staircase(a):
    """(U, t, m) by staircase deflation of A^T (Kublanovskaya
    1966; Van Dooren 1979): each step's SVD of the trailing block (A^T at
    first), cut at 100 n eps sigma_max(A), moves the block's null space
    V_0 behind the rest V_r and goes on with V_r^T blk V_r, until a block
    is nonsingular.  The m steps' deflated columns span N((A^T)^m), the
    complement of R(A^m), so U^T A U is block upper triangular.

    The last block's SVD is skipped where the step before proves that
    block nonsingular.  A step that deflates blk = P Sigma Q^T at rank
    r, Q = [Q_r, Q_0], leaves Q_r^T blk Q_r = (Q_r^T P_r) Sigma_r, and
    as [Q_r, Q_0]^T P_r has orthonormal columns, sigma_min(Q_r^T P_r)^2
    = 1 - ||Q_0^T P_r||_2^2 >= gap = 1 - ||Q_0^T P_r||_F^2 (a cosine of
    the principal angles between R(P_r) and R(Q_r); Bjorck and Golub
    1973).  So that block's sigma_min is at least sigma_r sqrt(gap),
    while the rank rule's cut for it is 100 eps n sigma_max(A): its
    floor dominates, as r < n and its sigma_max is at most
    sigma_max(A).  The steps stop when sigma_r sqrt(gap) is above twice
    that cut.  The factors are backward stable to O(eps sigma_max(A)),
    far inside the cut, so that SVD would find full rank, and nothing
    else of it is read.  ``gap`` must also be above 100 n eps, clear of
    the cancellation in 1 - ||x||^2: for a singular block it is
    roundoff of about eps, whose square root, about 1e-8, would pass
    the first test.  Where either test fails the block's SVD decides,
    so (U, t, m) is bit for bit that of the staircase that takes every
    block's SVD (``tests/helpers.py``, ``reference_staircase``).
    """
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError(f"'a' must be square, got shape {a.shape}")
    u, blk, t, m, sigma = np.eye(n), a.T, n, 0, 0.0
    while t:
        r, sig, (p, sv, vt) = _svd_rank(blk, floor=n * sigma, uv=True)
        sigma = max(sigma, sig)
        if r == t:
            break
        u[:, :t] = u[:, :t].dot(vt.T)
        t, m = r, m + 1
        if r:
            x = vt[r:].dot(p[:, :r]).ravel()  # Q_0^T P_r
            gap = 1.0 - float(x.dot(x))
            if gap > _RANK_REL * n and (
                    sv[r - 1] * gap ** 0.5 > 2 * _RANK_REL * n * sigma):
                break
        blk = vt[:r].dot(blk).dot(vt[:r].T)
    return u, t, m


def index(a):
    """Smallest s >= 0 with rank(A^(s+1)) == rank(A^s), the number of
    deflating staircase steps.  For A == O this is 1 (rank(A^0) = n >
    0 = rank(A)), which is also what the downstream dual formulas need.
    """
    return _staircase(_real(a, "'a'", finite=False))[2]


def moore_penrose(a):
    """Moore-Penrose inverse, at the rank ``numerical_rank`` decides."""
    rank, _, (u, sv, vt) = _svd_rank(_real(a, "'a'", finite=False), uv=True)
    return (vt[:rank].T / sv[:rank]).dot(u[:, :rank].T)


@dataclass(frozen=True)
class CoreEPBlocks:
    """Core-EP decomposition data A = U [[T1, T2], [O, N]] U^T.

    t = rank(A^m) and m = Ind(A).  U is orthogonal, T1 invertible,
    N nilpotent with N^max(m,1) = O.  U is not unique; only the
    reconstructed quantities are.

    The real decomposition and its real uses; T1^-1 is computed once,
    on first use.  The dual frame (``inverses._Frame``) reads T1^-1 and
    forms U^T B U, U3 and C = B4 - U3 T2 on it when it is built.  The
    dual formulas use the effective index mp = max(m, 1).
    """

    U: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    N: np.ndarray
    t: int
    m: int

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def mp(self):
        return max(self.m, 1)

    def upper(self):
        """The block triangular middle factor [[T1, T2], [O, N]]."""
        return np.concatenate([
            np.concatenate([self.T1, self.T2], axis=1),
            np.concatenate([np.zeros((self.n - self.t, self.t)), self.N],
                           axis=1)])

    def reconstruct(self):
        return self.U.dot(self.upper()).dot(self.U.T)

    def assemble(self, m11, m12, m21, m22):
        """U [[m11, m12], [m21, m22]] U^T for conformal blocks."""
        middle = np.concatenate([np.concatenate([m11, m12], axis=1),
                                 np.concatenate([m21, m22], axis=1)])
        return self.U.dot(middle).dot(self.U.T)

    def assemble_top(self, m11, m12):
        """U [[m11, m12], [O, O]] U^T for conformal blocks."""
        row = np.concatenate([m11, m12], axis=1)
        return self.U[:, :self.t].dot(row).dot(self.U.T)

    @cached_property
    def t1_inv(self):
        return _lapack("inverse", np.linalg.inv, self.T1)


def core_ep_decompose(a, u=None):
    """Core-EP decomposition of a square matrix.

    One staircase pass decides m = Ind(A) and t = rank(A^m) and builds
    the orthogonal U: its leading t columns span range(A^m) (an
    A-invariant subspace), the rest N((A^T)^m).  A caller-supplied
    orthogonal ``u`` whose leading t columns span range(A^m) is
    accepted instead, which pins down a particular block frame.
    """
    a = _real(a, "'a'", finite=False)
    n = a.shape[0]
    u_stair, t, m = _staircase(a)
    if u is None:
        u = u_stair
    else:
        u = _real(u, "'u'").copy()  # not the caller's array
        if u.shape != (n, n):
            raise DimensionError(f"'u' must be {n}x{n}, got {u.shape}")
        if not np.allclose(u.T.dot(u), np.eye(n), rtol=0, atol=1e-10):
            raise ValueError("'u' is not orthogonal")
        lead, basis = u[:, :t], u_stair[:, :t]
        if not np.allclose(basis.dot(basis.T.dot(lead)), lead, rtol=0,
                           atol=1e-8):
            raise ValueError("leading columns of 'u' do not span "
                             "range(A^m)")
    w = u.T.dot(a).dot(u)
    # the fields set directly, as ``dual._trusted`` builds a ring result:
    # at n <= 6 the frozen dataclass's __init__ is a cost per frame.  The
    # blocks stay contiguous copies: at n = 64 the witnesses' products
    # read them faster than views of w
    blocks = object.__new__(CoreEPBlocks)
    vars(blocks).update(U=u, T1=w[:t, :t].copy(), T2=w[:t, t:].copy(),
                        N=w[t:, t:].copy(), t=t, m=m)
    return blocks


def _horner(x, left, right, k):
    """sum_{i<k} left^i x right^i, k >= 1, by Horner's rule, for real
    arrays or DualMatrix values: U3 and the real and dual Drazin blocks."""
    acc = x
    for _ in range(k - 1):
        acc = x + left @ acc @ right
    return acc


def drazin(a):
    """Drazin inverse via the core-EP block form of ``a``.

    A^D = U [[T1^-1, Y], [O, O]] U^T, Y = T1^-(m+1) Ttilde by Horner's
    rule in T1^-1 and N, as the DDGI's standard part is formed.
    """
    blocks = core_ep_decompose(a)
    ti = blocks.t1_inv
    return blocks.assemble_top(
        ti, ti.dot(ti).dot(_horner(blocks.T2, ti, blocks.N, blocks.mp)))


def core_ep_inverse(a):
    """Core-EP inverse U [[T1^-1, O], [O, O]] U^T of ``a``.

    Coincides with A^D A^m (A^m)^dagger (tested, not used as the
    computation route).
    """
    blocks = core_ep_decompose(a)
    return blocks.assemble_top(blocks.t1_inv,
                               np.zeros((blocks.t, blocks.n - blocks.t)))
