"""Real-matrix kernel: rank, index, Moore-Penrose, Drazin, core-EP.

Everything the dual layer consumes.  The central object is the
core-EP (Schur-like) decomposition

    A = U [[T1, T2], [O, N]] U^T

with U orthogonal, T1 invertible (t x t, t = rank(A^m), m = Ind(A))
and N nilpotent.  One factorization feeds the Drazin inverse, the
core-EP inverse and all dual formulas built on top of them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError

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


def _square(a, op):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{op} needs a square matrix, got {a.shape}")
    return a


def numerical_rank(a, tol=None):
    """Rank via singular values.

    The default threshold is max(rows, cols) * eps * sigma_max, the
    usual SVD cutoff.  Pass ``tol`` to override with an absolute
    singular-value threshold.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    if tol is None:
        tol = max(a.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    return int(np.sum(sv > tol))


def _power_cutoff(n, sigma, k):
    """Absolute singular-value threshold for rank(A^k), n x n.

    Roundoff in the computed power grows like sigma_max(A)^k, not like
    sigma_max(A^k) (which can be much smaller once nilpotent directions
    die off), so the cutoff must scale with the former.
    """
    return n * np.finfo(float).eps * max(sigma, 1e-300) ** k


def index(a, tol=None):
    """Smallest s >= 0 with rank(A^(s+1)) == rank(A^s).

    For A == O this evaluates to 1 (rank(A^0) = n > 0 = rank(A)),
    which is also what the downstream dual formulas need.
    """
    a = _square(a, "index")
    n = a.shape[0]
    prev_rank = n  # rank(A^0)
    p = np.eye(n)
    for s in range(n + 1):
        p = p @ a
        sv = np.linalg.svd(p, compute_uv=False)
        if s == 0:
            sigma = sv[0] if n else 0.0  # sigma_max(A)
        cut = tol if tol is not None else _power_cutoff(n, sigma, s + 1)
        r = int(np.sum(sv > cut))
        if r == prev_rank:
            return s
        prev_rank = r
    return n  # not reachable: rank strictly decreases until it stabilizes


def moore_penrose(a):
    """Moore-Penrose inverse (the unique four-Penrose-equations solution)."""
    return np.linalg.pinv(np.asarray(a, dtype=float))


@dataclass(frozen=True)
class CoreEPBlocks:
    """Core-EP decomposition data A = U [[T1, T2], [O, N]] U^T.

    t = rank(A^m) and m = Ind(A).  U is orthogonal, T1 invertible,
    N nilpotent with N^max(m,1) = O.  U is not unique; only the
    reconstructed quantities are.

    The one frame every dual inverse, certificate, decomposition and
    solution derives from; the quantities below are computed once, on
    first use.  "A^m" means A^mp, mp = max(m, 1).
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
        top = np.hstack([self.T1, self.T2])
        bottom = np.hstack([np.zeros((self.n - self.t, self.t)), self.N])
        return np.vstack([top, bottom])

    def reconstruct(self):
        return self.U @ self.upper() @ self.U.T

    def split_blocks(self, b):
        """Partition U^T B U into (B1, B2, B3, B4) conformally with
        (T1, T2, O, N)."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n, self.n):
            raise DimensionError(f"expected {(self.n, self.n)}, got {b.shape}")
        w = self.U.T @ b @ self.U
        t = self.t
        return w[:t, :t], w[:t, t:], w[t:, :t], w[t:, t:]

    def assemble(self, m11, m12, m21, m22):
        """U [[m11, m12], [m21, m22]] U^T for conformal blocks."""
        top = np.hstack([m11, m12])
        bottom = np.hstack([m21, m22])
        return self.U @ np.vstack([top, bottom]) @ self.U.T

    def assemble_top(self, m11, m12):
        """U [[m11, m12], [O, O]] U^T for conformal blocks."""
        return self.U[:, :self.t] @ np.hstack([m11, m12]) @ self.U.T

    @cached_property
    def sigma_max(self):
        """sigma_max(A); ``core_ep_decompose`` fills it in, since its
        rank cutoff already needs it."""
        return float(np.linalg.norm(self.upper(), 2))

    @cached_property
    def t1_inv(self):
        return np.linalg.inv(self.T1)

    @cached_property
    def t1_inv_powers(self):
        """[T1^0, T1^-1, ..., T1^-(mp+1)]."""
        return [np.linalg.matrix_power(self.t1_inv, k)
                for k in range(self.mp + 2)]

    @cached_property
    def n_powers(self):
        """[N^0, ..., N^(mp-1)]; N^mp = O."""
        return [np.linalg.matrix_power(self.N, k) for k in range(self.mp)]

    @cached_property
    def t_tildes(self):
        """Upper-right blocks of A^k in the U frame for k = 0..mp, by
        Ttilde_(k+1) = T1 Ttilde_k + T2 N^k.  The last is Ttilde."""
        tops = [np.zeros_like(self.T2)]
        for k in range(self.mp):
            tops.append(self.T1 @ tops[-1] + self.T2 @ self.n_powers[k])
        return tops

    @cached_property
    def am(self):
        """A^m = U [[T1^m, Ttilde], [O, O]] U^T (N^m = O drops out)."""
        return self.assemble_top(np.linalg.matrix_power(self.T1, self.mp),
                                 self.t_tildes[-1])

    @cached_property
    def am_pinv(self):
        """(A^m)^+ = U [M^+, O] U^T at rank t, for M = [T1^m, Ttilde] of
        full row rank: M^+ = Q R^-T from the QR factorization M^T = Q R
        (here of U M^T = (A^m)^T U1, for U1 the leading t columns)."""
        u1 = self.U[:, :self.t]
        q, r = np.linalg.qr(self.am.T @ u1)
        return np.linalg.solve(r, q.T).T @ u1.T

    def sylvester(self, b3):
        """U3 = sum_{i<mp} N^i B3 T1^-(i+1) for B3 the lower-left block
        of U^T B U: the unique solution of N U3 + B3 - U3 T1 = O
        (T1 invertible, N nilpotent)."""
        u3 = np.zeros_like(b3)
        for i in range(self.mp):
            u3 += self.n_powers[i] @ b3 @ self.t1_inv_powers[i + 1]
        return u3


def core_ep_decompose(a, tol=None, u=None):
    """Core-EP decomposition of a square matrix.

    The orthogonal U is built from an SVD of A^max(m,1): its leading t
    left singular vectors span range(A^m) (an A-invariant subspace),
    the remaining ones complete the basis.  The singular values of the
    same SVD decide t.  A caller-supplied orthogonal ``u`` whose
    leading t columns span range(A^m) is accepted instead, which pins
    down a particular block frame.
    """
    a = _square(a, "core_ep_decompose")
    n = a.shape[0]
    m = index(a, tol)
    mp = max(m, 1)
    sigma = float(np.linalg.norm(a, 2))
    u_am, sv, _ = np.linalg.svd(np.linalg.matrix_power(a, mp))
    t = int(np.sum(sv > (tol if tol is not None
                         else _power_cutoff(n, sigma, mp))))
    if u is None:
        u = u_am
    else:
        u = np.asarray(u, dtype=float)
        if u.shape != (n, n):
            raise DimensionError(f"basis must be {n}x{n}, got {u.shape}")
        if not np.allclose(u.T @ u, np.eye(n), atol=1e-10):
            raise ValueError("supplied basis is not orthogonal")
        lead, basis = u[:, :t], u_am[:, :t]
        if not np.allclose(basis @ (basis.T @ lead), lead, atol=1e-8):
            raise ValueError("leading columns of supplied basis do not "
                             "span range(A^m)")
    w = u.T @ a @ u
    blocks = CoreEPBlocks(U=u, T1=w[:t, :t].copy(), T2=w[:t, t:].copy(),
                          N=w[t:, t:].copy(), t=t, m=m)
    vars(blocks)["sigma_max"] = sigma  # where cached_property keeps it
    return blocks


def drazin(a, tol=None, blocks=None):
    """Drazin inverse via the core-EP block form.

    A^D = U [[T1^-1, (T1^(m+1))^-1 Ttilde], [O, O]] U^T.
    """
    if blocks is None:
        blocks = core_ep_decompose(a, tol)
    return blocks.assemble_top(blocks.t1_inv,
                               blocks.t1_inv_powers[-1] @ blocks.t_tildes[-1])


def core_ep_inverse(a, tol=None, blocks=None):
    """Core-EP inverse A = U [[T1^-1, O], [O, O]] U^T.

    Coincides with A^D A^m (A^m)^dagger (tested, not used as the
    computation route).
    """
    if blocks is None:
        blocks = core_ep_decompose(a, tol)
    return blocks.assemble_top(blocks.t1_inv,
                               np.zeros((blocks.t, blocks.n - blocks.t)))
