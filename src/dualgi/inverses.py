"""Dual generalized inverses with existence certificates.

Implements the MPDGI formula, the dual Moore-Penrose inverse (DMPGI),
the dual Drazin inverse (DDGI), the dual group and dual core inverses,
and the dual core-EP generalized inverse (DCEPGI) together with its
compact product formula and a brute-force linear-system oracle.

Existence is decided numerically: each certificate lists residuals,
identity differences over the size of their terms (``_rel``), and the
inverse exists exactly when every one is at or below the tolerance.
The DCEPGI and DDGI certificates share one residual, the size of the
(n-t) x (n-t) defect D = (Nhat^m).inf of the dual core-EP decomposition
Ahat = Uhat [[T1hat, T2hat], [O, Nhat]] Uhat^T, so neither factors a
2n x 2n matrix.  Both inverses are Uhat [[T1hat^-1, Y], [O, O]] Uhat^T,
Y = O for the DCEPGI and T1hat^-(m+1) Ttilde_hat for the DDGI.

Every public call on one input shares one dual frame (``_Frame.of``),
which forms S, Ahat^m, U^T B U, U3, Uhat, the blocks T1hat, T2hat and
Nhat, and the witnesses at most once: the last frame is kept, keyed by
the input's bytes, until a call on another input.  The other modules
share it through ``_Frame.of``.  ``solve_unique_in_range`` and
``range_null_report`` read dual-range membership off it as the size of
Uhat2^T Mhat (``off_range_norm``), ``rank_test`` reads ||U2^T S||, and
none factors a stacked 2n x 2n matrix.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .dual import DualMatrix, _s_terms, dual_power
from .errors import DimensionError, InverseNotExistError
from .realkernel import (DEFAULT_TOL, _lapack, _pinv, _svd_rank,
                         core_ep_decompose, core_ep_inverse, moore_penrose)

__all__ = [
    "ExistenceCertificate",
    "mpdgi",
    "dmpgi_exists",
    "dmpgi",
    "ddgi_exists",
    "ddgi",
    "dual_group",
    "dcepgi_exists",
    "dcepgi",
    "dcepgi_compact",
    "dcepgi_bruteforce_oracle",
    "dual_core_inverse",
    "penrose_residuals",
    "drazin_residuals",
    "core_ep_residuals",
]


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of an existence test.

    ``residuals`` maps identity names to scale-free residuals (``_rel``);
    ``exists`` is true iff every residual is <= ``tolerance``.  When the
    inverse exists, ``witness`` holds it.
    """

    exists: bool
    residuals: dict
    tolerance: float
    witness: Optional[DualMatrix] = None


_NO_DDGI = "dual Drazin inverse does not exist"
_NO_DCEPGI = "dual core-EP inverse does not exist"


def _rel(value, scale):
    """The one residual normalization: value / scale, for ``scale`` the
    size of the identity's terms (``value`` itself when that is 0)."""
    return float(value) / float(scale) if scale else float(value)


def _certify(residuals, tol, witness_fn=None):
    exists = all(r <= tol for r in residuals.values())
    witness = witness_fn() if (exists and witness_fn is not None) else None
    return ExistenceCertificate(exists=exists, residuals=residuals,
                                tolerance=tol, witness=witness)


def _certified(cert, message):
    """``cert`` when its inverse exists; InverseNotExistError otherwise."""
    if not cert.exists:
        raise InverseNotExistError(message, cert)
    return cert


class _Frame:
    """The dual core-EP frame of a square dual matrix Ahat = A + eps B.

    ``blocks`` is the real core-EP frame A = U [[T1, T2], [O, N]] U^T
    (``u`` as in ``core_ep_decompose``).  On it rests the dual core-EP
    decomposition Ahat = Uhat [[T1hat, T2hat], [O, Nhat]] Uhat^T, with
    Uhat = U (I + eps G), G = [[O, -U3^T], [U3, O]] and U3 the solution
    of N U3 + B3 - U3 T1 = O.  The DCEPGI and the DDGI exist exactly
    when Nhat^m = O; each witness, and each part of the public
    decomposition, is ``conjugate`` of a block in T1hat, T2hat and
    Nhat.  Each part is formed once, on first use; the blocks, as
    (standard, infinitesimal) pairs of real arrays.

    ``of`` serves every call on one input from one frame, so the parts
    a call hands out (the witnesses, the decomposition's blocks and U3)
    are read-only: no caller can change what a later call returns.
    """

    def __init__(self, ah, u=None):
        if not ah.is_square:
            raise DimensionError("the dual core-EP decomposition needs a "
                                 f"square dual matrix, got {ah.shape}")
        self.ah = ah
        self.blocks = core_ep_decompose(ah.std, u=u)

    @classmethod
    def of(cls, ah, u=None):
        """The dual frame of ``ah``.

        The last frame built without ``u`` is kept, keyed by the shape
        and bytes of ``ah``'s parts, and serves, with every part it has
        formed, each later call whose input has those bytes; another
        input gets a new frame, which takes its place.  A kept frame
        reads its own read-only copy of those bytes, not the caller's
        arrays, which may change.  A frame in a caller's ``u`` is built
        for its call alone.
        """
        global _last_frame
        if u is not None:
            return cls(ah, u)
        key = (ah.std.shape, ah.std.tobytes(), ah.inf.tobytes())
        last = _last_frame  # read once: another thread may replace it
        if last is not None and last[0] == key:
            return last[1]
        df = cls(ah)
        shape, std, inf = key
        df.ah = DualMatrix._trusted(np.frombuffer(std).reshape(shape),
                                    np.frombuffer(inf).reshape(shape))
        _last_frame = key, df
        return df

    @cached_property
    def s_terms(self):
        """(``s``, ``s_size``): S = (Ahat^m).inf = sum_{i=1..m}
        A^(m-i) B A^(i-1), and the size of its terms, the scale of the
        residuals of S (unlike ||S||, it stays put when they cancel)."""
        return _s_terms(self.ah.std, self.ah.inf, self.blocks.mp)

    s = property(lambda self: self.s_terms[0])
    s_size = property(lambda self: self.s_terms[1])

    @cached_property
    def ahm(self):
        """Ahat^m = A^m + eps S."""
        return DualMatrix(self.blocks.am, self.s)

    @cached_property
    def b_blocks(self):
        """(B1, B2, B3, B4), the blocks of U^T B U."""
        return self.blocks.split_blocks(self.ah.inf)

    @cached_property
    def u3(self):
        """U3, the solution of N U3 + B3 - U3 T1 = O."""
        return self.blocks.sylvester(self.b_blocks[2])

    @cached_property
    def t1_hat(self):
        """T1hat = T1 + eps (T2 U3 + B1)."""
        return self.blocks.T1, self.blocks.T2 @ self.u3 + self.b_blocks[0]

    @cached_property
    def t2_hat(self):
        """T2hat = T2 + eps (B2 + U3^T N - T1 U3^T)."""
        f, u3 = self.blocks, self.u3
        return f.T2, self.b_blocks[1] + u3.T @ f.N - f.T1 @ u3.T

    @cached_property
    def n_hat(self):
        """Nhat = N + eps (B4 - U3 T2)."""
        return self.blocks.N, self.b_blocks[3] - self.u3 @ self.blocks.T2

    @cached_property
    def defect_residual(self):
        """||D||_F over the size of the terms of S, for the defect
        D = (Nhat^m).inf = sum_{i=1..m} N^(m-i) (B4 - U3 T2) N^(i-1):
        the one residual of the DCEPGI, the DDGI and (Ahat^m)^+, each
        of which exists exactly when Nhat^m = O, that is D = O.

        D is (n-t) x (n-t).  It is also the block U2^T S (I - (A^m)#
        A^m) U2 of S, # the core-EP inverse, and so is O exactly when
        S maps N(A^m) into R(A^m).
        """
        f, c = self.blocks, self.n_hat[1]
        d, n_pow = c, f.N  # D_k = N D_(k-1) + C N^(k-1), D_1 = C
        for _ in range(f.mp - 1):
            d, n_pow = f.N @ d + c @ n_pow, n_pow @ f.N
        return _rel(np.linalg.norm(d), self.s_size)

    @cached_property
    def u_hat(self):
        """Uhat = U + eps U G, dual orthogonal (Uhat^T Uhat = I), as a
        pair."""
        f, u3 = self.blocks, self.u3
        u1, u2 = f.U[:, :f.t], f.U[:, f.t:]
        return f.U, np.hstack([u2 @ u3, -(u1 @ u3.T)])

    @cached_property
    def u_hat1(self):
        """Uhat1 = U1 + eps U2 U3, the leading t columns of Uhat: a dual
        orthonormal basis of the dual range of Ahat^m."""
        t = self.blocks.t
        return DualMatrix(self.u_hat[0][:, :t], self.u_hat[1][:, :t])

    def off_range_norm(self, std, inf):
        """hypot(||U2^T M||_F, ||U2^T M' - U3 U1^T M||_F), the size of
        Uhat2^T (M + eps M') for Uhat2 = U2 - eps U1 U3^T the trailing
        n - t columns of Uhat (M, M' = ``std``, ``inf``): O exactly when
        M + eps M' lies in the dual range of Uhat1, that of Ahat^m when
        the DCEPGI exists."""
        u2, v2 = (part[:, self.blocks.t:] for part in self.u_hat)
        return np.hypot(np.linalg.norm(u2.T @ std),
                        np.linalg.norm(u2.T @ inf + v2.T @ std))

    def conjugate(self, block, first=0):
        """Uhat M Uhat^T = U (M + eps (M' + G M - M G)) U^T for the dual
        M + eps M' in frame coordinates that is O but for ``block``, an
        r x k pair whose leading entry sits at (first, first):
        Uhatr block Uhatk^T, for Uhatr and Uhatk the r and k columns of
        Uhat from column ``first`` on."""
        b_std, b_inf = block
        r, k = b_std.shape
        u, v = (part[:, first:first + k] for part in self.u_hat)
        p = b_std @ u.T
        return DualMatrix(u[:, :r] @ p,
                          u[:, :r] @ (b_inf @ u.T + b_std @ v.T)
                          + v[:, :r] @ p)

    @cached_property
    def t1_hat_inv(self):
        """T1hat^-1 = T1^-1 - eps T1^-1 T1hat' T1^-1, as a pair."""
        t1_inv = self.blocks.t1_inv
        return t1_inv, -t1_inv @ self.t1_hat[1] @ t1_inv

    @cached_property
    def drazin_top(self):
        """Y = T1hat^-(m+1) Ttilde_hat = sum_{i<m} T1hat^-(i+2) T2hat
        Nhat^i, as a pair, for Ttilde_hat = sum_j T1hat^j T2hat
        Nhat^(m-1-j) the upper-right block of the middle factor's m-th
        power: the upper-right block of Uhat^T Ahat^D Uhat."""
        ti, acc = self.t1_hat_inv, self.t2_hat
        for _ in range(self.blocks.mp - 1):  # Horner in T1hat^-1, Nhat
            acc = _add(self.t2_hat, _dot(ti, acc, self.n_hat))
        return _dot(ti, ti, acc)

    @cached_property
    def dcepgi(self):
        """The canonical DCEPGI, Uhat [[T1hat^-1, O], [O, O]] Uhat^T:
        U [[T1^-1, O], [O, O]] U^T + eps U [[-T1^-1 (B1 + T2 U3) T1^-1,
        T1^-1 U3^T], [U3 T1^-1, O]] U^T."""
        return _readonly(self.conjugate(self.t1_hat_inv))

    @cached_property
    def ddgi(self):
        """The DDGI, Uhat [[T1hat^-1, Y], [O, O]] Uhat^T with Y =
        ``drazin_top``."""
        return _readonly(self.conjugate(_row(self.t1_hat_inv,
                                             self.drazin_top)))


#: (key, frame) of the last frame ``_Frame.of`` built, or None.
_last_frame = None


def _readonly(x):
    """``x``, a DualMatrix of the frame's, made read-only: the frame
    that hands it out serves later calls too."""
    x.std.flags.writeable = x.inf.flags.writeable = False
    return x


# The frame's block algebra works on (standard, infinitesimal) pairs of
# real arrays: at n <= 6 a DualMatrix per step costs more than its
# products.

def _dot(*factors):
    """The dual product of the pairs ``factors``."""
    std, inf = factors[0]
    for f_std, f_inf in factors[1:]:
        std, inf = std @ f_std, std @ f_inf + inf @ f_std
    return std, inf


def _add(x, y):
    """The dual sum of the pairs ``x`` and ``y``."""
    return x[0] + y[0], x[1] + y[1]


def _row(left, right):
    """The dual block row [left, right] of the pairs ``left``, ``right``."""
    return (np.hstack([left[0], right[0]]), np.hstack([left[1], right[1]]))


# ---------------------------------------------------------------------------
# identity residual helpers (used by certificates and tests)
# ---------------------------------------------------------------------------

def penrose_residuals(ah, xh):
    """Relative residuals of the four dual Penrose equations."""
    scale = max(ah.norm(), xh.norm())
    ax, xa = ah @ xh, xh @ ah
    return {
        "penrose_1": _rel((ah @ xh @ ah - ah).norm(), scale),
        "penrose_2": _rel((xh @ ah @ xh - xh).norm(), scale),
        "penrose_3": _rel((ax.T - ax).norm(), scale),
        "penrose_4": _rel((xa.T - xa).norm(), scale),
    }


def drazin_residuals(ah, xh, m):
    """Relative residuals of the dual {1^m, 2, 5} identities."""
    scale = max(ah.norm(), xh.norm())
    return {
        "drazin_1m": _rel((xh @ dual_power(ah, m + 1) - dual_power(ah, m)).norm(),
                          scale),
        "drazin_2": _rel((xh @ ah @ xh - xh).norm(), scale),
        "drazin_5": _rel((ah @ xh - xh @ ah).norm(), scale),
    }


def core_ep_residuals(ah, xh, m):
    """Relative residuals of the three dual core-EP conditions
    (AX)^T = AX, AX^2 = X, XA^(m+1) = A^m."""
    scale = max(ah.norm(), xh.norm())
    ax = ah @ xh
    return {
        "cep_symmetry": _rel((ax.T - ax).norm(), scale),
        "cep_outer": _rel((ah @ xh @ xh - xh).norm(), scale),
        "cep_power": _rel((xh @ dual_power(ah, m + 1) - dual_power(ah, m)).norm(),
                          scale),
    }


# ---------------------------------------------------------------------------
# MPDGI and DMPGI
# ---------------------------------------------------------------------------

def mpdgi(ah):
    """Always-defined formula A^dagger - eps A^dagger B A^dagger.

    Not in general the dual Moore-Penrose inverse; see ``dmpgi``.
    """
    ap = moore_penrose(ah.std)
    return DualMatrix(ap, -ap @ ah.inf @ ap)


def _penrose_projector(b, rank, svd):
    """||U0^T B V0||_F / ||B||_F, for U0, V0 the null bases past ``rank``
    in the SVD (U, sv, Vt) of A: (I - A A^+) B (I - A^+ A) is
    U0 U0^T B V0 V0^T, here free of the roundoff of A A^+."""
    u, _, vt = svd
    return _rel(np.linalg.norm(u[:, rank:].T @ b @ vt[rank:].T),
                np.linalg.norm(b))


def dmpgi_exists(ah, tol=DEFAULT_TOL):
    """Existence certificate for the dual Moore-Penrose inverse.

    Verdict from the projector condition (I - A A^+) B (I - A^+ A) = O,
    as U0^T B V0 = O, with rank(A) (and A^+) cut at tol * sigma_max(A):
    the inputs may carry roundoff well above eps (e.g. computed powers),
    and a cut that moved with B would move a verdict linear in B.
    """
    r_a, _, svd = _svd_rank(ah.std, rel=tol, uv=True)
    residual = _penrose_projector(ah.inf, r_a, svd)
    return _certify({"penrose_projector": residual}, tol,
                    lambda: _dmpgi_formula(ah, _pinv(r_a, svd)))


def _dmpgi_formula(ah, ap):
    """A^+ + eps (-A^+ B A^+ + (A^T A)^+ B^T (I - A A^+) + (I - A^+ A)
    B^T (A A^T)^+), with (A^T A)^+ = A^+ (A^+)^T and (A A^T)^+ =
    (A^+)^T A^+, for A^+ = ``ap``."""
    a, b = ah.std, ah.inf
    w = b.T @ (ap.T @ ap)
    return DualMatrix(ap, -ap @ b @ ap + ap @ (ap.T @ (b.T - b.T @ (a @ ap)))
                      + w - ap @ (a @ w))


def dmpgi(ah, tol=DEFAULT_TOL):
    """Dual Moore-Penrose inverse (all four dual Penrose equations)."""
    return _dmpgi(ah, tol).witness


def _dmpgi(ah, tol):
    return _certified(dmpgi_exists(ah, tol),
                      "dual Moore-Penrose inverse does not exist")


# ---------------------------------------------------------------------------
# DDGI and dual group inverse
# ---------------------------------------------------------------------------

def ddgi_exists(ah, tol=DEFAULT_TOL):
    """Existence certificate for the dual Drazin inverse.

    The DDGI exists exactly when Nhat^m = O in the dual core-EP
    decomposition, as the DCEPGI does: ``drazin_projector`` is the
    DCEPGI's ``core_ep_projector`` (``_Frame.defect_residual``), ||D||_F
    for D = (Nhat^m).inf.  The condition (I - A A^D) S (I - A A^D) = O
    is U [[O, -T1^-m Ttilde D], [O, D]] U^T, O exactly when D is.
    """
    df = _Frame.of(ah)
    return _certify({"drazin_projector": df.defect_residual}, tol,
                    lambda: df.ddgi)


def ddgi(ah, tol=DEFAULT_TOL):
    """Dual Drazin inverse (dual {1^m, 2, 5} identities)."""
    return _ddgi(ah, tol).witness


def _ddgi(ah, tol):
    return _certified(ddgi_exists(ah, tol), _NO_DDGI)


def dual_group(ah, tol=DEFAULT_TOL):
    """Dual group inverse: the DDGI specialized to index(A) <= 1."""
    return _dual_group(ah, tol).witness


def _dual_group(ah, tol):
    m = _Frame.of(ah).blocks.m
    if m > 1:
        raise DimensionError("dual group inverse needs index(A) <= 1, "
                             f"got {m}")
    return _ddgi(ah, tol)


# ---------------------------------------------------------------------------
# DCEPGI
# ---------------------------------------------------------------------------

def dcepgi_exists(ah, tol=DEFAULT_TOL):
    """Existence certificate for the dual core-EP generalized inverse.

    Verdict from Nhat^m = O in the dual core-EP decomposition: the one
    residual, ``core_ep_projector``, is ``_Frame.defect_residual``,
    ||D||_F for D = (Nhat^m).inf, which is also the block of
    (I - A^m (A^m)#) S (I - (A^m)# A^m) = U [[O, O], [O, D]] U^T,
    # the core-EP inverse.
    """
    df = _Frame.of(ah)
    return _certify({"core_ep_projector": df.defect_residual}, tol,
                    lambda: df.dcepgi)


def dcepgi(ah, tol=DEFAULT_TOL):
    """Dual core-EP generalized inverse via the canonical block formula.

    Standard part is the real core-EP inverse of A; the infinitesimal
    part solves the defining linear system uniquely.
    """
    return _dcepgi(ah, tol).witness


def _dcepgi(ah, tol, message=_NO_DCEPGI):
    """The DCEPGI certificate; InverseNotExistError with ``message`` when
    the DCEPGI does not exist."""
    return _certified(dcepgi_exists(ah, tol), message)


def dcepgi_compact(ah, tol=DEFAULT_TOL):
    """Compact product formula Ahat^D Ahat^m (Ahat^m)^dagger.

    Needs the DDGI and (Ahat^m)^dagger, which exist exactly when the
    DCEPGI does; agrees with ``dcepgi`` then.
    """
    return _dcepgi_compact(ah, tol).witness


def _dcepgi_compact(ah, tol):
    """The DCEPGI certificate with the compact product as its only
    witness, (Ahat^m)^+ at the frame's rank-t (A^m)^+."""
    df = _Frame.of(ah)
    return _certified(_certify(
        {"core_ep_projector": df.defect_residual}, tol,
        lambda: df.ddgi @ df.ahm @ _dmpgi_formula(df.ahm, df.blocks.am_pinv)),
        _NO_DCEPGI)


def _vec(x):
    return x.reshape(-1, order="F")


def dcepgi_bruteforce_oracle(ah, tol=DEFAULT_TOL):
    """Independent DCEPGI oracle: solve the defining linear system for
    the infinitesimal part R by vectorized least squares.

    The three dual conditions reduce to linear equations in R once the
    standard part is pinned to the real core-EP inverse X:

        (A R + B X)^T = A R + B X
        A X R + A R X - R = -B X^2
        R A^(m+1) = S - X A S - X B A^m

    Returns X + eps R when the least-squares backward error
    ||M r - c|| / (||M|| ||r|| + ||c||) of that system M r = c, each
    block of equations over its matrix's norm, is at or below
    tolerance, else None.  Test-scale only (dense n^2 unknowns).
    """
    df = _Frame.of(ah)
    a, b = ah.std, ah.inf
    n = a.shape[0]
    m = df.blocks.mp
    x = core_ep_inverse(a, blocks=df.blocks)
    s = df.s
    am = np.linalg.matrix_power(a, m)
    eye_n = np.eye(n)
    eye_n2 = np.eye(n * n)

    # vec(X)[i + j n] = X[i, j]: this row order maps vec(X) to vec(X^T)
    m1 = np.kron(eye_n, a)
    m1 -= m1[np.arange(n * n).reshape(n, n).T.ravel()]
    rhs1 = _vec((b @ x).T - b @ x)
    m2 = np.kron(eye_n, a @ x) + np.kron(x.T, a) - eye_n2
    rhs2 = _vec(-b @ x @ x)
    m3 = np.kron((a @ am).T, eye_n)
    rhs3 = _vec(s - x @ a @ s - x @ b @ am)

    sizes = [np.linalg.norm(mk) or 1.0 for mk in (m1, m2, m3)]
    big = np.vstack([m1 / sizes[0], m2 / sizes[1], m3 / sizes[2]])
    rhs = np.concatenate([rhs1 / sizes[0], rhs2 / sizes[1], rhs3 / sizes[2]])
    sol, *_ = _lapack("least squares", np.linalg.lstsq, big, rhs, rcond=None)
    residual = _rel(np.linalg.norm(big @ sol - rhs),
                    np.linalg.norm(big) * np.linalg.norm(sol)
                    + np.linalg.norm(rhs))
    if residual > tol:
        return None
    r = sol.reshape((n, n), order="F")
    return DualMatrix(x, r)


def dual_core_inverse(ah, tol=DEFAULT_TOL):
    """Dual core inverse: the DCEPGI at index one.

    Exists iff Ahat is dual-unitarily similar to [[T1hat, T2hat], [O, O]]
    with T1hat dual-invertible, which for index(A) <= 1 is exactly the
    DCEPGI existence condition.
    """
    return _dual_core_inverse(ah, tol).witness


def _dual_core_inverse(ah, tol):
    if _Frame.of(ah).blocks.m > 1:
        raise InverseNotExistError(
            "dual core inverse needs index(A) <= 1; the block form "
            "[[T1, T2], [O, O]] is not attained", None)
    return _dcepgi(ah, tol, "dual core inverse does not exist "
                   "(block form not attained)")
