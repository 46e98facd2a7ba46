"""Dual generalized inverses with existence certificates.

Implements the MPDGI formula, the dual Moore-Penrose inverse (DMPGI),
the dual Drazin inverse (DDGI), the dual group and dual core inverses,
and the dual core-EP generalized inverse (DCEPGI) together with its
compact product formula and a brute-force linear-system oracle.

Existence is decided numerically: each certificate lists residuals,
identity differences over the size of their terms (``_rel``), and the
inverse exists exactly when every one is at or below the tolerance.
The DCEPGI and DDGI certificates share one residual, the size of one
(n-t) x (n-t) defect block of S = (Ahat^m).inf in the core-EP frame,
so neither factors a 2n x 2n matrix.

Each public call builds one dual frame (``_Frame``), which forms S,
Ahat^m, U^T B U, U3 and D at most once; the private helpers take that
frame, so other modules share it too.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .dual import DualMatrix, _s_terms, dual_power
from .errors import DimensionError, InverseNotExistError
from .realkernel import (DEFAULT_TOL, _pinv, _svd_rank, core_ep_decompose,
                         core_ep_inverse, drazin, moore_penrose)

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

    ``residuals`` maps identity names to scale-free residuals (``_rel``)
    or the DMPGI's rank gap; ``exists`` is true iff every residual is <=
    ``tolerance``.  When the inverse exists, ``witness`` holds it.
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
    """The dual core-EP frame of a square dual matrix Ahat = A + eps B:
    ``blocks``, the real core-EP frame of A (``u`` as in
    ``core_ep_decompose``), and what the certificates, inverses,
    decomposition and solvers share, each formed once, on first use."""

    def __init__(self, ah, op, u=None):
        if not ah.is_square:
            raise DimensionError(f"{op} needs a square dual matrix, "
                                 f"got {ah.shape}")
        self.ah = ah
        self.blocks = core_ep_decompose(ah.std, u=u)

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
    def defect_residual(self):
        """||D||_F over the size of the terms of S, for the defect block
        D = W4 - W3 K of S: the one residual of the DCEPGI, the DDGI and
        (Ahat^m)^+, each of which exists exactly when D = O.

        W3 and W4 are the lower blocks of W = U^T S U, and K = T1^-m
        Ttilde.  In the frame (I - A^m (A^m)#) S (I - (A^m)# A^m) =
        U [[O, O], [O, D]] U^T, with # the core-EP inverse.  D is
        (n-t) x (n-t).
        """
        f = self.blocks
        t, m = f.t, f.mp
        k = f.t1_inv_powers[m] @ f.t_tildes[m]
        lower = f.U[:, t:].T @ self.s @ f.U  # [W3, W4]
        return _rel(np.linalg.norm(lower[:, t:] - lower[:, :t] @ k),
                    self.s_size)


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


def _penrose_projector(ah, ap):
    """Relative size of (I - A A^+) B (I - A^+ A), for A^+ = ``ap``."""
    a, b = ah.std, ah.inf
    left = np.eye(a.shape[0]) - a @ ap
    right = np.eye(a.shape[1]) - ap @ a
    return _rel(np.linalg.norm(left @ b @ right), np.linalg.norm(b))


def dmpgi_exists(ah, tol=DEFAULT_TOL):
    """Existence certificate for the dual Moore-Penrose inverse.

    Verdict from the projector condition (I - A A^+) B (I - A^+ A) = O;
    the augmented-rank test rank([[B, A], [A, O]]) = 2 rank(A) is
    reported alongside as ``rank_gap`` (0 when the two agree).
    """
    a, b = ah.std, ah.inf
    stacked = np.block([[b, a], [a, np.zeros(a.shape)]])
    # both ranks and A^+ at one cut, tol * sigma_max(stacked): the inputs
    # may carry roundoff well above eps (e.g. computed powers)
    r_stacked, sigma, _ = _svd_rank(stacked, rel=tol)
    r_a, _, svd = _svd_rank(a, rel=tol, floor=sigma, uv=True)
    ap = _pinv(r_a, svd)
    residuals = {"penrose_projector": _penrose_projector(ah, ap),
                 "rank_gap": float(r_stacked - 2 * r_a)}
    return _certify(residuals, tol, lambda: _dmpgi_formula(ah, ap))


def _dmpgi_formula(ah, ap):
    return _dmpgi_apply(ah, ap, DualMatrix.eye(ah.shape[0]))


def _dmpgi_apply(ah, ap, xh):
    """``_dmpgi_formula(ah, ap) @ xh``, of the type of the dual vector or
    matrix ``xh``: the three correction terms, with (A^T A)^+ =
    A^+ (A^+)^T and (A A^T)^+ = (A^+)^T A^+, applied right to left, so a
    vector costs matrix-vector products only."""
    a, b = ah.std, ah.inf
    x, x1 = xh.std, xh.inf
    y = ap @ x
    w = b.T @ (ap.T @ y)
    corr = (-ap @ (b @ y) + ap @ (ap.T @ (b.T @ (x - a @ y)))
            + w - ap @ (a @ w))
    return type(xh)(y, ap @ x1 + corr)


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

    Verdict from (I - A A^D) S (I - A A^D) = U [[O, -K D], [O, D]] U^T,
    which is O exactly when the defect block D of S is: the DDGI exists
    exactly when the DCEPGI does, and ``drazin_projector`` is the
    DCEPGI's ``core_ep_projector`` (``_Frame.defect_residual``): ||D||_F,
    not that identity's norm, which is up to 1 + ||K|| times larger.
    """
    return _ddgi_certificate(_Frame(ah, "ddgi_exists"), tol)


def _ddgi_certificate(df, tol):
    """``ddgi_exists`` in the dual frame ``df``."""
    return _certify({"drazin_projector": df.defect_residual}, tol,
                    lambda: _ddgi_witness(df))


def _ddgi_witness(df):
    """The DDGI formula in the dual frame ``df``, whose defect is O."""
    a, b, m = df.ah.std, df.ah.inf, df.blocks.mp
    ad = drazin(a, blocks=df.blocks)
    n = a.shape[0]
    proj = np.eye(n) - a @ ad
    corr = -ad @ b @ ad
    a_pow = np.eye(n)
    ad_pow2 = ad @ ad
    for i in range(m):
        corr += ad_pow2 @ b @ a_pow @ proj
        corr += proj @ a_pow @ b @ ad_pow2
        a_pow = a_pow @ a
        ad_pow2 = ad_pow2 @ ad
    return DualMatrix(ad, corr)


def ddgi(ah, tol=DEFAULT_TOL):
    """Dual Drazin inverse (dual {1^m, 2, 5} identities)."""
    return _ddgi(ah, tol).witness


def _ddgi(ah, tol):
    return _certified(ddgi_exists(ah, tol), _NO_DDGI)


def dual_group(ah, tol=DEFAULT_TOL):
    """Dual group inverse: the DDGI specialized to index(A) <= 1."""
    return _dual_group(ah, tol).witness


def _dual_group(ah, tol):
    df = _Frame(ah, "dual_group")
    if df.blocks.m > 1:
        raise DimensionError("dual group inverse needs index(A) <= 1, "
                             f"got {df.blocks.m}")
    return _certified(_ddgi_certificate(df, tol), _NO_DDGI)


# ---------------------------------------------------------------------------
# DCEPGI
# ---------------------------------------------------------------------------

def dcepgi_exists(ah, tol=DEFAULT_TOL):
    """Existence certificate for the dual core-EP generalized inverse.

    Verdict from (I - A^m (A^m)#) S (I - (A^m)# A^m) = U [[O, O], [O, D]]
    U^T, # the core-EP inverse and D the defect block of S: the one
    residual, ``core_ep_projector``, is ``_Frame.defect_residual``.
    """
    return _dcepgi_certificate(_Frame(ah, "dcepgi_exists"), tol)


def _dcepgi_canonical(df):
    """Canonical block representation of the DCEPGI:
    U [[T1^-1, O], [O, O]] U^T + eps U [[R11, T1^-1 U3^T], [K, O]] U^T
    with K = U3 T1^-1 and R11 = -T1^-1 B1 T1^-1 - T1^-1 T2 K."""
    frame = df.blocks
    t, n = frame.t, frame.n
    t1_inv = frame.t1_inv
    b1, u3 = df.b_blocks[0], df.u3
    k = u3 @ t1_inv
    r11 = -t1_inv @ b1 @ t1_inv - t1_inv @ frame.T2 @ k
    r = frame.assemble(r11, t1_inv @ u3.T, k, np.zeros((n - t, n - t)))
    return DualMatrix(core_ep_inverse(df.ah.std, blocks=frame), r)


def _dcepgi_certificate(df, tol, witness=_dcepgi_canonical):
    """``dcepgi_exists`` in the dual frame ``df``, witness ``witness(df)``."""
    return _certify({"core_ep_projector": df.defect_residual}, tol,
                    lambda: witness(df))


def _dcepgi_witness(df, tol, message=_NO_DCEPGI):
    """The DCEPGI from ``_dcepgi_certificate``; InverseNotExistError
    with ``message`` when it does not exist."""
    return _certified(_dcepgi_certificate(df, tol), message).witness


def dcepgi(ah, tol=DEFAULT_TOL):
    """Dual core-EP generalized inverse via the canonical block formula.

    Standard part is the real core-EP inverse of A; the infinitesimal
    part solves the defining linear system uniquely.
    """
    return _dcepgi(ah, tol).witness


def _dcepgi(ah, tol):
    return _certified(dcepgi_exists(ah, tol), _NO_DCEPGI)


def dcepgi_compact(ah, tol=DEFAULT_TOL):
    """Compact product formula Ahat^D Ahat^m (Ahat^m)^dagger.

    Needs the DDGI and (Ahat^m)^dagger, which exist exactly when the
    DCEPGI does; agrees with ``dcepgi`` then.
    """
    return _dcepgi_compact(ah, tol).witness


def _dcepgi_compact(ah, tol):
    """The DCEPGI certificate, with the compact product as its witness,
    (Ahat^m)^+ at the frame's rank-t (A^m)^+."""
    return _certified(_dcepgi_certificate(
        _Frame(ah, "dcepgi_compact"), tol, lambda df: _ddgi_witness(df)
        @ df.ahm @ _dmpgi_formula(df.ahm, df.blocks.am_pinv)), _NO_DCEPGI)


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
    df = _Frame(ah, "dcepgi_bruteforce_oracle")
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
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
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
    df = _Frame(ah, "dual_core_inverse")
    if df.blocks.m > 1:
        raise InverseNotExistError(
            "dual core inverse needs index(A) <= 1; the block form "
            "[[T1, T2], [O, O]] is not attained", None)
    return _certified(
        _dcepgi_certificate(df, tol),
        "dual core inverse does not exist (block form not attained)")
