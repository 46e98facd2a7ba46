"""Dual generalized inverses with existence certificates.

Implements the MPDGI formula, the dual Moore-Penrose inverse (DMPGI),
the dual Drazin inverse (DDGI), the dual group and dual core inverses,
and the dual core-EP generalized inverse (DCEPGI) together with its
compact product formula.

Existence is decided numerically: each certificate lists residuals,
identity differences over the size of their terms (``_rel``), and the
inverse exists exactly when every one is at or below the tolerance.
The DCEPGI and DDGI certificates share one residual, the size of the
(n-t) x (n-t) defect D = (Nhat^m).inf of the dual core-EP decomposition
Ahat = Uhat [[T1hat, T2hat], [O, Nhat]] Uhat^T, so neither factors a
2n x 2n matrix.  Both inverses are Uhat [[T1hat^-1, Y], [O, O]] Uhat^T,
Y = O for the DCEPGI and T1hat^-(m+1) Ttilde_hat for the DDGI, formed
from Uhat's leading t columns Uhat1 as Uhat1 (T1hat^-1 Uhat1^T) and
Uhat1 ([T1hat^-1, Y] Uhat^T).

Every public call on one input shares one dual frame (``_Frame.of``):
the last frame is kept, keyed by the input's bytes, until a call on
another input.  The other modules share it through ``_Frame.of``.  A
frame forms, when it is built, the parts that every reader needs, in
one pass: the real frame, then, as read-only arrays, U^T B U, T1^-1,
U3 and C = B4 - U3 T2.  It forms the rest once, on first read: S with
the size of its terms, the defect and first-order residuals, and, as
DualMatrix values, Uhat, T1hat, T2hat, Nhat and the witnesses.
``solve_unique_in_range`` and ``range_null_report`` read dual-range
membership off it as the size of Uhat2^T Mhat (``off_range_norm``),
``rank_test`` reads ||U2^T S||, and none factors a stacked 2n x 2n matrix.

A certificate forms its witness on the first read of ``witness``
(``_certify``), so a caller that reads only the verdict forms no
inverse.  Until that read, a certificate whose inverse exists keeps the
frame alive, also once the kept frame has moved on to another input.
A witness or residual that is not finite raises NumericalError.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .dual import (DualMatrix, _as_dual_matrix, _fro, _s_terms, _trusted,
                   dual_power)
from .errors import (DimensionError, HypothesisError, InverseNotExistError,
                     NumericalError)
from .realkernel import (DEFAULT_TOL, _count, _horner, _range_factor,
                         _svd_rank, _tolerance, core_ep_decompose,
                         moore_penrose)

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
    "dual_core_inverse",
    "penrose_residuals",
    "drazin_residuals",
    "core_ep_residuals",
]


class _Witness:
    """The ``witness`` of ExistenceCertificate: the value given, or the
    one ``_certify``'s function forms on the first read, then kept (and
    the function dropped)."""

    def __get__(self, cert, owner=None):
        if cert is None:
            return self
        state = vars(cert)
        form = state.get("_form_witness")
        if form is not None:
            state["witness"] = form()
            # not del: a concurrent first read may have dropped it already
            state.pop("_form_witness", None)
        return state["witness"]

    def __set__(self, cert, value):
        vars(cert)["witness"] = value


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of an existence test.

    ``residuals`` maps identity names to scale-free residuals (``_rel``);
    ``exists`` is true iff every residual is <= ``tolerance``.  When the
    inverse exists, ``witness`` holds it.  The package's certificates
    form it, read-only, on the first read of ``witness``: a caller that
    reads only the verdict forms no inverse.  Until that read one keeps
    alive what the witness is formed from, the input's dual core-EP
    frame (for the DMPGI, the SVD of A and W = U^T B V, no array of the
    caller's); a "does not exist" certificate keeps neither.  ``repr``
    and ``==`` read the verdict, not the witness, so neither forms it.
    """

    exists: bool
    residuals: dict
    tolerance: float
    witness: Optional[DualMatrix] = field(default=None, repr=False,
                                          compare=False)

    def __getstate__(self):
        witness = self.witness  # formed: a pickle carries no function
        return {**vars(self), "witness": witness}


# after the decorator: as the field's default, the descriptor itself would
# be every certificate's witness
ExistenceCertificate.witness = _Witness()


_NO_DDGI = "dual Drazin inverse does not exist"
_NO_DCEPGI = "dual core-EP inverse does not exist"


def _rel(value, scale):
    """The one residual normalization: value / scale, for ``scale`` the
    size of the identity's terms (``value`` itself when that is 0);
    NumericalError when not finite, as when a norm's squares overflow."""
    res = float(value) / float(scale) if scale else float(value)
    if not math.isfinite(res):
        raise NumericalError(f"a residual is not finite: {value} / {scale}")
    return res


def _certify(residuals, tol, witness_fn=None):
    """The certificate of ``residuals`` at ``tol``, checked; when the
    inverse exists, ``witness_fn()`` forms its witness on the first read."""
    tol = _tolerance(tol)
    exists = all(r <= tol for r in residuals.values())
    cert = ExistenceCertificate(exists, residuals, tol)
    if exists and witness_fn is not None:
        vars(cert)["_form_witness"] = witness_fn
    return cert


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
    when Nhat^m = O.  Each witness, and each part of the public
    decomposition, is Uhat M Uhat^T for a block matrix M in T1hat,
    T2hat and Nhat, formed from Uhat's column blocks ``u_hat1`` and
    ``u_hat2`` with no product by a zero block of M.

    Building the frame forms what every reader needs, the verdict
    first, as read-only arrays: ``w`` = U^T B U, T1^-1, ``u3`` and
    ``c`` = B4 - U3 T2, the infinitesimal part of Nhat.  Every other
    part, S and the defect residual too, is formed once, on first read,
    by the ring operations of DualMatrix.

    ``of`` serves every call on one input from one frame, so the parts
    a call hands out (the witnesses, the decomposition's blocks and U3)
    are read-only: no caller can change what a later call returns.
    """

    def __init__(self, ah, u=None):
        if not ah.is_square:
            raise DimensionError("the dual core-EP decomposition needs a "
                                 f"square dual matrix, got {ah.shape}")
        self.ah = ah
        self.blocks = f = core_ep_decompose(ah.std, u=u)
        # w = U^T B U = [[B1, B2], [B3, B4]]; U3 = sum_{i<mp} N^i B3
        # T1^-(i+1), the unique solution of N U3 + B3 - U3 T1 = O (T1
        # invertible, N nilpotent)
        t, t1_inv = f.t, f.t1_inv
        self.w = w = f.U.T.dot(ah.inf).dot(f.U)
        self.u3 = u3 = _horner(w[t:, :t], f.N, t1_inv, f.mp).dot(t1_inv)
        self.c = c = w[t:, t:] - u3.dot(f.T2)
        for part in (t1_inv, w, u3, c):
            part.setflags(write=False)

    @classmethod
    def of(cls, ah, u=None):
        """The dual frame of ``ah``, by the operand rule (a real A: A + eps O).

        The last frame built without ``u`` is kept, keyed by the shape
        and bytes of ``ah``'s parts, and serves, with every part it has
        formed, each later call whose input has those bytes; another
        input gets a new frame, which takes its place.  A kept frame
        reads its own read-only copy of those bytes, not the caller's
        arrays, which may change.  A frame in a caller's ``u`` is built
        for its call alone.
        """
        global _last_frame
        ah = _as_dual_matrix(ah)
        if u is not None:
            return cls(ah, u)
        key = (ah.std.shape, ah.std.tobytes(), ah.inf.tobytes())
        last = _last_frame  # read once: another thread may replace it
        if last is not None and last[0] == key:
            return last[1]
        df = cls(ah)
        shape, std, inf = key
        df.ah = _trusted(DualMatrix, np.frombuffer(std).reshape(shape),
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
        """Ahat^m = A^m + eps S, a ring result as ``dual_power``'s, for
        the compact DCEPGI and ``range_null_report`` (not the solver)."""
        return _trusted(DualMatrix, np.linalg.matrix_power(
            self.ah.std, self.blocks.mp), self.s)

    @cached_property
    def t1_hat(self):
        """T1hat = T1 + eps (T2 U3 + B1)."""
        f = self.blocks
        return _readonly(f.T1, f.T2.dot(self.u3) + self.w[:f.t, :f.t])

    @cached_property
    def t2_hat(self):
        """T2hat = T2 + eps (B2 + U3^T N - T1 U3^T)."""
        f, u3 = self.blocks, self.u3
        return _readonly(f.T2,
                         self.w[:f.t, f.t:] + u3.T.dot(f.N) - f.T1.dot(u3.T))

    @cached_property
    def n_hat(self):
        """Nhat = N + eps C, C = B4 - U3 T2."""
        return _readonly(self.blocks.N, self.c)

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
        f, c = self.blocks, self.c
        d, n_pow = c, None  # D_k = N D_(k-1) + C N^(k-1), D_1 = C
        for _ in range(f.mp - 1):
            n_pow = f.N if n_pow is None else n_pow.dot(f.N)
            d = f.N.dot(d) + c.dot(n_pow)
        return _rel(_fro(d), self.s_terms[1])

    @cached_property
    def u_hat(self):
        """Uhat = U + eps U G, dual orthogonal (Uhat^T Uhat = I)."""
        f, u3 = self.blocks, self.u3
        u1, u2 = f.U[:, :f.t], f.U[:, f.t:]
        return _readonly(f.U, np.concatenate([u2.dot(u3), -u1.dot(u3.T)],
                                             axis=1))

    @cached_property
    def u_hat1(self):
        """Uhat1 = U1 + eps U2 U3, the leading t columns of Uhat: a dual
        orthonormal basis of the dual range of Ahat^m."""
        u, t = self.u_hat, self.blocks.t
        return _trusted(DualMatrix, u.std[:, :t], u.inf[:, :t])

    @cached_property
    def u_hat2(self):
        """Uhat2 = U2 - eps U1 U3^T, the trailing n - t columns of Uhat."""
        u, t = self.u_hat, self.blocks.t
        return _trusted(DualMatrix, u.std[:, t:], u.inf[:, t:])

    def off_range_norm(self, x):
        """hypot(||U2^T M||_F, ||U2^T M' - U3 U1^T M||_F), the size of
        Uhat2^T x for x = M + eps M' (a dual matrix or vector): O exactly
        when x lies in the dual range of Uhat1, that of Ahat^m when the
        DCEPGI exists."""
        y = self.u_hat2.T @ x
        return np.hypot(_fro(y.std), _fro(y.inf))

    @cached_property
    def t1_hat_inv(self):
        """T1hat^-1 = T1^-1 - eps T1^-1 T1hat' T1^-1."""
        t1_inv = self.blocks.t1_inv
        return _trusted(DualMatrix, t1_inv,
                        -t1_inv.dot(self.t1_hat.inf).dot(t1_inv))

    @cached_property
    def first_order_residual(self):
        """||X' + A^cep B A^cep||_F over ||T1^-1||_F^2 ||B||_F, X' the
        DCEPGI's infinitesimal part: the residual of the first-order form
        Ahat^cep = A^cep - eps A^cep B A^cep, which is U [[-T1^-1 T2 U3
        T1^-1, T1^-1 U3^T], [U3 T1^-1, O]] U^T, O exactly when U3 is."""
        t1_inv, u3 = self.blocks.t1_inv, self.u3
        v = u3.dot(t1_inv)
        diff = math.hypot(_fro(t1_inv.dot(self.blocks.T2.dot(v))),
                          _fro(t1_inv.dot(u3.T)), _fro(v))
        return _rel(diff, _fro(t1_inv) ** 2 * _fro(self.ah.inf))

    @cached_property
    def drazin_top(self):
        """Y = T1hat^-(m+1) Ttilde_hat = sum_{i<m} T1hat^-(i+2) T2hat
        Nhat^i, for Ttilde_hat = sum_j T1hat^j T2hat Nhat^(m-1-j) the
        upper-right block of the middle factor's m-th power: the
        upper-right block of Uhat^T Ahat^D Uhat."""
        ti = self.t1_hat_inv
        return ti @ ti @ _horner(self.t2_hat, ti, self.n_hat, self.blocks.mp)

    @cached_property
    def power_top(self):
        """(T1hat^m, Ttilde_hat), the blocks of the top block row of
        Uhat^T Ahat^m Uhat, by R_(k+1) = R_k [[T1hat, T2hat], [O, Nhat]]:
        the row's standard part has the norm of A^m."""
        p, q = self.t1_hat, self.t2_hat
        for _ in range(self.blocks.mp - 1):
            p, q = p @ self.t1_hat, p @ self.t2_hat + q @ self.n_hat
        return p, q

    @cached_property
    def dcepgi(self):
        """The canonical DCEPGI, Uhat [[T1hat^-1, O], [O, O]] Uhat^T:
        U [[T1^-1, O], [O, O]] U^T + eps U [[-T1^-1 (B1 + T2 U3) T1^-1,
        T1^-1 U3^T], [U3 T1^-1, O]] U^T."""
        dcepgi = self.u_hat1 @ (self.t1_hat_inv @ self.u_hat1.T)
        return _finite(_readonly(dcepgi.std, dcepgi.inf))

    @cached_property
    def ddgi(self):
        """The DDGI, Uhat [[T1hat^-1, Y], [O, O]] Uhat^T with Y =
        ``drazin_top``."""
        top = _row(self.t1_hat_inv, self.drazin_top)
        ddgi = self.u_hat1 @ (top @ self.u_hat.T)
        return _finite(_readonly(ddgi.std, ddgi.inf))


#: (key, frame) of the last frame ``_Frame.of`` built, or None.
_last_frame = None


def _readonly(std, inf):
    """The DualMatrix std + eps inf of the frame's, made read-only: the
    frame that hands it out serves later calls too."""
    std.setflags(write=False)
    inf.setflags(write=False)
    return _trusted(DualMatrix, std, inf)


def _finite(xh):
    """The witness ``xh``; NumericalError when an entry is not finite, as
    where a rank cut that underflowed to 0 keeps a singular value (or a
    T1) whose inverse overflows."""
    if not (np.isfinite(xh.std).all() and np.isfinite(xh.inf).all()):
        raise NumericalError(f"the {xh.shape[0]}x{xh.shape[1]} inverse has "
                             "entries that are not finite")
    return xh


def _row(left, right):
    """The dual block row [left, right] of two dual matrices."""
    return _trusted(DualMatrix, np.concatenate([left.std, right.std], axis=1),
                    np.concatenate([left.inf, right.inf], axis=1))


# ---------------------------------------------------------------------------
# identity residuals of a given inverse (no certificate reads them)
# ---------------------------------------------------------------------------

def penrose_residuals(ah, xh):
    """Relative residuals of the four dual Penrose equations."""
    ah, xh = _as_dual_matrix(ah), _as_dual_matrix(xh)
    scale = max(ah.norm(), xh.norm())
    ax, xa = ah @ xh, xh @ ah
    return {
        "penrose_1": _rel((ah @ xh @ ah - ah).norm(), scale),
        "penrose_2": _rel((xh @ ah @ xh - xh).norm(), scale),
        "penrose_3": _rel((ax.T - ax).norm(), scale),
        "penrose_4": _rel((xa.T - xa).norm(), scale),
    }


def _power_identity(ah, xh, m):
    """||X Ahat^(m+1) - Ahat^m||, with Ahat^(m+1) as Ahat^m Ahat."""
    ahm = dual_power(ah, _count(m, "'m'"))
    return (xh @ (ahm @ ah) - ahm).norm()


def drazin_residuals(ah, xh, m):
    """Relative residuals of the dual {1^m, 2, 5} identities."""
    ah, xh = _as_dual_matrix(ah), _as_dual_matrix(xh)
    scale = max(ah.norm(), xh.norm())
    return {
        "drazin_1m": _rel(_power_identity(ah, xh, m), scale),
        "drazin_2": _rel((xh @ ah @ xh - xh).norm(), scale),
        "drazin_5": _rel((ah @ xh - xh @ ah).norm(), scale),
    }


def core_ep_residuals(ah, xh, m):
    """Relative residuals of the three dual core-EP conditions
    (AX)^T = AX, AX^2 = X, XA^(m+1) = A^m."""
    ah, xh = _as_dual_matrix(ah), _as_dual_matrix(xh)
    scale = max(ah.norm(), xh.norm())
    ax = ah @ xh
    return {
        "cep_symmetry": _rel((ax.T - ax).norm(), scale),
        "cep_outer": _rel((ah @ xh @ xh - xh).norm(), scale),
        "cep_power": _rel(_power_identity(ah, xh, m), scale),
    }


# ---------------------------------------------------------------------------
# MPDGI and DMPGI
# ---------------------------------------------------------------------------

def mpdgi(ah):
    """Always-defined formula A^dagger - eps A^dagger B A^dagger.

    The DMPGI's block form (``_dmpgi_blocks``) with its two off-diagonal
    blocks dropped, so not in general the DMPGI; see ``dmpgi``.
    """
    ah = _as_dual_matrix(ah)
    ap = moore_penrose(ah.std)
    return _finite(_trusted(DualMatrix, ap, -ap.dot(ah.inf).dot(ap)))


def dmpgi_exists(ah, tol=DEFAULT_TOL, m=1):
    """Existence certificate for the dual Moore-Penrose inverse of Ahat^m.

    Verdict ||W22|| / ||B|| for A + eps B = Ahat^m, W = U^T B V in the
    SVD of A at rank(A) from the one rank rule: (I - A A^+) B (I - A^+ A)
    free of the roundoff of A A^+.  The witness is read off the same W
    (``_dmpgi_blocks``).  ``tol`` compares the residual only: a cut that
    moved with B would move a verdict linear in B.  A power is formed
    here, so its cut takes its roundoff's floor (README).
    """
    ah, m = _as_dual_matrix(ah), _count(m, "'m'", 1)
    try:  # a float power that overflows raises, a product gives inf
        floor = 0.0 if m == 1 else ah.shape[0] * _svd_rank(ah.std)[1] ** m
    except OverflowError:
        floor = math.inf
    if floor == math.inf:
        raise NumericalError(f"the rank floor n sigma_max(A)^{m} overflows")
    ah = ah if m == 1 else dual_power(ah, m)
    r_a, _, (u, sv, vt) = _svd_rank(ah.std, floor=floor, uv=True)
    w = u.T.dot(ah.inf).dot(vt.T)
    residual = _rel(_fro(w[r_a:, r_a:]), _fro(ah.inf))
    return _certify({"penrose_projector": residual}, tol,
                    lambda: _dmpgi_blocks(u, np.diag(1 / sv[:r_a]), vt.T, w))


def _dmpgi_blocks(p, k_inv, q, w):
    """The DMPGI of A + eps B, read-only, for A = P [[K, O], [O, O]] Q^T
    (P, Q orthogonal, K r x r, ``k_inv`` = K^-1) and ``w`` = P^T B Q =
    [[W11, W12], [W21, W22]]: Q [[K^-1 - eps K^-1 W11 K^-1, eps K^-1
    K^-T W21^T], [eps W12^T K^-T K^-1, O]] P^T (Pennestri, Valentini and
    de Falco 2018; Wang 2021).  It is the closed form A^+ + eps (-A^+ B
    A^+ + (A^T A)^+ B^T (I - A A^+) + (I - A^+ A) B^T (A A^T)^+) on these
    blocks, with A^+ = Q [[K^-1, O], [O, O]] P^T, (A^T A)^+ = Q [[K^-1
    K^-T, O], [O, O]] Q^T, I - A A^+ = P [[O, O], [O, I]] P^T, and so on:
    no Gram product A^+ (A^+)^T meets the roundoff of I - A A^+, which
    squared cond(A), and W22 enters nowhere."""
    r = k_inv.shape[0]
    q1, p1 = q[:, :r], p[:, :r]
    top = np.concatenate([-k_inv.dot(w[:r, :r]).dot(k_inv),
                          k_inv.dot(k_inv.T).dot(w[r:, :r].T)], axis=1)
    left = q[:, r:].dot(w[:r, r:].T).dot(k_inv.T).dot(k_inv)
    return _finite(_readonly(q1.dot(k_inv).dot(p1.T),
                             q1.dot(top).dot(p.T) + left.dot(p1.T)))


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


def _needs_index_one(ah, message):
    """InverseNotExistError, with no certificate, unless index(A) <= 1:
    the group and core inverses are the DDGI and DCEPGI at index one."""
    m = _Frame.of(ah).blocks.m
    if m > 1:
        raise InverseNotExistError(message.format(m=m), None)


def _dual_group(ah, tol):
    _needs_index_one(ah, "dual group inverse needs index(A) <= 1, got {m}")
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
    return _cep_certificate(_Frame.of(ah), tol)


def _cep_certificate(df, tol, witness_fn=None):
    """The DCEPGI certificate of ``df``; witness ``df.dcepgi`` by default."""
    return _certify({"core_ep_projector": df.defect_residual}, tol,
                    witness_fn or (lambda: df.dcepgi))


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


def _first_order_dcepgi(ah, tol):
    """The DCEPGI of ``ah``; HypothesisError unless its first-order form
    holds (``_Frame.first_order_residual``)."""
    x, res = _dcepgi(ah, tol).witness, _Frame.of(ah).first_order_residual
    if not res <= tol:
        raise HypothesisError(
            f"first-order form does not hold (residual {res:.3e})")
    return x


def dcepgi_compact(ah, tol=DEFAULT_TOL):
    """Compact product formula Ahat^D Ahat^m (Ahat^m)^dagger.

    Needs the DDGI and (Ahat^m)^dagger, which exist exactly when the
    DCEPGI does; agrees with ``dcepgi`` then, in exact arithmetic.  Its
    accuracy falls with cond(T1)^m: NumericalError where its gap to the
    (unique) ``dcepgi`` is above ``tol`` (README, "Numerical conventions").
    """
    return _dcepgi_compact(ah, tol).witness


def _dcepgi_compact(ah, tol):
    """The DCEPGI certificate with the compact product as its only
    witness, (Ahat^m)^+ at the frame's U and rank t (``_range_factor``),
    checked against the frame's canonical DCEPGI."""
    df, tol = _Frame.of(ah), _tolerance(tol)

    def product():
        u, ahm = df.blocks.U, df.ahm
        q, k_inv = _range_factor(ahm.std, u[:, :df.blocks.t])
        x = df.ddgi @ ahm @ _dmpgi_blocks(u, k_inv, q, u.T.dot(ahm.inf).dot(q))
        x = _finite(_readonly(x.std, x.inf))
        gap = _rel((x - df.dcepgi).norm(), df.dcepgi.norm())
        if gap > tol:
            raise NumericalError(f"the compact product misses the DCEPGI "
                                 f"by {gap:.3e}")
        return x
    return _certified(_cep_certificate(df, tol, product), _NO_DCEPGI)


def dual_core_inverse(ah, tol=DEFAULT_TOL):
    """Dual core inverse: the DCEPGI at index one.

    Exists iff Ahat is dual-unitarily similar to [[T1hat, T2hat], [O, O]]
    with T1hat dual-invertible, which for index(A) <= 1 is exactly the
    DCEPGI existence condition.
    """
    return _dual_core_inverse(ah, tol).witness


def _dual_core_inverse(ah, tol):
    _needs_index_one(ah, "dual core inverse needs index(A) <= 1; the block "
                     "form [[T1, T2], [O, O]] is not attained")
    return _dcepgi(ah, tol, "dual core inverse does not exist "
                   "(block form not attained)")
