"""Dual generalized inverses with existence certificates.

Implements the MPDGI formula, the dual Moore-Penrose inverse (DMPGI),
the dual Drazin inverse (DDGI), the dual group and dual core inverses,
and the dual core-EP generalized inverse (DCEPGI) together with its
compact product formula and a brute-force linear-system oracle.

Existence is decided numerically: each certificate lists relative
residuals (scaled by 1 + input norm) and the inverse exists exactly
when every listed residual is at or below the tolerance.

Each public call builds the core-EP frame of A at most once; the private
helpers take that frame, so other modules can share it too.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dual import DualMatrix, dual_power, s_matrix
from .errors import DimensionError, InverseNotExistError
from .realkernel import (DEFAULT_TOL, core_ep_decompose, core_ep_inverse,
                         drazin, index, moore_penrose, numerical_rank)

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

    ``residuals`` maps identity names to relative residual norms;
    ``exists`` is true iff every residual is <= ``tolerance``.  When
    the inverse exists, ``witness`` holds it.
    """

    exists: bool
    residuals: dict
    tolerance: float
    witness: Optional[DualMatrix] = None


_NO_DDGI = "dual Drazin inverse does not exist"
_NO_DCEPGI = "dual core-EP inverse does not exist"


def _rel(value, scale):
    return float(value) / (1.0 + float(scale))


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


def _require_square(ah, op):
    if not ah.is_square:
        raise DimensionError(f"{op} needs a square dual matrix, got {ah.shape}")


def _frame(ah, op):
    """The core-EP frame of the standard part of a square dual matrix."""
    _require_square(ah, op)
    return core_ep_decompose(ah.std)


def _eff_index(a, tol=None):
    """Index clamped to >= 1 so the S-matrix and power formulas are
    well formed (invertible A has index 0 but behaves as m = 1)."""
    return max(index(a, tol), 1)


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
    ap = moore_penrose(a)
    stacked = np.block([[b, a], [a, np.zeros(a.shape)]])
    # rank decisions at the certificate tolerance, not machine eps: the
    # inputs may carry roundoff well above eps (e.g. computed powers)
    cut = tol * max(np.linalg.norm(a, 2), np.linalg.norm(b, 2), 1e-300)
    gap = numerical_rank(stacked, cut) - 2 * numerical_rank(a, cut)
    residuals = {"penrose_projector": _penrose_projector(ah, ap),
                 "rank_gap": float(gap)}
    return _certify(residuals, tol, lambda: _dmpgi_formula(ah, ap))


def _dmpgi_formula(ah, ap):
    a, b = ah.std, ah.inf
    m_rows, n_cols = a.shape
    # (A^T A)^+ = A^+ (A^+)^T and (A A^T)^+ = (A^+)^T A^+
    corr = (-ap @ b @ ap
            + ap @ ap.T @ b.T @ (np.eye(m_rows) - a @ ap)
            + (np.eye(n_cols) - ap @ a) @ b.T @ ap.T @ ap)
    return DualMatrix(ap, corr)


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

    Verdict from (I - A A^D) S (I - A A^D) = O, cross-checked against
    the augmented rank test on [[S, A^m], [A^m, O]] and against the
    existence of the dual MP inverse of Ahat^m.
    """
    return _ddgi_certificates(ah, _frame(ah, "ddgi_exists"), tol)[0]


def _ddgi_certificates(ah, frame, tol):
    """The DDGI certificate, Ahat^m, and the DMPGI certificate of
    Ahat^m behind the ``power_mp`` residual.  The last rests on the
    frame's rank-t (A^m)^+; its witness is (Ahat^m)^+."""
    a, b = ah.std, ah.inf
    n, m = frame.n, frame.mp
    s = s_matrix(a, b, m)
    ad = drazin(a, blocks=frame)
    proj = np.eye(n) - a @ ad
    res = _rel(np.linalg.norm(proj @ s @ proj), np.linalg.norm(s))
    am, ap = frame.am, frame.am_pinv
    stacked = np.block([[s, am], [am, np.zeros((n, n))]])
    # a cutoff at the certificate tolerance, scaled to the roundoff
    # floor of the computed power and S-matrix; rank(A^m) is the frame's t
    cut = tol * max(frame.sigma_max ** m, np.linalg.norm(s, 2), 1e-300)
    gap = numerical_rank(stacked, cut) - 2 * frame.t
    ahm = DualMatrix(am, s)
    power_cert = _certify({"penrose_projector": _penrose_projector(ahm, ap)},
                          tol, lambda: _dmpgi_formula(ahm, ap))
    residuals = {
        "drazin_projector": res,
        "rank_gap": float(gap),
        "power_mp": power_cert.residuals["penrose_projector"],
    }
    cert = _certify(residuals, tol, lambda: _ddgi_formula(ah, m, ad))
    return cert, ahm, power_cert


def _ddgi_formula(ah, m, ad):
    a, b = ah.std, ah.inf
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
    frame = _frame(ah, "dual_group")
    if frame.m > 1:
        raise DimensionError("dual group inverse needs index(A) <= 1, "
                             f"got {frame.m}")
    return _certified(_ddgi_certificates(ah, frame, tol)[0], _NO_DDGI)


# ---------------------------------------------------------------------------
# DCEPGI
# ---------------------------------------------------------------------------

def _block_condition_sides(frame, b):
    """The two sides S3 T1^-m Ttilde and S4 of the block-form existence
    condition, where S3 and S4 are the lower blocks of U^T S U, summed
    from the blocks of B and the frame's power tables.  Both live in
    the (n-t) x (n-t) corner."""
    m = frame.mp
    _, _, b3, b4 = frame.split_blocks(b)
    n_pow, t1_inv_pow = frame.n_powers, frame.t1_inv_powers
    tops = frame.t_tildes
    lhs = np.zeros_like(b4)
    rhs = np.zeros_like(b4)
    for i in range(1, m + 1):
        lhs += n_pow[m - i] @ b3 @ t1_inv_pow[m + 1 - i] @ tops[m]
        rhs += n_pow[m - i] @ (b3 @ tops[i - 1] + b4 @ n_pow[i - 1])
    return lhs, rhs


def dcepgi_exists(ah, tol=DEFAULT_TOL):
    """Existence certificate for the dual core-EP generalized inverse.

    Verdict from (I - A^m (A^m)#) S (I - (A^m)# A^m) = O with # the
    core-EP inverse, cross-checked against the equivalent block
    condition in the core-EP frame.
    """
    return _dcepgi_certificate(ah, _frame(ah, "dcepgi_exists"), tol)


def _dcepgi_certificate(ah, frame, tol):
    """``dcepgi_exists`` in a given frame of the standard part."""
    a, b = ah.std, ah.inf
    n, t, m = frame.n, frame.t, frame.mp
    s = s_matrix(a, b, m)
    # (A^m)# = U [[T1^-m, O], [O, O]] U^T
    am = frame.am
    am_cep = frame.assemble_top(frame.t1_inv_powers[m], np.zeros((t, n - t)))
    left = np.eye(n) - am @ am_cep
    right = np.eye(n) - am_cep @ am
    res = _rel(np.linalg.norm(left @ s @ right), np.linalg.norm(s))
    lhs, rhs = _block_condition_sides(frame, b)
    res_block = _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(b))
    residuals = {"core_ep_projector": res, "block_condition": res_block}
    return _certify(residuals, tol, lambda: _dcepgi_canonical(ah, frame))


def _dcepgi_canonical(ah, frame):
    """Canonical block representation of the DCEPGI:
    U [[T1^-1, O], [O, O]] U^T + eps U [[R11, T1^-1 U3^T], [K, O]] U^T
    with K = U3 T1^-1 and R11 = -T1^-1 B1 T1^-1 - T1^-1 T2 K."""
    t, n = frame.t, frame.n
    t1_inv = frame.t1_inv
    b1, _, b3, _ = frame.split_blocks(ah.inf)
    u3 = frame.sylvester(b3)
    k = u3 @ t1_inv
    r11 = -t1_inv @ b1 @ t1_inv - t1_inv @ frame.T2 @ k
    r = frame.assemble(r11, t1_inv @ u3.T, k, np.zeros((n - t, n - t)))
    return DualMatrix(core_ep_inverse(ah.std, blocks=frame), r)


def _dcepgi_witness(ah, frame, tol, message=_NO_DCEPGI):
    """The DCEPGI from ``_dcepgi_certificate``; InverseNotExistError
    with ``message`` when it does not exist."""
    return _certified(_dcepgi_certificate(ah, frame, tol), message).witness


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

    Needs both the DCEPGI and the DDGI to exist; agrees with ``dcepgi``
    whenever both hypotheses hold.
    """
    return _dcepgi_compact(ah, tol).witness


def _dcepgi_compact(ah, tol):
    """The DCEPGI certificate, with the compact product as its witness."""
    frame = _frame(ah, "dcepgi_compact")
    cep_cert = _certified(_dcepgi_certificate(ah, frame, tol), _NO_DCEPGI)
    d_cert, ahm, power_cert = _ddgi_certificates(ah, frame, tol)
    _certified(d_cert, _NO_DDGI + " (required by the compact formula)")
    return replace(cep_cert,
                   witness=d_cert.witness @ ahm @ power_cert.witness)


def _vec(x):
    return x.reshape(-1, order="F")


def _transpose_permutation(n):
    """Permutation matrix P with P vec(X) = vec(X^T) (column-major vec)."""
    p = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[i * n + j, j * n + i] = 1.0
    return p


def dcepgi_bruteforce_oracle(ah, tol=DEFAULT_TOL):
    """Independent DCEPGI oracle: solve the defining linear system for
    the infinitesimal part R by vectorized least squares.

    The three dual conditions reduce to linear equations in R once the
    standard part is pinned to the real core-EP inverse X:

        (A R + B X)^T = A R + B X
        A X R + A R X - R = -B X^2
        R A^(m+1) = S - X A S - X B A^m

    Returns X + eps R when the least-squares residual is below
    tolerance, else None.  Test-scale only (dense n^2 unknowns).
    """
    _require_square(ah, "dcepgi_bruteforce_oracle")
    a, b = ah.std, ah.inf
    n = a.shape[0]
    m = _eff_index(a)
    x = core_ep_inverse(a)
    s = s_matrix(a, b, m)
    am = np.linalg.matrix_power(a, m)
    eye_n = np.eye(n)
    eye_n2 = np.eye(n * n)
    perm = _transpose_permutation(n)

    m1 = np.kron(eye_n, a) - perm @ np.kron(eye_n, a)
    rhs1 = _vec((b @ x).T - b @ x)
    m2 = np.kron(eye_n, a @ x) + np.kron(x.T, a) - eye_n2
    rhs2 = _vec(-b @ x @ x)
    m3 = np.kron((a @ am).T, eye_n)
    rhs3 = _vec(s - x @ a @ s - x @ b @ am)

    big = np.vstack([m1, m2, m3])
    rhs = np.concatenate([rhs1, rhs2, rhs3])
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    residual = _rel(np.linalg.norm(big @ sol - rhs), ah.norm())
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
    frame = _frame(ah, "dual_core_inverse")
    if frame.m > 1:
        raise InverseNotExistError(
            "dual core inverse needs index(A) <= 1; the block form "
            "[[T1, T2], [O, O]] is not attained", None)
    return _certified(
        _dcepgi_certificate(ah, frame, tol),
        "dual core inverse does not exist (block form not attained)")
