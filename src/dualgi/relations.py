"""Relationships between the DCEPGI and the other dual inverses.

Equivalence predicates for the first-order form
Ahat^cep = A^cep - eps A^cep B A^cep, the rank-augmentation test,
dual range/null-space characterizations, and reverse/forward order
laws for products.
"""

from dataclasses import dataclass

import numpy as np

from .dual import DualMatrix, s_matrix
from .errors import DimensionError, HypothesisError
from .inverses import _dcepgi_witness, _frame, _rel
from .realkernel import DEFAULT_TOL, core_ep_decompose, numerical_rank

__all__ = [
    "EquivalenceReport",
    "RangeNullReport",
    "OrderLawReport",
    "first_order_form_report",
    "rank_test",
    "range_null_report",
    "order_law_check",
]


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdicts for the five first-order-form conditions.

    ``conditions`` maps condition names to (holds, residual).  The
    first three conditions are mutually equivalent whenever the DCEPGI
    exists; the last two (``two_sided_projector`` and
    ``range_null_inclusions``) are equivalent to each other but
    strictly stronger: they additionally force the right-sided
    projector identity S A^m (A^m)^+ = S, which the first three do
    not imply.  ``all_equivalent_observed`` records whether all five
    verdicts agreed on this input.
    """

    conditions: dict
    all_equivalent_observed: bool


def first_order_form_report(ah, tol=DEFAULT_TOL):
    """Evaluate the five conditions linked to the first-order form
    Ahat^cep = A^cep - eps A^cep B A^cep (see EquivalenceReport for
    which of them are mutually equivalent)."""
    frame = _frame(ah, "first_order_form_report")
    return _first_order_form_report(ah, frame, _dcepgi_witness(ah, frame, tol),
                                    tol)


def _first_order_form_report(ah, frame, x, tol):
    """``first_order_form_report`` for the DCEPGI ``x`` of ``ah`` in a
    given frame of the standard part."""
    a, b = ah.std, ah.inf
    n = frame.n
    s = s_matrix(a, b, frame.mp)
    a_cep = x.std  # the real core-EP inverse of A
    s_scale = np.linalg.norm(s)

    first_order = DualMatrix(a_cep, -a_cep @ b @ a_cep)
    p_am = frame.am @ frame.am_pinv
    conds = {
        "first_order_form": _rel((x - first_order).norm(), x.norm()),
        "power_projector": _rel(np.linalg.norm((np.eye(n) - p_am) @ s), s_scale),
        "cep_projector": _rel(np.linalg.norm((np.eye(n) - a @ a_cep) @ s),
                              s_scale),
        "two_sided_projector": _rel(
            max(np.linalg.norm(a @ a_cep @ s - s),
                np.linalg.norm(s @ a @ a_cep - s)), s_scale),
        "range_null_inclusions": _rel(
            max(np.linalg.norm((np.eye(n) - p_am) @ s),
                np.linalg.norm(s @ (np.eye(n) - p_am))), s_scale),
    }
    conditions = {name: (res <= tol, res) for name, res in conds.items()}
    verdicts = {holds for holds, _ in conditions.values()}
    return EquivalenceReport(conditions=conditions,
                             all_equivalent_observed=len(verdicts) == 1)


def _first_order_dcepgi(ah, frame, tol):
    """The DCEPGI X of ``ah`` and Ahat^m, once the first-order form
    Ahat^cep = A^cep - eps A^cep B A^cep is checked (HypothesisError
    otherwise)."""
    x = _dcepgi_witness(ah, frame, tol)
    report = _first_order_form_report(ah, frame, x, tol)
    holds, res = report.conditions["first_order_form"]
    if not holds:
        raise HypothesisError(
            f"first-order form does not hold (residual {res:.3e})")
    return x, DualMatrix(frame.am, s_matrix(ah.std, ah.inf, frame.mp))


def rank_test(ah, tol=DEFAULT_TOL):
    """rank([A^m  S]) == rank(A^m); equivalent to the first-order form."""
    frame = _frame(ah, "rank_test")
    _dcepgi_witness(ah, frame, tol, "rank test needs the DCEPGI to exist")
    m = frame.mp
    s = s_matrix(ah.std, ah.inf, m)
    cut = tol * max(frame.sigma_max ** m, np.linalg.norm(s, 2), 1e-300)
    return numerical_rank(np.hstack([frame.am, s]), cut) == frame.t


# ---------------------------------------------------------------------------
# dual range / null spaces
# ---------------------------------------------------------------------------

def _stacked(mh):
    """Real 2n x 2n matrix whose column space / null space encode the
    dual range / null space of mh (coordinates [std; inf])."""
    m, m0 = mh.std, mh.inf
    return np.block([[m, np.zeros_like(m)], [m0, m]])


def _column_membership_residual(gen, space):
    """Max relative least-squares residual of the columns of ``gen``
    against the column space of ``space``."""
    sol, *_ = np.linalg.lstsq(space, gen, rcond=None)
    resid = space @ sol - gen
    col_norms = np.linalg.norm(gen, axis=0)
    res = np.linalg.norm(resid, axis=0) / (1.0 + col_norms)
    return float(res.max()) if res.size else 0.0


def _null_basis(mat, tol=1e-10):
    _, sv, vt = np.linalg.svd(mat)
    cutoff = max(mat.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > max(cutoff, tol * (sv[0] if sv.size else 0.0))))
    return vt[rank:].T


def _range_basis(mat):
    u, sv, _ = np.linalg.svd(mat)
    cutoff = max(mat.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
    return u[:, :rank]


@dataclass(frozen=True)
class RangeNullReport:
    """Membership residuals for the range/null characterizations of the
    DCEPGI against Ahat^m."""

    range_equal_residual: float
    null_equal_residual: float
    intersection_dimension: int
    tolerance: float

    @property
    def all_hold(self):
        return (self.range_equal_residual <= self.tolerance
                and self.null_equal_residual <= self.tolerance
                and self.intersection_dimension == 0)


def range_null_report(ah, tol=DEFAULT_TOL):
    """Verify R(X) = R(Ahat^m), N(X) = N((Ahat^m)^T) and the trivial
    intersection R(Ahat^m) cap N((Ahat^m)^T) = {0} for X the DCEPGI.

    Requires the first-order form Ahat^cep = A^cep - eps A^cep B A^cep
    to hold; raises HypothesisError otherwise.
    """
    x, ahm = _first_order_dcepgi(ah, _frame(ah, "range_null_report"), tol)
    sx = _stacked(x)
    sm = _stacked(ahm)
    smt = _stacked(ahm.T)

    range_res = max(_column_membership_residual(sx, sm),
                    _column_membership_residual(sm, sx))

    null_x = _null_basis(sx, tol)
    null_mt = _null_basis(smt, tol)
    null_res = 0.0
    if null_x.shape[1]:
        null_res = max(null_res,
                       _rel(np.linalg.norm(smt @ null_x), ahm.norm()))
    if null_mt.shape[1]:
        null_res = max(null_res, _rel(np.linalg.norm(sx @ null_mt), x.norm()))
    if null_x.shape[1] != null_mt.shape[1]:
        null_res = max(null_res, 1.0)  # dimension mismatch: not equal

    rb = _range_basis(sm)
    inter_dim = rb.shape[1] - numerical_rank(smt @ rb)
    return RangeNullReport(range_equal_residual=range_res,
                           null_equal_residual=null_res,
                           intersection_dimension=int(inter_dim),
                           tolerance=tol)


# ---------------------------------------------------------------------------
# order laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderLawReport:
    """Reverse / forward order-law residuals for a product, plus the
    commuting sufficient-condition quadruple."""

    reverse_residual: float
    forward_residual: float
    sufficient_conditions: dict
    tolerance: float

    @property
    def reverse_holds(self):
        return self.reverse_residual <= self.tolerance

    @property
    def forward_holds(self):
        return self.forward_residual <= self.tolerance

    @property
    def quadruple_holds(self):
        keys = ("commute", "transpose_commute", "std_inf_commute_right",
                "std_inf_commute_left")
        return all(self.sufficient_conditions[k][0] for k in keys)


def order_law_check(ah, bh, tol=DEFAULT_TOL):
    """Compare (Ahat Bhat)^cep against Bhat^cep Ahat^cep (reverse) and
    Ahat^cep Bhat^cep (forward), and evaluate the commuting sufficient
    conditions.  All three DCEPGIs must exist.

    The sufficient-condition quadruple is AB = BA, A B^T = B^T A,
    B^cep A0 = A0 B^cep, A^cep B0 = B0 A^cep; when it holds both order
    laws hold.  The transposed variant A^T B = B A^T is reported
    alongside for reference.
    """
    if ah.shape != bh.shape or not ah.is_square:
        raise DimensionError("order_law_check needs equal square shapes, "
                             f"got {ah.shape} and {bh.shape}")
    xs = []
    for name, mh in (("first factor", ah), ("second factor", bh),
                     ("product", ah @ bh)):
        xs.append(_dcepgi_witness(mh, core_ep_decompose(mh.std), tol,
                                  f"DCEPGI of the {name} does not exist"))
    xa, xb, xab = xs
    scale = xab.norm()
    reverse = _rel((xab - xb @ xa).norm(), scale)
    forward = _rel((xab - xa @ xb).norm(), scale)

    a, a0 = ah.std, ah.inf
    b, b0 = bh.std, bh.inf
    a_cep, b_cep = xa.std, xb.std  # the real core-EP inverses
    mat_scale = max(np.linalg.norm(a), np.linalg.norm(b))
    raw = {
        "commute": np.linalg.norm(a @ b - b @ a),
        "transpose_commute": np.linalg.norm(a @ b.T - b.T @ a),
        "transpose_commute_variant": np.linalg.norm(a.T @ b - b @ a.T),
        "std_inf_commute_right": np.linalg.norm(b_cep @ a0 - a0 @ b_cep),
        "std_inf_commute_left": np.linalg.norm(a_cep @ b0 - b0 @ a_cep),
    }
    conditions = {name: (_rel(v, mat_scale) <= tol, _rel(v, mat_scale))
                  for name, v in raw.items()}
    return OrderLawReport(reverse_residual=reverse, forward_residual=forward,
                          sufficient_conditions=conditions, tolerance=tol)
