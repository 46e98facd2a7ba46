"""Relationships between the DCEPGI and the other dual inverses.

Equivalence predicates for the first-order form
Ahat^cep = A^cep - eps A^cep B A^cep, the rank-augmentation test,
dual range/null-space characterizations, and reverse/forward order
laws for products.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HypothesisError
from .inverses import _dcepgi_witness, _Frame, _rel
from .realkernel import DEFAULT_TOL, _svd_rank, numerical_rank

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
    df = _Frame(ah, "first_order_form_report")
    return _first_order_form_report(df, _dcepgi_witness(df, tol), tol)


def _first_order_form_residual(df, x):
    """The residual of Ahat^cep = A^cep - eps A^cep B A^cep for the
    DCEPGI ``x`` in the dual frame ``df``, over ``_first_order_size``:
    not over x.inf and A^cep B A^cep, roundoff where B vanishes on R(A^m)."""
    a_cep, b = x.std, df.ah.inf  # a_cep: the real core-EP inverse of A
    return _rel(np.linalg.norm(x.inf + a_cep @ b @ a_cep),
                _first_order_size(x, b))


def _first_order_size(x, b):
    """||A^cep||^2 ||B||, the size of the terms of A^cep B A^cep."""
    return np.linalg.norm(x.std) ** 2 * np.linalg.norm(b)


def _first_order_form_report(df, x, tol):
    """``first_order_form_report`` for the DCEPGI ``x`` in the dual
    frame ``df``."""
    a = df.ah.std
    n, s, s_size = df.blocks.n, df.s, df.s_size
    a_cep = x.std

    p_am = df.blocks.am @ df.blocks.am_pinv
    off_range = np.linalg.norm((np.eye(n) - p_am) @ s)
    conds = {
        "first_order_form": _first_order_form_residual(df, x),
        "power_projector": _rel(off_range, s_size),
        "cep_projector": _rel(np.linalg.norm((np.eye(n) - a @ a_cep) @ s),
                              s_size),
        "two_sided_projector": _rel(
            max(np.linalg.norm(a @ a_cep @ s - s),
                np.linalg.norm(s @ a @ a_cep - s)), s_size),
        "range_null_inclusions": _rel(
            max(off_range, np.linalg.norm(s @ (np.eye(n) - p_am))), s_size),
    }
    conditions = {name: (res <= tol, res) for name, res in conds.items()}
    verdicts = {holds for holds, _ in conditions.values()}
    return EquivalenceReport(conditions=conditions,
                             all_equivalent_observed=len(verdicts) == 1)


def _first_order_dcepgi(df, tol):
    """The DCEPGI X in the dual frame ``df``, once the first-order form
    Ahat^cep = A^cep - eps A^cep B A^cep is checked (HypothesisError
    otherwise)."""
    x = _dcepgi_witness(df, tol)
    res = _first_order_form_residual(df, x)
    if not res <= tol:
        raise HypothesisError(
            f"first-order form does not hold (residual {res:.3e})")
    return x


def rank_test(ah, tol=DEFAULT_TOL):
    """rank([A^m  S]) == rank(A^m); equivalent to the first-order form."""
    df = _Frame(ah, "rank_test")
    _dcepgi_witness(df, tol, "rank test needs the DCEPGI to exist")
    frame = df.blocks
    return _svd_rank(np.hstack([frame.am, df.s]), rel=tol,
                     floor=frame.sigma_max ** frame.mp)[0] == frame.t


# ---------------------------------------------------------------------------
# dual range / null spaces
# ---------------------------------------------------------------------------

def _stacked(mh):
    """Real 2n x 2n matrix whose column space / null space encode the
    dual range / null space of mh (coordinates [std; inf])."""
    m, m0 = mh.std, mh.inf
    return np.block([[m, np.zeros_like(m)], [m0, m]])


def _column_membership_residual(gen, space):
    """Largest least-squares residual of the columns of ``gen`` against
    the column space of ``space``, over ||gen||: a column that is zero
    but for roundoff misses by roundoff."""
    sol, *_ = np.linalg.lstsq(space, gen, rcond=None)
    resid = np.linalg.norm(space @ sol - gen, axis=0)
    return _rel(resid.max(initial=0.0), np.linalg.norm(gen))


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
    df = _Frame(ah, "range_null_report")
    x, ahm = _first_order_dcepgi(df, tol), df.ahm
    sx = _stacked(x)
    sm = _stacked(ahm)
    smt = _stacked(ahm.T)

    range_res = max(_column_membership_residual(sx, sm),
                    _column_membership_residual(sm, sx))

    r_x, _, (_, _, vt_x) = _svd_rank(sx, rel=tol, uv=True)
    r_mt, _, (_, _, vt_mt) = _svd_rank(smt, rel=tol, uv=True)
    null_x, null_mt = vt_x[r_x:].T, vt_mt[r_mt:].T
    null_res = 0.0
    if null_x.shape[1]:
        null_res = max(null_res,
                       _rel(np.linalg.norm(smt @ null_x), ahm.norm()))
    if null_mt.shape[1]:
        null_res = max(null_res, _rel(np.linalg.norm(sx @ null_mt), x.norm()))
    if r_x != r_mt:
        null_res = max(null_res, 1.0)  # dimension mismatch: not equal

    r_m, _, (u_m, _, _) = _svd_rank(sm, uv=True)
    inter_dim = r_m - numerical_rank(smt @ u_m[:, :r_m])
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
        xs.append(_dcepgi_witness(_Frame(mh, "order_law_check"), tol,
                                  f"DCEPGI of the {name} does not exist"))
    xa, xb, xab = xs
    scale = xab.norm()
    reverse = _rel((xab - xb @ xa).norm(), scale)
    forward = _rel((xab - xa @ xb).norm(), scale)

    a, a0 = ah.std, ah.inf
    b, b0 = bh.std, bh.inf
    a_cep, b_cep = xa.std, xb.std  # the real core-EP inverses
    conditions = {}
    for name, x, y in (("commute", a, b), ("transpose_commute", a, b.T),
                       ("transpose_commute_variant", a.T, b),
                       ("std_inf_commute_right", b_cep, a0),
                       ("std_inf_commute_left", a_cep, b0)):
        # x y - y x over the size of its terms
        res = _rel(np.linalg.norm(x @ y - y @ x),
                   np.linalg.norm(x) * np.linalg.norm(y))
        conditions[name] = (res <= tol, res)
    return OrderLawReport(reverse_residual=reverse, forward_residual=forward,
                          sufficient_conditions=conditions, tolerance=tol)
