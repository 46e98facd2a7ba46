"""Relationships between the DCEPGI and the other dual inverses.

Equivalence predicates for the first-order form
Ahat^cep = A^cep - eps A^cep B A^cep, the rank-augmentation test,
dual range/null-space characterizations, and reverse/forward order
laws for products.
"""

from dataclasses import dataclass

from .dual import _as_dual_matrix, _fro
from .errors import DimensionError
from .inverses import _dcepgi, _first_order_dcepgi, _Frame, _rel
from .realkernel import DEFAULT_TOL, _tolerance

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

    In the core-EP frame A = U [[T1, T2], [O, N]] U^T, A^m (A^m)^+ and
    A A^cep are both U1 U1^T, so ``power_projector`` equals
    ``cep_projector`` by construction: ||U2^T S||_F over the size of
    the terms of S (U1, U2 = U[:, :t], U[:, t:]).  The last two are
    the larger of that and ||S U2||_F over the same size.
    ``first_order_form`` is ||X' + A^cep B A^cep||_F over ||T1^-1||_F^2
    ||B||_F, X' the DCEPGI's infinitesimal part, read off the frame's
    blocks with no witness (``_Frame.first_order_residual``).
    """

    conditions: dict
    all_equivalent_observed: bool


def first_order_form_report(ah, tol=DEFAULT_TOL):
    """Evaluate the five conditions linked to the first-order form
    Ahat^cep = A^cep - eps A^cep B A^cep (see EquivalenceReport for
    which of them are mutually equivalent).  The projector conditions
    read ||U2^T S|| and ||S U2||: no power of A, no pseudo-inverse."""
    tol = _tolerance(tol)
    _dcepgi(ah, tol)  # the verdict: its witness is not formed
    df = _Frame.of(ah)
    left = _power_projector(df)
    u2 = df.blocks.U[:, df.blocks.t:]
    both = max(left, _rel(_fro(df.s.dot(u2)), df.s_size))
    conds = {
        "first_order_form": df.first_order_residual,
        "power_projector": left,
        "cep_projector": left,
        "two_sided_projector": both,
        "range_null_inclusions": both,
    }
    conditions = {name: (res <= tol, res) for name, res in conds.items()}
    verdicts = {holds for holds, _ in conditions.values()}
    return EquivalenceReport(conditions=conditions,
                             all_equivalent_observed=len(verdicts) == 1)


def _power_projector(df):
    """``power_projector``: ||U2^T S||_F over the size of the terms of S
    (U2 = U[:, t:]), O exactly when S maps into R(A^m) = R(U1), that is
    rank([A^m  S]) = rank(A^m)."""
    u2 = df.blocks.U[:, df.blocks.t:]
    return _rel(_fro(u2.T.dot(df.s)), df.s_size)


def rank_test(ah, tol=DEFAULT_TOL):
    """rank([A^m  S]) == rank(A^m); equivalent to the first-order form.
    R(A^m) = R(U1) in the core-EP frame, so this is the report's
    ``power_projector`` at or below ``tol``: no SVD, no rank cut."""
    tol = _tolerance(tol)
    _dcepgi(ah, tol, "rank test needs the DCEPGI to exist")
    return _power_projector(_Frame.of(ah)) <= tol


# ---------------------------------------------------------------------------
# dual range / null spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RangeNullReport:
    """Residuals for the range/null characterizations of the DCEPGI X
    against Ahat^m, read from the dual core-EP frame.  When the DCEPGI
    exists, R(X) = R(Ahat^m) is the dual range of Uhat1 and
    N(X) = N((Ahat^m)^T) that of Uhat2 (the leading t and trailing
    n - t columns of Uhat), so ``range_equal_residual`` is the larger of
    ||Uhat2^T X|| / ||X|| and ||Uhat2^T Ahat^m|| / (||A^m||_F + the size
    of the terms of S), and ``null_equal_residual`` the same for X Uhat2
    and (Ahat^m)^T Uhat2 (sizes by ``_Frame.off_range_norm``).
    ``intersection_dimension`` is 0 by construction: the frame's Uhat
    is dual orthogonal, so Uhat1 a = Uhat2 b gives a = Uhat1^T Uhat2 b
    = 0.
    """

    range_equal_residual: float
    null_equal_residual: float
    intersection_dimension: int
    tolerance: float

    @property
    def all_hold(self):
        return (self.range_equal_residual <= self.tolerance
                and self.null_equal_residual <= self.tolerance)


def range_null_report(ah, tol=DEFAULT_TOL):
    """Verify R(X) = R(Ahat^m) and N(X) = N((Ahat^m)^T) for X the DCEPGI
    against the frame's Uhat, whose dual orthogonality makes
    R(Ahat^m) cap N((Ahat^m)^T) = {0} (see RangeNullReport).

    Requires the first-order form Ahat^cep = A^cep - eps A^cep B A^cep
    to hold; raises HypothesisError otherwise.
    """
    tol = _tolerance(tol)
    x, df = _first_order_dcepgi(ah, tol), _Frame.of(ah)
    ahm, x_size = df.ahm, x.norm()
    ahm_res = _rel(df.off_range_norm(ahm),
                   _fro(ahm.std) + df.s_size)
    range_res = max(_rel(df.off_range_norm(x), x_size), ahm_res)
    null_res = max(_rel(df.off_range_norm(x.T), x_size), ahm_res)
    return RangeNullReport(range_equal_residual=range_res,
                           null_equal_residual=null_res,
                           intersection_dimension=0, tolerance=tol)


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
    tol, ah, bh = _tolerance(tol), _as_dual_matrix(ah), _as_dual_matrix(bh)
    if ah.shape != bh.shape or not ah.is_square:
        raise DimensionError("order_law_check needs equal square shapes, "
                             f"got {ah.shape} and {bh.shape}")
    xs = []
    for name, mh in (("first factor", ah), ("second factor", bh),
                     ("product", ah @ bh)):
        xs.append(_dcepgi(mh, tol,
                          f"DCEPGI of the {name} does not exist").witness)
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
        res = _rel(_fro(x.dot(y) - y.dot(x)), _fro(x) * _fro(y))
        conditions[name] = (res <= tol, res)
    return OrderLawReport(reverse_residual=reverse, forward_residual=forward,
                          sufficient_conditions=conditions, tolerance=tol)
