"""Solutions of inconsistent dual linear systems via the DCEPGI.

For Ahat xhat = bhat with an index-m standard part, the surrogate
system

    Ahat^(m+1) xhat = Ahat^(2m) (Ahat^m)^dagger bhat

is consistent whenever the DCEPGI exists, with general solution
xhat = Ahat^cep bhat + (I - Ahat^D Ahat) yhat.  A second result gives
Ahat^cep bhat as the unique in-range solution of
Ahat Ahat^cep xhat = Ahat^cep bhat.
"""

from dataclasses import dataclass

import numpy as np

from .dual import DualMatrix, DualVector
from .errors import DimensionError, HypothesisError
from .inverses import (_dcepgi_witness, _ddgi_witness, _dmpgi_apply, _Frame,
                       _rel)
from .realkernel import DEFAULT_TOL
from .relations import _first_order_dcepgi, _first_order_size

__all__ = ["SolutionReport", "solve_general", "solve_unique_in_range"]


@dataclass(frozen=True)
class SolutionReport:
    """Particular solution and homogeneous projector of the surrogate
    system, with its substitution residual and its right-hand side
    Ahat^(2m) (Ahat^m)^+ bhat."""

    particular: DualVector
    homogeneous_projector: DualMatrix
    residual: float
    tolerance: float
    surrogate_rhs: DualVector

    def solution(self, yhat):
        """particular + projector @ yhat, a solution for any dual yhat."""
        return self.particular + self.homogeneous_projector @ yhat


def _checked_frame(ah, bhat):
    """The dual frame of ``ah``, once the right-hand side fits."""
    if len(bhat) != ah.shape[0]:
        raise DimensionError(f"right-hand side length {len(bhat)} does not "
                             f"match matrix size {ah.shape[0]}")
    return _Frame(ah, "solver")


def solve_general(ah, bhat, tol=DEFAULT_TOL):
    """General solution of Ahat^(m+1) xhat = Ahat^(2m) (Ahat^m)^+ bhat.

    Returns the particular solution Ahat^cep bhat and the projector
    I - Ahat^D Ahat spanning the homogeneous solutions.  Requires the
    DCEPGI, which exists exactly when the DDGI does.
    """
    return _solve_general(_checked_frame(ah, bhat), bhat, tol)


def _solve_general(df, bhat, tol):
    ah, ahm = df.ah, df.ahm
    x_cep = _dcepgi_witness(df, tol)
    particular = x_cep @ bhat
    projector = DualMatrix.eye(df.blocks.n) - _ddgi_witness(df) @ ah
    # (Ahat^m)^+, which exists with the DCEPGI, at the frame's (A^m)^+
    rhs = ahm @ (ahm @ _dmpgi_apply(ahm, df.blocks.am_pinv, bhat))
    return SolutionReport(particular=particular,
                          homogeneous_projector=projector,
                          residual=_surrogate_residuals(
                              df, x_cep, bhat, rhs, [particular])[0],
                          tolerance=tol, surrogate_rhs=rhs)


def _surrogate_residuals(df, x_cep, bhat, rhs, solutions):
    """Residuals of Ahat^(m+1) xh = Ahat^(2m) (Ahat^m)^+ bhat = rhs, one
    per xh in ``solutions``, over the size of the terms both sides are
    formed from, not over ||xh|| or ||rhs||: for bhat in N((Ahat^m)^T)
    both are roundoff."""
    ah, ahm = df.ah, df.ahm
    a_size = ah.norm() * ahm.norm()
    b_size = bhat.norm() * (a_size * x_cep.norm() + ahm.norm() ** 2
                            * np.linalg.norm(df.blocks.am_pinv))
    return [_rel((ah @ (ahm @ xh) - rhs).norm(), a_size * xh.norm() + b_size)
            for xh in solutions]


def _range_residual(frame, s, xhat, scale):
    """Residual of xhat = x + eps x' against the dual range of
    Ahat^m = A^m + eps S, at the preimage y = (A^m)^+ x,
    y' = (A^m)^+ (x' - S y), over ``scale``.
    What that preimage misses is the part of x and of x' - S y along
    U[:, t:], the orthogonal complement of R(A^m).  No preimage misses
    less than the least-squares one, so this check is never laxer than
    a least-squares test on the stacked 2n x 2n matrix."""
    x, x1 = xhat.std, xhat.inf
    u2t = frame.U[:, frame.t:].T
    miss = np.hypot(np.linalg.norm(u2t @ x),
                    np.linalg.norm(u2t @ (x1 - s @ (frame.am_pinv @ x))))
    return _rel(miss, scale)


def solve_unique_in_range(ah, bhat, tol=DEFAULT_TOL):
    """Unique solution of Ahat Ahat^cep xhat = Ahat^cep bhat inside the
    dual range of Ahat^m, namely Ahat^cep bhat.

    Requires the first-order form Ahat^cep = A^cep - eps A^cep B A^cep;
    membership in the dual range and the equation residual are
    verified before returning, each over the size of the terms of
    Ahat^cep, ||A^cep|| and ||A^cep||^2 ||B||, times ||bhat||: the size
    of xhat's own roundoff (xhat is zero for bhat in N(Ahat^cep), and
    A^cep B A^cep is zero where B vanishes on R(A^m)).
    """
    df = _checked_frame(ah, bhat)
    x_cep = _first_order_dcepgi(df, tol)
    xhat = x_cep @ bhat
    scale = np.hypot(np.linalg.norm(x_cep.std),
                     _first_order_size(x_cep, ah.inf)) * bhat.norm()
    member = _range_residual(df.blocks, df.s, xhat, scale)
    if member > tol:
        raise HypothesisError(
            f"solution fails dual-range membership (residual {member:.3e})")
    eq_res = _rel((ah @ (x_cep @ xhat) - xhat).norm(), scale)
    if eq_res > tol:
        raise HypothesisError(
            f"solution fails the defining equation (residual {eq_res:.3e})")
    return xhat
