"""Solutions of inconsistent dual linear systems via the DCEPGI.

For Ahat xhat = bhat with an index-m standard part, the surrogate
system

    Ahat^(m+1) xhat = Ahat^(2m) (Ahat^m)^dagger bhat

is consistent whenever the DCEPGI and DDGI exist, with general solution
xhat = Ahat^cep bhat + (I - Ahat^D Ahat) yhat.  A second result gives
Ahat^cep bhat as the unique in-range solution of
Ahat Ahat^cep xhat = Ahat^cep bhat.
"""

from dataclasses import dataclass

import numpy as np

from .dual import DualMatrix, DualVector
from .errors import DimensionError, HypothesisError
from .inverses import (_certified, _dcepgi_witness, _ddgi_certificate,
                       _dmpgi_formula, _Frame, _rel)
from .realkernel import DEFAULT_TOL
from .relations import _first_order_dcepgi

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
    I - Ahat^D Ahat spanning the homogeneous solutions.  Requires both
    the DCEPGI and the DDGI.
    """
    return _solve_general(_checked_frame(ah, bhat), bhat, tol)


def _solve_general(df, bhat, tol):
    ah, ahm = df.ah, df.ahm
    x_cep = _dcepgi_witness(df, tol)
    d_cert = _certified(_ddgi_certificate(df, tol),
                        "dual Drazin inverse does not exist "
                        "(required by the general solution)")
    particular = x_cep @ bhat
    projector = DualMatrix.eye(df.blocks.n) - d_cert.witness @ ah
    # (Ahat^m)^+, certified by power_mp, at the frame's rank-t (A^m)^+
    rhs = ahm @ (ahm @ (_dmpgi_formula(ahm, df.blocks.am_pinv) @ bhat))
    residual = _rel((ah @ (ahm @ particular) - rhs).norm(), bhat.norm())
    return SolutionReport(particular=particular,
                          homogeneous_projector=projector,
                          residual=residual, tolerance=tol,
                          surrogate_rhs=rhs)


def _range_residual(frame, s, xhat):
    """Relative residual of xhat = x + eps x' against the dual range of
    Ahat^m = A^m + eps S, at the preimage y = (A^m)^+ x,
    y' = (A^m)^+ (x' - S y).  What that preimage misses is the part of x
    and of x' - S y along U[:, t:], the orthogonal complement of R(A^m).
    No preimage misses less than the least-squares one, so this check
    is never laxer than a least-squares test on the stacked 2n x 2n
    matrix."""
    x, x1 = xhat.std, xhat.inf
    u2t = frame.U[:, frame.t:].T
    miss = np.hypot(np.linalg.norm(u2t @ x),
                    np.linalg.norm(u2t @ (x1 - s @ (frame.am_pinv @ x))))
    return _rel(miss, np.hypot(np.linalg.norm(x), np.linalg.norm(x1)))


def solve_unique_in_range(ah, bhat, tol=DEFAULT_TOL):
    """Unique solution of Ahat Ahat^cep xhat = Ahat^cep bhat inside the
    dual range of Ahat^m, namely Ahat^cep bhat.

    Requires the first-order form Ahat^cep = A^cep - eps A^cep B A^cep;
    membership in the dual range and the equation residual are
    verified before returning.
    """
    df = _checked_frame(ah, bhat)
    x_cep = _first_order_dcepgi(df, tol)
    xhat = x_cep @ bhat
    member = _range_residual(df.blocks, df.s, xhat)
    if member > tol:
        raise HypothesisError(
            f"solution fails dual-range membership (residual {member:.3e})")
    eq_res = _rel((ah @ (x_cep @ xhat) - xhat).norm(), bhat.norm())
    if eq_res > tol:
        raise HypothesisError(
            f"solution fails the defining equation (residual {eq_res:.3e})")
    return xhat
