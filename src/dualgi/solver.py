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
from .inverses import _certified, _dcepgi_witness, _ddgi_certificates, _rel
from .realkernel import DEFAULT_TOL, core_ep_decompose
from .relations import _column_membership_residual, _first_order_dcepgi, \
    _stacked

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
    """The core-EP frame of the standard part, once the shapes fit."""
    if not ah.is_square:
        raise DimensionError(f"solver needs a square dual matrix, got {ah.shape}")
    if len(bhat) != ah.shape[0]:
        raise DimensionError(f"right-hand side length {len(bhat)} does not "
                             f"match matrix size {ah.shape[0]}")
    return core_ep_decompose(ah.std)


def solve_general(ah, bhat, tol=DEFAULT_TOL):
    """General solution of Ahat^(m+1) xhat = Ahat^(2m) (Ahat^m)^+ bhat.

    Returns the particular solution Ahat^cep bhat and the projector
    I - Ahat^D Ahat spanning the homogeneous solutions.  Requires both
    the DCEPGI and the DDGI.
    """
    return _solve_general(ah, bhat, _checked_frame(ah, bhat), tol)


def _solve_general(ah, bhat, frame, tol):
    x_cep = _dcepgi_witness(ah, frame, tol)
    d_cert, ahm, power_cert = _ddgi_certificates(ah, frame, tol)
    _certified(d_cert, "dual Drazin inverse does not exist "
                       "(required by the general solution)")
    particular = x_cep @ bhat
    projector = DualMatrix.eye(frame.n) - d_cert.witness @ ah
    rhs = ahm @ (ahm @ (power_cert.witness @ bhat))
    residual = _rel((ah @ (ahm @ particular) - rhs).norm(), bhat.norm())
    return SolutionReport(particular=particular,
                          homogeneous_projector=projector,
                          residual=residual, tolerance=tol,
                          surrogate_rhs=rhs)


def solve_unique_in_range(ah, bhat, tol=DEFAULT_TOL):
    """Unique solution of Ahat Ahat^cep xhat = Ahat^cep bhat inside the
    dual range of Ahat^m, namely Ahat^cep bhat.

    Requires the first-order form Ahat^cep = A^cep - eps A^cep B A^cep;
    membership in the dual range and the equation residual are
    verified before returning.
    """
    x_cep, ahm = _first_order_dcepgi(ah, _checked_frame(ah, bhat), tol)
    xhat = x_cep @ bhat
    member = _column_membership_residual(
        np.concatenate([xhat.std, xhat.inf])[:, None], _stacked(ahm))
    if member > tol:
        raise HypothesisError(
            f"solution fails dual-range membership (residual {member:.3e})")
    eq_res = _rel((ah @ (x_cep @ xhat) - xhat).norm(), bhat.norm())
    if eq_res > tol:
        raise HypothesisError(
            f"solution fails the defining equation (residual {eq_res:.3e})")
    return xhat
