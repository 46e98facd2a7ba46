"""Solutions of inconsistent dual linear systems via the DCEPGI.

For Ahat xhat = bhat with an index-m standard part, the surrogate
system

    Ahat^(m+1) xhat = Ahat^(2m) (Ahat^m)^dagger bhat

is consistent whenever the DCEPGI exists, with general solution
xhat = Ahat^cep bhat + (I - Ahat^D Ahat) yhat.  A second result gives
Ahat^cep bhat as the unique in-range solution of
Ahat Ahat^cep xhat = Ahat^cep bhat.

Both read the blocks of the dual core-EP decomposition
Ahat = Uhat [[T1hat, T2hat], [O, Nhat]] Uhat^T, the DualMatrix values
of ``inverses._Frame``, and combine them by the ring operations:
Ahat^m (Ahat^m)^+ is then the dual orthogonal projector Uhat1 Uhat1^T,
and Ahat^m Uhat1 = Uhat1 T1hat^m: no A^m or (A^m)^+ is formed.
"""

from dataclasses import dataclass

import numpy as np

from .dual import DualMatrix, DualVector, _fro
from .errors import DimensionError, HypothesisError
from .inverses import _dcepgi, _first_order_dcepgi, _Frame, _rel, _row
from .realkernel import DEFAULT_TOL, _tolerance

__all__ = ["SolutionReport", "solve_general", "solve_unique_in_range"]


@dataclass(frozen=True)
class SolutionReport:
    """Particular solution and homogeneous projector of the surrogate
    system, with its substitution residual and its right-hand side
    Ahat^(2m) (Ahat^m)^+ bhat = Uhat1 (T1hat^m (Uhat1^T bhat))."""

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
    if not isinstance(bhat, DualVector):
        raise DimensionError("the right-hand side must be a DualVector, "
                             f"got {type(bhat).__name__}")
    if len(bhat) != ah.shape[0]:
        raise DimensionError(f"right-hand side length {len(bhat)} does not "
                             f"match matrix size {ah.shape[0]}")
    return _Frame.of(ah)


def solve_general(ah, bhat, tol=DEFAULT_TOL):
    """General solution of Ahat^(m+1) xhat = Ahat^(2m) (Ahat^m)^+ bhat.

    Returns the particular solution Ahat^cep bhat and the projector
    I - Ahat^D Ahat spanning the homogeneous solutions.  Requires the
    DCEPGI, which exists exactly when the DDGI does.

    The particular solution comes from the canonical DCEPGI; the
    projector is Uhat [[O, -Z], [O, I]] Uhat^T = (Uhat2 - Uhat1 Z)
    Uhat2^T, Z = T1hat^-1 T2hat + Y Nhat, Y the DDGI's upper-right
    block: no identity is formed; the right-hand side is
    Uhat1 T1hat^m Uhat1^T bhat, T1hat^m read off ``_Frame.power_top``.
    """
    tol = _tolerance(tol)
    df = _checked_frame(ah, bhat)
    particular = _dcepgi(ah, tol).witness @ bhat
    z = df.t1_hat_inv @ df.t2_hat + df.drazin_top @ df.n_hat
    projector = (df.u_hat2 - df.u_hat1 @ z) @ df.u_hat2.T
    rhs = df.u_hat1 @ (df.power_top[0] @ (df.u_hat1.T @ bhat))
    return SolutionReport(particular=particular,
                          homogeneous_projector=projector,
                          residual=_surrogate_residuals(
                              ah, bhat, rhs, [particular])[0],
                          tolerance=tol, surrogate_rhs=rhs)


def _surrogate_residuals(ah, bhat, rhs, solutions):
    """Residuals of Ahat^(m+1) xh = rhs, one per xh in ``solutions``,
    over ||Ahat|| ||Ahat^m|| (||xh|| + ||Ahat^cep|| ||bhat||) +
    ||Ahat^m|| ||bhat||, ||Ahat^m|| read off ``_Frame.power_top``: the
    first product's roundoff reaches the residual through Ahat^m, not
    T1hat^m alone.  Not over ||xh|| or ||rhs||, both roundoff for bhat
    in N((Ahat^m)^T)."""
    df, ah_size = _Frame.of(ah), ah.norm()
    am_size = _row(*df.power_top).norm()
    a_size = ah_size * am_size
    b_size = am_size * bhat.norm() * (1 + ah_size * df.dcepgi.norm())

    def miss(xh):
        for _ in range(df.blocks.mp + 1):
            xh = ah @ xh
        return (xh - rhs).norm()
    return [_rel(miss(xh), a_size * xh.norm() + b_size) for xh in solutions]


def solve_unique_in_range(ah, bhat, tol=DEFAULT_TOL):
    """Unique solution of Ahat Ahat^cep xhat = Ahat^cep bhat inside the
    dual range of Ahat^m, namely Ahat^cep bhat.

    Requires the first-order form Ahat^cep = A^cep - eps A^cep B A^cep,
    read off the frame's blocks with no n x n product; membership in
    the dual range and the equation residual are verified before
    returning, each over the size of the terms of Ahat^cep, ||A^cep||
    and ||A^cep||^2 ||B||, times ||bhat||: the size of xhat's own
    roundoff (xhat is zero for bhat in N(Ahat^cep), and A^cep B A^cep
    is zero where B vanishes on R(A^m)).
    """
    df = _checked_frame(ah, bhat)
    x_cep = _first_order_dcepgi(ah, tol)
    xhat = x_cep @ bhat
    cep_size = _fro(x_cep.std)
    scale = np.hypot(cep_size, cep_size ** 2 * _fro(ah.inf)) * bhat.norm()
    # the size of Uhat2^T xhat: the part of x and of x' - S y along U2 at
    # the preimage y = U1 T1^-m U1^T x, without T1^-m and its roundoff of
    # eps cond(T1)^m, and never laxer than stacked 2n x 2n least squares
    member = _rel(df.off_range_norm(xhat), scale)
    if member > tol:
        raise HypothesisError(
            f"solution fails dual-range membership (residual {member:.3e})")
    eq_res = _rel((ah @ (x_cep @ xhat) - xhat).norm(), scale)
    if eq_res > tol:
        raise HypothesisError(
            f"solution fails the defining equation (residual {eq_res:.3e})")
    return xhat
