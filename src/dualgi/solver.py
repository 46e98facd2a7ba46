"""Solutions of inconsistent dual linear systems via the DCEPGI.

For Ahat xhat = bhat with an index-m standard part, the surrogate
system

    Ahat^(m+1) xhat = Ahat^(2m) (Ahat^m)^dagger bhat

is consistent whenever the DCEPGI exists, with general solution
xhat = Ahat^cep bhat + (I - Ahat^D Ahat) yhat.  A second result gives
Ahat^cep bhat as the unique in-range solution of
Ahat Ahat^cep xhat = Ahat^cep bhat.

Both read the blocks of the dual core-EP decomposition
Ahat = Uhat [[T1hat, T2hat], [O, Nhat]] Uhat^T (``inverses._Frame``):
Ahat^m (Ahat^m)^+ is then the dual orthogonal projector Uhat1 Uhat1^T,
and no pseudo-inverse of A^m is formed.
"""

from dataclasses import dataclass

import numpy as np

from .dual import DualMatrix, DualVector
from .errors import DimensionError, HypothesisError
from .inverses import _add, _dcepgi, _dot, _Frame, _rel, _row
from .realkernel import DEFAULT_TOL
from .relations import _first_order_dcepgi, _first_order_size

__all__ = ["SolutionReport", "solve_general", "solve_unique_in_range"]


@dataclass(frozen=True)
class SolutionReport:
    """Particular solution and homogeneous projector of the surrogate
    system, with its substitution residual and its right-hand side
    Ahat^(2m) (Ahat^m)^+ bhat, formed as Ahat^m Uhat1 Uhat1^T bhat."""

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
    return _Frame.of(ah)


def solve_general(ah, bhat, tol=DEFAULT_TOL):
    """General solution of Ahat^(m+1) xhat = Ahat^(2m) (Ahat^m)^+ bhat.

    Returns the particular solution Ahat^cep bhat and the projector
    I - Ahat^D Ahat spanning the homogeneous solutions.  Requires the
    DCEPGI, which exists exactly when the DDGI does.

    The particular solution comes from the canonical DCEPGI; the
    projector is Uhat [[O, -(T1hat^-1 T2hat + Y Nhat)], [O, I]] Uhat^T =
    I - Uhat [[I, T1hat^-1 T2hat + Y Nhat], [O, O]] Uhat^T, Y the DDGI's
    upper-right block; the right-hand side is Ahat^m Uhat1 Uhat1^T bhat.
    """
    df = _checked_frame(ah, bhat)
    particular = _dcepgi(ah, tol).witness @ bhat
    t = df.blocks.t
    z = _add(_dot(df.t1_hat_inv, df.t2_hat), _dot(df.drazin_top, df.n_hat))
    ad_a = df.conjugate(_row((np.eye(t), np.zeros((t, t))), z))
    projector = DualMatrix(np.eye(df.blocks.n) - ad_a.std, -ad_a.inf)
    u1 = df.u_hat1
    rhs = df.ahm @ (u1 @ (u1.T @ bhat))
    return SolutionReport(particular=particular,
                          homogeneous_projector=projector,
                          residual=_surrogate_residuals(
                              ah, bhat, rhs, [particular])[0],
                          tolerance=tol, surrogate_rhs=rhs)


def _surrogate_residuals(ah, bhat, rhs, solutions):
    """Residuals of Ahat^(m+1) xh = Ahat^m Uhat1 Uhat1^T bhat = rhs, one
    per xh in ``solutions``, over the size of the terms both sides are
    formed from, ||Ahat|| ||Ahat^m|| (||Ahat^cep|| ||bhat|| + ||xh||)
    and ||Ahat^m|| ||Uhat1||^2 ||bhat||, with Ahat^cep the frame's
    canonical DCEPGI: not over ||xh|| or ||rhs||, for bhat in
    N((Ahat^m)^T) both are roundoff."""
    df = _Frame.of(ah)
    ahm = df.ahm
    a_size = ah.norm() * ahm.norm()
    b_size = bhat.norm() * (a_size * df.dcepgi.norm()
                            + ahm.norm() * df.u_hat1.norm() ** 2)
    return [_rel((ah @ (ahm @ xh) - rhs).norm(), a_size * xh.norm() + b_size)
            for xh in solutions]


def _range_residual(df, xhat, scale):
    """Residual of xhat = x + eps x' against the dual range of Ahat^m,
    that of Uhat1 when the DCEPGI exists: the size of Uhat2^T xhat =
    U2^T x + eps (U2^T x' - U3 U1^T x), over ``scale``, for
    Uhat2 = U2 - eps U1 U3^T the trailing columns of Uhat (U1, U2 =
    U[:, :t], U[:, t:]).  Since U2^T S U1 = U3 T1^m then, this is the
    part of x and of x' - S y along U2 at the preimage
    y = U1 T1^-m U1^T x, formed without T1^-m and its roundoff of
    order eps cond(T1)^m.  No preimage misses less than the
    least-squares one, so this check is never laxer than a
    least-squares test on the stacked 2n x 2n matrix."""
    u2, v2 = (part[:, df.blocks.t:] for part in df.u_hat)
    x, x1 = xhat.std, xhat.inf
    return _rel(np.hypot(np.linalg.norm(u2.T @ x),
                         np.linalg.norm(u2.T @ x1 + v2.T @ x)), scale)


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
    x_cep = _first_order_dcepgi(ah, tol)
    xhat = x_cep @ bhat
    scale = np.hypot(np.linalg.norm(x_cep.std),
                     _first_order_size(x_cep, ah.inf)) * bhat.norm()
    member = _range_residual(df, xhat, scale)
    if member > tol:
        raise HypothesisError(
            f"solution fails dual-range membership (residual {member:.3e})")
    eq_res = _rel((ah @ (x_cep @ xhat) - xhat).norm(), scale)
    if eq_res > tol:
        raise HypothesisError(
            f"solution fails the defining equation (residual {eq_res:.3e})")
    return xhat
