"""Dual core-EP decomposition.

Builds a dual unitary Uhat = U + eps*U0 such that

    Ahat = Uhat [[T1hat, T2hat], [O, Nhat]] Uhat^T

with T1hat's standard part invertible.  U comes from the real core-EP
decomposition of the standard part; the off-diagonal generator of U0
is obtained from the Sylvester equation N U3 + B3 - U3 T1 = O, whose
solution terminates exactly because N is nilpotent and T1 invertible.

The upper-right generator is fixed to U2 = -U3^T, which is what makes
Uhat genuinely dual unitary (Uhat^T Uhat = I + eps O) while still
zeroing the lower-left infinitesimal block.  The diagonal blocks are
unchanged by this choice; only T2hat picks up an extra correction term
when U3 is nonzero.
"""

from dataclasses import dataclass

import numpy as np

from .dual import DualMatrix
from .errors import InverseNotExistError
from .inverses import _dcepgi, _Frame, _readonly, _rel
from .realkernel import DEFAULT_TOL, _lapack, _svd_rank

__all__ = [
    "DualCoreEPDecomposition",
    "DualCNSplit",
    "dual_core_ep_decompose",
    "dual_cn_split",
    "dcepgi_from_decomposition",
]


def _upper(t1_hat, t2_hat, n_hat):
    """The dual block matrix [[t1_hat, t2_hat], [O, n_hat]]."""
    low = np.zeros((n_hat.shape[0], t1_hat.shape[1]))
    return DualMatrix(np.block([[t1_hat.std, t2_hat.std], [low, n_hat.std]]),
                      np.block([[t1_hat.inf, t2_hat.inf], [low, n_hat.inf]]))


@dataclass(frozen=True)
class DualCoreEPDecomposition:
    """Dual unitary Uhat and blocks of Uhat^T Ahat Uhat.

    ``canonical`` records whether the side conditions T2 U3 = O and
    U3 T2 = O hold, in which case T1hat = T1 + eps B1 and
    Nhat = N + eps B4 exactly.
    """

    U_hat: DualMatrix
    T1_hat: DualMatrix
    T2_hat: DualMatrix
    N_hat: DualMatrix
    U3: np.ndarray
    canonical: bool
    t: int
    m: int

    @property
    def n(self):
        return self.U_hat.shape[0]

    def middle(self):
        """The dual block factor [[T1hat, T2hat], [O, Nhat]]."""
        return _upper(self.T1_hat, self.T2_hat, self.N_hat)

    def _conjugate(self, t1_hat, t2_hat, n_hat):
        """Uhat [[t1_hat, t2_hat], [O, n_hat]] Uhat^T."""
        return self.U_hat @ _upper(t1_hat, t2_hat, n_hat) @ self.U_hat.T

    def reconstruct(self):
        return self._conjugate(self.T1_hat, self.T2_hat, self.N_hat)

    def core_part(self):
        """Uhat [[T1hat, T2hat], [O, O]] Uhat^T."""
        return self._conjugate(self.T1_hat, self.T2_hat,
                               DualMatrix.zeros(self.n - self.t))

    def nilpotent_part(self):
        """Uhat [[O, O], [O, Nhat]] Uhat^T."""
        t = self.t
        return self._conjugate(DualMatrix.zeros(t),
                               DualMatrix.zeros(t, self.n - t), self.N_hat)


@dataclass(frozen=True)
class DualCNSplit:
    """Additive split Ahat = core + nilpotent with core = Ahat X Ahat
    for X the DCEPGI."""

    core: DualMatrix
    nilpotent: DualMatrix


def dual_core_ep_decompose(ah, tol=DEFAULT_TOL, u=None):
    """Dual core-EP decomposition of a square dual matrix.

    Pass ``u`` to pin the real orthogonal frame (useful for matching a
    hand-picked basis); otherwise it comes from the staircase.
    """
    df = _Frame.of(ah, u)
    t2, u3 = df.blocks.T2, df.u3
    u3.flags.writeable = False
    u_hat, t1_hat, t2_hat, n_hat = (
        _readonly(DualMatrix(*pair))
        for pair in (df.u_hat, df.t1_hat, df.t2_hat, df.n_hat))
    b_norm = np.linalg.norm(df.ah.inf)
    canonical = bool(_rel(np.linalg.norm(t2 @ u3), b_norm) <= tol
                     and _rel(np.linalg.norm(u3 @ t2), b_norm) <= tol)
    return DualCoreEPDecomposition(
        U_hat=u_hat, T1_hat=t1_hat, T2_hat=t2_hat,
        N_hat=n_hat, U3=u3, canonical=canonical, t=df.blocks.t,
        m=df.blocks.m)


def dual_cn_split(ah, tol=DEFAULT_TOL):
    """Split Ahat into dual core and dual nilpotent parts.

    core = Ahat Ahat^cep Ahat and nilpotent = Ahat - core; requires the
    DCEPGI to exist.  The split is unique and agrees with the block
    split of the dual core-EP decomposition when the decomposition is
    canonical.
    """
    x = _dcepgi(ah, tol,
                "dual core-nilpotent split needs the DCEPGI to exist").witness
    core = ah @ x @ ah
    return DualCNSplit(core=core, nilpotent=ah - core)


def dcepgi_from_decomposition(d, tol=DEFAULT_TOL):
    """Recover the DCEPGI from a canonical dual core-EP decomposition:
    Uhat [[T1hat^-1, O], [O, O]] Uhat^T with the dual inverse
    T1hat^-1 = T1^-1 - eps T1^-1 B1hat T1^-1."""
    if not d.canonical:
        raise InverseNotExistError(
            "decomposition is not canonical (T2 U3 or U3 T2 nonzero)", None)
    t, n = d.t, d.n
    if t == 0:
        return DualMatrix.zeros(n)
    t1 = d.T1_hat.std
    if _svd_rank(t1, rel=tol)[0] < t:
        raise InverseNotExistError("T1hat standard part is singular", None)
    t1_inv = _lapack("inverse", np.linalg.inv, t1)
    t1_hat_inv = DualMatrix(t1_inv, -t1_inv @ d.T1_hat.inf @ t1_inv)
    return d._conjugate(t1_hat_inv, DualMatrix.zeros(t, n - t),
                        DualMatrix.zeros(n - t))
