"""Dual core-EP decomposition.

Builds a dual orthogonal Uhat = U (I + eps G) such that

    Ahat = Uhat [[T1hat, T2hat], [O, Nhat]] Uhat^T

with T1hat's standard part invertible.  U comes from the real core-EP
decomposition of the standard part, and G = [[O, -U3^T], [U3, O]] is
skew, so Uhat^T Uhat = I; U3 solves N U3 + B3 - U3 T1 = O (N
nilpotent, T1 invertible), which zeroes the lower-left block.

The decomposition is a view of the input's dual frame (``_Frame``): its
DCEPGI and the core-nilpotent split are products of Uhat's leading t
columns Uhat1 and trailing n - t columns Uhat2, Uhat1 ([T1hat, T2hat]
Uhat^T) for the core part and Uhat2 (Nhat Uhat2^T) for the nilpotent one.
"""

from dataclasses import dataclass, field

import numpy as np

from .dual import DualMatrix, _fro
from .errors import InverseNotExistError
from .inverses import (_NO_DCEPGI, _cep_certificate, _certified, _dcepgi,
                       _Frame, _rel, _row)
from .realkernel import DEFAULT_TOL, _tolerance

__all__ = [
    "DualCoreEPDecomposition",
    "DualCNSplit",
    "dual_core_ep_decompose",
    "dual_cn_split",
    "dcepgi_from_decomposition",
]


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
    _frame: _Frame = field(repr=False, compare=False)
    _tol: float = field(repr=False, compare=False)  # the tol of canonical

    @property
    def n(self):
        return self.U_hat.shape[0]

    def reconstruct(self):
        return self.core_part() + self.nilpotent_part()

    def core_part(self):
        """Uhat [[T1hat, T2hat], [O, O]] Uhat^T."""
        df = self._frame
        return df.u_hat1 @ (_row(df.t1_hat, df.t2_hat) @ df.u_hat.T)

    def nilpotent_part(self):
        """Uhat [[O, O], [O, Nhat]] Uhat^T."""
        df = self._frame
        return df.u_hat2 @ (df.n_hat @ df.u_hat2.T)


@dataclass(frozen=True)
class DualCNSplit:
    """Additive split Ahat = core + nilpotent, the ``core_part()`` and
    ``nilpotent_part()`` of the dual core-EP decomposition."""

    core: DualMatrix
    nilpotent: DualMatrix


def dual_core_ep_decompose(ah, tol=DEFAULT_TOL, u=None):
    """Dual core-EP decomposition of a square dual matrix.

    Pass ``u`` to pin the real orthogonal frame (useful for matching a
    hand-picked basis); otherwise it comes from the staircase.
    """
    df, tol = _Frame.of(ah, u), _tolerance(tol)
    t2, u3 = df.blocks.T2, df.u3
    b_norm = _fro(df.ah.inf)
    canonical = bool(_rel(_fro(t2.dot(u3)), b_norm) <= tol
                     and _rel(_fro(u3.dot(t2)), b_norm) <= tol)
    return DualCoreEPDecomposition(
        U_hat=df.u_hat, T1_hat=df.t1_hat, T2_hat=df.t2_hat,
        N_hat=df.n_hat, U3=u3, canonical=canonical, t=df.blocks.t,
        m=df.blocks.m, _frame=df, _tol=tol)


def dual_cn_split(ah, tol=DEFAULT_TOL):
    """Split Ahat into dual core and dual nilpotent parts.

    Requires the DCEPGI to exist.  The split is unique and is the block
    split of the dual core-EP decomposition, canonical or not, so no
    DCEPGI is formed: core = Uhat [[T1hat, T2hat], [O, O]] Uhat^T, which
    is Ahat Ahat^cep Ahat, and nilpotent = Uhat [[O, O], [O, Nhat]] Uhat^T.
    """
    _dcepgi(ah, tol, "dual core-nilpotent split needs the DCEPGI to exist")
    d = dual_core_ep_decompose(ah, tol)
    return DualCNSplit(core=d.core_part(), nilpotent=d.nilpotent_part())


def dcepgi_from_decomposition(d):
    """The DCEPGI Uhat [[T1hat^-1, O], [O, O]] Uhat^T, read-only, of a
    canonical ``d``, where it exists at the tolerance ``d`` was built at."""
    if not isinstance(d, DualCoreEPDecomposition):
        raise TypeError(f"not a DualCoreEPDecomposition: {type(d).__name__}")
    if not d.canonical:
        raise InverseNotExistError(
            "decomposition is not canonical (T2 U3 or U3 T2 nonzero)", None)
    return _certified(_cep_certificate(d._frame, d._tol), _NO_DCEPGI).witness
