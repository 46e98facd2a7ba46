"""Dual core-EP decomposition and the core-nilpotent split.

When the DCEPGI exists, Ahat is similar under a *dual unitary* matrix
Uhat = U + eps*U0 (Uhat^T Uhat = I exactly over the dual numbers) to a
block triangular form [[T1hat, T2hat], [0, Nhat]] whose leading block
has an invertible standard part.  The decomposition yields the inverse
for free and an additive split of Ahat into a "core" part (the piece
the inverse actually inverts) and a dual-nilpotent remainder.
"""

import numpy as np

from dualgi import (DualMatrix, dcepgi, dcepgi_from_decomposition,
                    dual_cn_split, dual_core_ep_decompose, dual_power)

rng = np.random.default_rng(11)
q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
t1 = np.diag([2.0, 1.5, 1.0]) + np.triu(rng.standard_normal((3, 3)), 1)
t2 = rng.standard_normal((3, 2))
nil = np.array([[0.0, 2.0], [0.0, 0.0]])
a = q @ np.block([[t1, t2], [np.zeros((2, 3)), nil]]) @ q.T
b = q @ np.block([[rng.standard_normal((3, 5))],
                  [np.zeros((2, 5))]]) @ q.T
ah = DualMatrix(a, b)

d = dual_core_ep_decompose(ah)
print("t =", d.t, " m =", d.m, " canonical =", d.canonical)

uh = d.U_hat
print("\nUhat is dual unitary: (Uhat^T Uhat - I).norm() =",
      (uh.T @ uh - DualMatrix.eye(5)).norm())
print("reconstruction: (Uhat M Uhat^T - Ahat).norm() =",
      (d.reconstruct() - ah).norm())

print("\nBlocks of the middle factor:")
print("  T1hat std =\n", d.T1_hat.std)
print("  Nhat std is nilpotent:",
      np.linalg.norm(np.linalg.matrix_power(d.N_hat.std, d.m)))
print("  Nhat is *dual* nilpotent: (Nhat^(m+1)).norm() =",
      dual_power(d.N_hat, d.m + 1).norm())

# The inverse drops out of the decomposition: invert T1hat, zero the rest.
x = dcepgi_from_decomposition(d)
print("\ninverse from decomposition vs direct dcepgi:",
      (x - dcepgi(ah)).norm())

# Additive core-nilpotent split, the decomposition's block split:
# core = Uhat [[T1hat, T2hat], [0, 0]] Uhat^T = Ahat X Ahat.
split = dual_cn_split(ah)
print("\ncore + nilpotent reconstructs Ahat:",
      (split.core + split.nilpotent - ah).norm())
print("core equals Ahat X Ahat:", (split.core - ah @ x @ ah).norm())
print("nilpotent part has zero dual power m+1:",
      dual_power(split.nilpotent, d.m + 1).norm())
