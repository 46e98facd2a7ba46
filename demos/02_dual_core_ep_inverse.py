"""The dual core-EP generalized inverse (DCEPGI) and its certificates.

Dual matrices Ahat = A + eps*B (eps**2 = 0) do not always admit a dual
core-EP inverse: existence depends on how B interacts with the
core/nilpotent structure of A.  We build one instance where the
inverse exists and one where it provably does not, and show the
numerical certificate in both cases.
"""

import numpy as np

from dualgi import (DualMatrix, core_ep_residuals, dcepgi, dcepgi_compact,
                    dcepgi_exists, index)

# Construct A = U [[T1, T2], [0, N]] U^T with index 2 directly in a
# rotated frame, so we control which blocks of B are populated.
rng = np.random.default_rng(7)
q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
t1 = np.array([[2.0, 1.0], [0.0, 1.5]])       # invertible core
t2 = np.array([[1.0, 0.0], [0.0, -1.0]])
nil = np.array([[0.0, 1.0], [0.0, 0.0]])      # nilpotent of index 2
mid = np.block([[t1, t2], [np.zeros((2, 2)), nil]])
a = q @ mid @ q.T
print("index(A) =", index(a))

# Existence hinges on the lower-left block of B in that frame.  With
# it zero (B supported on the core rows) the inverse exists:
b_blocks = np.block([[rng.standard_normal((2, 4))], [np.zeros((2, 4))]])
good = DualMatrix(a, q @ b_blocks @ q.T)

cert = dcepgi_exists(good)
print("\nexists:", cert.exists)
print("certificate residuals:", cert.residuals)

x = dcepgi(good)
print("\nThe three defining dual conditions, (Ahat X)^T = Ahat X,")
print("Ahat X^2 = X, X Ahat^(m+1) = Ahat^m, all hold:")
for name, res in core_ep_residuals(good, x, index(a)).items():
    print(f"  {name}: {res:.3e}")

# A second route to the same inverse:
x2 = dcepgi_compact(good)          # Ahat^D Ahat^m (Ahat^m)^+
print("\ncompact product formula agrees:", (x - x2).norm())

# A generic infinitesimal part breaks existence; the certificate says
# which condition failed and by how much.
bad = DualMatrix(a, rng.standard_normal((4, 4)))
cert = dcepgi_exists(bad)
print("\ngeneric B: exists =", cert.exists)
print("certificate residuals:", cert.residuals)
