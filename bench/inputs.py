"""Seeded inputs for the dualgi benchmark.

Every instance is built in an explicit orthogonal frame

    A = U [[T1, T2], [O, N]] U^T

with T1 well conditioned (singular values in [1, 2]), T2 Gaussian and N
a nilpotent chain of index exactly m, so rank(A^m) = t and Ind(A) = m by
construction.  The infinitesimal part B is placed block by block in the
same frame, which fixes in advance whether each dual inverse exists.
The constructions follow the acceptance suite's generators; they are
rebuilt here so that the benchmark neither imports the tests nor asks
the program which instances to keep.

All arrays are plain float64 NumPy arrays; the workloads wrap them in
the program's types at the boundary.
"""

import copy

import numpy as np


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def well_conditioned(rng, t):
    """t x t matrix with singular values drawn from [1, 2]."""
    sv = rng.uniform(1.0, 2.0, size=t)
    return orthogonal(rng, t) @ np.diag(sv) @ orthogonal(rng, t)


def nilpotent_chain(rng, size, m):
    """size x size nilpotent matrix of nilpotency index exactly m."""
    nb = np.zeros((size, size))
    for i in range(m - 1):
        nb[i, i + 1] = rng.uniform(1.0, 2.0)
    return nb


class Frame:
    """A standard part A = U [[T1, T2], [O, N]] U^T with its frame, and
    the real inverses that the frame gives in closed form."""

    def __init__(self, rng, n, t, m):
        if not (0 < t < n and 1 <= m <= n - t):
            raise ValueError(f"need 0 < t < n and 1 <= m <= n - t, got "
                             f"(n, t, m) = ({n}, {t}, {m})")
        self.n, self.t, self.m = n, t, m
        self.U = orthogonal(rng, n)
        self.T1 = well_conditioned(rng, t)
        self.T2 = rng.standard_normal((t, n - t))
        self.N = nilpotent_chain(rng, n - t, m)

    @property
    def A(self):
        return self.lift(self.T1, self.T2, np.zeros((self.n - self.t, self.t)),
                         self.N)

    def without_t2(self):
        """The same frame with T2 = O, so that R(A^m) reduces A."""
        other = copy.copy(self)
        other.T2 = np.zeros_like(self.T2)
        return other

    def lift(self, b1, b2, b3, b4):
        return self.U @ np.block([[b1, b2], [b3, b4]]) @ self.U.T

    def random_blocks(self, rng):
        t, s = self.t, self.n - self.t
        return (rng.standard_normal((t, t)), rng.standard_normal((t, s)),
                rng.standard_normal((s, t)), rng.standard_normal((s, s)))

    def t_tilde(self):
        """Upper-right block of A^m in the frame:
        sum_{i=0..m-1} T1^i T2 N^(m-1-i)."""
        acc = np.zeros_like(self.T2)
        for i in range(self.m):
            acc += (np.linalg.matrix_power(self.T1, i) @ self.T2
                    @ np.linalg.matrix_power(self.N, self.m - 1 - i))
        return acc

    def core_ep_inverse(self):
        """A^cep = U [[T1^-1, O], [O, O]] U^T."""
        t, s = self.t, self.n - self.t
        return self.lift(np.linalg.inv(self.T1), np.zeros((t, s)),
                         np.zeros((s, t)), np.zeros((s, s)))

    def drazin(self):
        """A^D = U [[T1^-1, T1^-(m+1) Ttilde], [O, O]] U^T."""
        t, s = self.t, self.n - self.t
        t1_inv = np.linalg.inv(self.T1)
        top_right = np.linalg.matrix_power(t1_inv, self.m + 1) @ self.t_tilde()
        return self.lift(t1_inv, top_right, np.zeros((s, t)),
                         np.zeros((s, s)))

    def s3(self, b3):
        """Lower-left block of S = sum A^(m-i) B A^(i-1) in the frame:
        sum_{i=1..m} N^(m-i) B3 T1^(i-1).  The first-order form holds
        exactly when it is O (given that the DCEPGI exists)."""
        return sum(np.linalg.matrix_power(self.N, self.m - i) @ b3
                   @ np.linalg.matrix_power(self.T1, i - 1)
                   for i in range(1, self.m + 1))


# ---------------------------------------------------------------------------
# constructions: each returns (frame, A, B)
# ---------------------------------------------------------------------------

def existing_dual(rng, f):
    """B3 = O and B4 = N X - X N: the DCEPGI and the DDGI exist, the
    first-order form holds, and Ahat^cep = X - eps X B X with X the
    core-EP inverse of A."""
    b1, b2, _, _ = f.random_blocks(rng)
    s = f.n - f.t
    x = rng.standard_normal((s, s))
    return f, f.A, f.lift(b1, b2, np.zeros((s, f.t)), f.N @ x - x @ f.N)


def existing_dual_b3(rng, f):
    """The DCEPGI and the DDGI exist with B3 nonzero, so the first-order
    form fails.

    B3 = U3 T1 - N U3 for a random U3, and B4 = U3 T2 + N X - X N.
    Then Ahat is dual-orthogonally similar, through U + eps U [[O, -U3^T],
    [U3, O]], to a block upper-triangular dual matrix whose nilpotent
    block N + eps (N X - X N) has dual index m; that is the block
    existence condition, met in closed form instead of by least squares.
    """
    b1, b2, _, _ = f.random_blocks(rng)
    s = f.n - f.t
    while True:
        u3 = rng.standard_normal((s, f.t))
        b3 = u3 @ f.T1 - f.N @ u3
        # keep the first-order form clearly false
        if np.linalg.norm(f.s3(b3)) > 1e-3 * (1.0 + np.linalg.norm(b3)):
            break
    x = rng.standard_normal((s, s))
    b4 = u3 @ f.T2 + f.N @ x - x @ f.N
    return f, f.A, f.lift(b1, b2, b3, b4)


def reducing_dual(rng, f):
    """T2 = O and B = P W P with P = A A^cep: the DCEPGI and DDGI exist
    and all five first-order-form conditions hold."""
    g = f.without_t2()
    t, s = g.t, g.n - g.t
    b = g.lift(rng.standard_normal((t, t)), np.zeros((t, s)),
               np.zeros((s, t)), np.zeros((s, s)))
    return g, g.A, b


def mp_existing_dual(rng, f):
    """B = A W + V A: the dual Moore-Penrose inverse exists."""
    n = f.n
    a = f.A
    return f, a, a @ rng.standard_normal((n, n)) + rng.standard_normal((n, n)) @ a


def random_dual(rng, f):
    """Unstructured B: no dual inverse exists, except on a null set."""
    return f, f.A, f.lift(*f.random_blocks(rng))


def small_shapes():
    """Every (n, t, m) with 2 <= n <= 6, index 1..3 and 0 < t, t + m <= n:
    31 shapes."""
    return [(n, t, m) for n in range(2, 7) for m in range(1, 4)
            for t in range(1, n) if m <= n - t]


def workload_rng(name, seed):
    """Independent stream per (workload, seed)."""
    key = sum(ord(c) << (8 * i) for i, c in enumerate(name)) % (1 << 63)
    return np.random.default_rng([key, seed % (1 << 64)])
