"""Random dual-matrix factories with engineered index and existence.

Instances are built in an explicit orthogonal frame

    A = U [[T1, T2], [O, N]] U^T

with T1 well conditioned (singular values in [1, 2], or graded over
geomspace(1, cond) with ``Frame(..., cond=...)``) and N a nilpotent
chain of index exactly m, so rank(A^m) = t and Ind(A) = m by
construction.  The infinitesimal part B is assembled from blocks in the
same frame, which makes the existence conditions easy to hit or miss on
purpose:

* ``existing_dual(...)``: B3 = O and B4 = N X - X N.  The commutator
  telescopes inside sum N^(m-i) B4 N^(i-1), so the dual core-EP,
  dual Drazin and first-order-form conditions all hold.
* ``existing_dual_b3(...)``: B3 is nonzero and B4 solves the block
  existence condition (directly at index 1, by least squares above),
  giving instances whose DCEPGI exists while the first-order form
  Ahat^cep = A^cep - eps A^cep B A^cep fails.
* ``random_dual(...)``: unstructured B; existence is then a
  measure-zero event, giving nonexistence witnesses.
* ``reducing_dual(...)``: T2 = O and B = P W P with P = A A^cep, so
  S = P S = S P and all five first-order-form conditions hold.

``dcepgi_bruteforce_oracle`` solves the DCEPGI's defining linear system
by dense least squares, from public calls alone: a check on the
certificates that reads nothing of the frame they rest on.

The ``exact_*`` helpers redo the dual product and the dual core-EP
identities over ``fractions.Fraction`` (object arrays), so small
integer instances can be checked without any tolerance.
"""

import dataclasses
from fractions import Fraction
from functools import reduce

import numpy as np

from dualgi import (DEFAULT_TOL, DualMatrix, DualVector, core_ep_inverse,
                    dcepgi_exists, dual_power, index, s_matrix)
from dualgi.realkernel import _svd_rank


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def well_conditioned(rng, t):
    """t x t matrix with singular values drawn from [1, 2]."""
    if t == 0:
        return np.zeros((0, 0))
    sv = rng.uniform(1.0, 2.0, size=t)
    return orthogonal(rng, t) @ np.diag(sv) @ orthogonal(rng, t)


def graded(rng, t, cond):
    """t x t matrix with singular values geomspace(1, cond, t)."""
    return orthogonal(rng, t) @ np.diag(np.geomspace(1.0, cond, t)) \
        @ orthogonal(rng, t)


def nilpotent_chain(rng, size, m):
    """size x size nilpotent with nilpotency index exactly m (m <= size,
    or m == 1 with N = O for any size including 0)."""
    nb = np.zeros((size, size))
    for i in range(min(m - 1, size - 1)):
        nb[i, i + 1] = rng.uniform(1.0, 2.0)
    return nb


class Frame:
    """A standard part with its construction frame, for placing the
    infinitesimal part block by block.  ``cond`` spreads the singular
    values of T1 over geomspace(1, cond) instead of [1, 2]."""

    def __init__(self, rng, n, t, m, cond=None):
        if t == 0 or t == n or m > n - t:
            raise ValueError(f"need 0 < t < n and m <= n - t, got "
                             f"(n, t, m) = ({n}, {t}, {m})")
        self.n, self.t, self.m = n, t, m
        self.U = orthogonal(rng, n)
        self.T1 = well_conditioned(rng, t) if cond is None \
            else graded(rng, t, cond)
        self.T2 = rng.standard_normal((t, n - t))
        self.N = nilpotent_chain(rng, n - t, m)
        mid = np.block([[self.T1, self.T2],
                        [np.zeros((n - t, t)), self.N]])
        self.A = self.U @ mid @ self.U.T

    def lift(self, b1, b2, b3, b4):
        return self.U @ np.block([[b1, b2], [b3, b4]]) @ self.U.T

    def random_blocks(self, rng):
        t, s = self.t, self.n - self.t
        return (rng.standard_normal((t, t)), rng.standard_normal((t, s)),
                rng.standard_normal((s, t)), rng.standard_normal((s, s)))


def random_frame(rng, n_max=6, m_max=3):
    """Random frame with 2 <= n <= n_max, index 1..m_max, 0 < t < n."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, min(m_max, n - 1) + 1))
    t = int(rng.integers(1, n - m + 1)) if m > 1 else int(rng.integers(1, n))
    return Frame(rng, n, t, m)


def random_dual(rng, frame, scale=1.0):
    """Unstructured infinitesimal part (generic nonexistence)."""
    b1, b2, b3, b4 = frame.random_blocks(rng)
    return DualMatrix(frame.A, scale * frame.lift(b1, b2, b3, b4))


def existing_dual(rng, frame):
    """DCEPGI/DDGI exist and the first-order form holds (B3 = O,
    B4 a commutator with N)."""
    b1, b2, _, _ = frame.random_blocks(rng)
    s = frame.n - frame.t
    x = rng.standard_normal((s, s))
    b4 = frame.N @ x - x @ frame.N
    return DualMatrix(frame.A, frame.lift(b1, b2, np.zeros((s, frame.t)), b4))


def reducing_dual(rng, frame):
    """DCEPGI exists and S satisfies both S = P S and S = S P, with P
    = A A^cep the projector onto R(A^m).

    The standard part drops T2, so R(A^m) reduces A, and B = P W P is
    W's leading block in the frame.  S then lives in that block too.
    """
    t, s = frame.t, frame.n - frame.t
    a = frame.lift(frame.T1, np.zeros((t, s)), np.zeros((s, t)), frame.N)
    b = frame.lift(rng.standard_normal((t, t)), np.zeros((t, s)),
                   np.zeros((s, t)), np.zeros((s, s)))
    return DualMatrix(a, b)


# reducing_dual draws, as (seed, (n, t, m)), on which a pseudo-inverse of
# the computed A^m with NumPy's default cutoff kept roundoff singular
# values and so denied the DDGI and the power_projector condition
# (residuals 1e-6 to 8e-5 against a tolerance of 1e-10)
REDUCING_CUTOFF_CASES = ((30, (5, 2, 3)), (525, (6, 1, 2)), (120, (6, 3, 3)))


def seeded_reducing_dual(seed, shape):
    rng = np.random.default_rng(seed)
    return reducing_dual(rng, Frame(rng, *shape))


def reference_staircase(a):
    """(U, t, m) of ``realkernel._staircase`` with no early stop: every
    block's SVD is taken, the last, full-rank one included, and the
    steps stop on that SVD alone.  The reference that the staircase's
    shortcut, which skips that last SVD where the step before proves
    the block nonsingular, must match bit for bit."""
    n = a.shape[0]
    u, blk, t, m, sigma = np.eye(n), a.T, n, 0, 0.0
    while t:
        r, sig, (_, _, vt) = _svd_rank(blk, floor=n * sigma, uv=True)
        sigma = max(sigma, sig)
        if r == t:
            break
        u[:, :t] = u[:, :t].dot(vt.T)
        blk, t, m = vt[:r].dot(blk).dot(vt[:r].T), r, m + 1
    return u, t, m


def stacked_rank_gap(ah, t, m, tol=DEFAULT_TOL):
    """rank([[S, A^m], [A^m, O]]) - 2 t from one SVD of that 2n x 2n
    matrix, cut at tol * max(its sigma_max, sigma_max(A)^m), for
    Ahat^m = A^m + eps S: the stacked reference that the DDGI verdict
    (the defect block D of S is O) is compared against."""
    ahm = dual_power(ah, m)
    zero = np.zeros_like(ahm.std)
    sv = np.linalg.svd(np.block([[ahm.inf, ahm.std], [ahm.std, zero]]),
                       compute_uv=False)
    cut = tol * max(sv[0], np.linalg.norm(ah.std, 2) ** m)
    return int(np.sum(sv > cut)) - 2 * t


def stacked(mh):
    """Real 2n x 2n matrix [[M, O], [M', M]] whose column space encodes
    the dual range of mh = M + eps M' (coordinates [std; inf])."""
    m, m0 = mh.std, mh.inf
    return np.block([[m, np.zeros_like(m)], [m0, m]])


def column_membership_residual(gen, space):
    """Largest least-squares residual of the columns of ``gen`` against
    the column space of ``space``, over ||gen||: the least-squares
    reference for a dual-range membership check."""
    sol, *_ = np.linalg.lstsq(space, gen, rcond=None)
    miss = np.linalg.norm(space @ sol - gen, axis=0).max(initial=0.0)
    size = np.linalg.norm(gen)
    return miss / size if size else miss


def _t_tilde(frame):
    acc = np.zeros_like(frame.T2)
    t1_pow = np.eye(frame.t)
    for i in range(frame.m):
        acc += t1_pow @ frame.T2 @ np.linalg.matrix_power(frame.N,
                                                          frame.m - 1 - i)
        t1_pow = t1_pow @ frame.T1
    return acc


def existing_dual_b3(rng, frame):
    """DCEPGI exists with B3 nonzero (first-order form fails whenever
    sum N^(m-i) B3 T1^(i-1) is nonzero, which is generic).

    B4 is chosen so that the block existence condition
    S4 = S3 T1^(-m) Ttilde holds: directly at index 1, by a vectorized
    least-squares solve of the telescoping sum at higher index.
    Returns None when the least-squares system is inconsistent for the
    drawn B3 (the caller should redraw).
    """
    t, s, m = frame.t, frame.n - frame.t, frame.m
    b1, b2, b3, _ = frame.random_blocks(rng)
    t1_inv = np.linalg.inv(frame.T1)
    if m == 1:
        b4 = b3 @ t1_inv @ frame.T2
    else:
        tt = _t_tilde(frame)
        target = np.zeros((s, s))
        n_pow = [np.linalg.matrix_power(frame.N, k) for k in range(m)]
        t1_inv_pow = [np.linalg.matrix_power(t1_inv, k) for k in range(m + 2)]
        for i in range(1, m + 1):
            f = np.zeros_like(frame.T2)
            t1_pow = np.eye(t)
            for j in range(i - 1):
                f += t1_pow @ frame.T2 @ n_pow[i - 2 - j]
                t1_pow = t1_pow @ frame.T1
            target += (n_pow[m - i] @ b3 @ t1_inv_pow[m + 1 - i] @ tt
                       - n_pow[m - i] @ b3 @ f)
        # solve sum N^(m-i) B4 N^(i-1) = target for B4 (column-major vec)
        op = np.zeros((s * s, s * s))
        for i in range(1, m + 1):
            op += np.kron(n_pow[i - 1].T, n_pow[m - i])
        sol, *_ = np.linalg.lstsq(op, target.reshape(-1, order="F"),
                                  rcond=None)
        if np.linalg.norm(op @ sol - target.reshape(-1, order="F")) > 1e-10:
            return None
        b4 = sol.reshape((s, s), order="F")
    ah = DualMatrix(frame.A, frame.lift(b1, b2, b3, b4))
    if not dcepgi_exists(ah).exists:
        return None
    return ah


def mp_existing_dual(rng, frame):
    """DMPGI exists: B = A W + V A."""
    n = frame.n
    w = rng.standard_normal((n, n))
    v = rng.standard_normal((n, n))
    return DualMatrix(frame.A, frame.A @ w + v @ frame.A)


def _vec(x):
    return x.reshape(-1, order="F")


def dcepgi_bruteforce_oracle(ah, tol=DEFAULT_TOL):
    """Independent DCEPGI oracle: solve the defining linear system for
    the infinitesimal part R by vectorized least squares.

    The three dual conditions reduce to linear equations in R once the
    standard part is pinned to the real core-EP inverse X:

        (A R + B X)^T = A R + B X
        A X R + A R X - R = -B X^2
        R A^(m+1) = S - X A S - X B A^m

    Returns X + eps R when the least-squares backward error
    ||M r - c|| / (||M|| ||r|| + ||c||) of that system M r = c, each
    block of equations over its matrix's norm, is at or below
    tolerance, else None.  Test-scale only (dense n^2 unknowns).
    """
    a, b = ah.std, ah.inf
    n = a.shape[0]
    m = max(index(a), 1)
    x = core_ep_inverse(a)
    s, am = s_matrix(a, b, m), np.linalg.matrix_power(a, m)
    eye_n = np.eye(n)
    eye_n2 = np.eye(n * n)

    # vec(X)[i + j n] = X[i, j]: this row order maps vec(X) to vec(X^T)
    m1 = np.kron(eye_n, a)
    m1 -= m1[np.arange(n * n).reshape(n, n).T.ravel()]
    rhs1 = _vec((b @ x).T - b @ x)
    m2 = np.kron(eye_n, a @ x) + np.kron(x.T, a) - eye_n2
    rhs2 = _vec(-b @ x @ x)
    m3 = np.kron((a @ am).T, eye_n)
    rhs3 = _vec(s - x @ a @ s - x @ b @ am)

    sizes = [np.linalg.norm(mk) or 1.0 for mk in (m1, m2, m3)]
    big = np.vstack([m1 / sizes[0], m2 / sizes[1], m3 / sizes[2]])
    rhs = np.concatenate([rhs1 / sizes[0], rhs2 / sizes[1], rhs3 / sizes[2]])
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    miss = np.linalg.norm(big @ sol - rhs)
    scale = np.linalg.norm(big) * np.linalg.norm(sol) + np.linalg.norm(rhs)
    if (miss / scale if scale else miss) > tol:
        return None
    return DualMatrix(x, sol.reshape((n, n), order="F"))


def random_dual_vector(rng, n):
    return DualVector(rng.standard_normal(n), rng.standard_normal(n))


def fractions(rows):
    """Object array of Fractions from rows of ints or strings like "5/18"."""
    return np.array([[Fraction(x) for x in row] for row in rows],
                    dtype=object)


def exact_mul(ph, qh):
    """Dual product of (std, inf) pairs of Fraction arrays."""
    return ph[0] @ qh[0], ph[0] @ qh[1] + ph[1] @ qh[0]


def exact_power(ah, k):
    """k-th dual power (k >= 1) of a (std, inf) pair."""
    return reduce(exact_mul, [ah] * k)


def exact_core_ep_residuals(ah, xh, m):
    """Largest absolute entry of each dual core-EP identity residual
    (AX)^T = AX, AX^2 = X, XA^(m+1) = A^m, computed exactly.  All three
    are 0 exactly when xh is the dual core-EP inverse of ah at index m.
    """
    def diff(ph, qh):
        return max(abs(v) for part in (ph[0] - qh[0], ph[1] - qh[1])
                   for v in part.flat)

    ax = exact_mul(ah, xh)
    return {
        "cep_symmetry": diff((ax[0].T, ax[1].T), ax),
        "cep_outer": diff(exact_mul(ax, xh), xh),
        "cep_power": diff(exact_mul(xh, exact_power(ah, m + 1)),
                          exact_power(ah, m)),
    }


def bits(x):
    """``x`` as nested tuples, arrays and floats as their bytes, so that
    == is bitwise equality; a dataclass by the fields its == compares."""
    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            bits(getattr(x, f.name)) for f in dataclasses.fields(x)
            if f.compare)
    if isinstance(x, dict):
        return tuple((key, bits(value)) for key, value in x.items())
    if isinstance(x, (tuple, list)):
        return tuple(bits(value) for value in x)
    if isinstance(x, float):
        return x.hex()
    return repr(x)
