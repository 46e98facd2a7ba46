"""Checks made apart from the program.

Dual matrices are (std, inf) pairs of real arrays, multiplied with the
ring law (A + eps B)(C + eps D) = AC + eps (AD + BC).  Every check
returns a relative residual: the dual norm (max of the Frobenius norms
of the two parts) of the difference, over 1 plus a bound on the size of
the terms that produced it.  A check passes at or below ``TOL``; the
program decides at 1e-10, so honest roundoff sits far below it.
"""

import numpy as np

TOL = 1e-8

#: verdicts of the least-squares oracles: exists at or below EXISTS,
#: does not exist at or above ABSENT; in between is undecided.
EXISTS = 1e-8
ABSENT = 1e-4


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def require_small(residual, what):
    require(residual <= TOL, f"{what}: residual {residual:.3e} > {TOL:.0e}")


def pair(dm):
    """(std, inf) of a program DualMatrix or DualVector."""
    return np.asarray(dm.std, dtype=float), np.asarray(dm.inf, dtype=float)


def mul(p, q):
    return p[0] @ q[0], p[0] @ q[1] + p[1] @ q[0]


def sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def transpose(p):
    return p[0].T, p[1].T


def norm(p):
    return max(np.linalg.norm(p[0]), np.linalg.norm(p[1]))


def power(p, k):
    n = p[0].shape[0]
    out = (np.eye(n), np.zeros((n, n)))
    for _ in range(k):
        out = mul(out, p)
    return out


def rel(diff, scale):
    return norm(diff) / (1.0 + scale)


def eye(n):
    return np.eye(n), np.zeros((n, n))


# ---------------------------------------------------------------------------
# defining identities
# ---------------------------------------------------------------------------

def core_ep_residual(ah, xh, m, powers):
    """Max residual of (AX)^T = AX, AX^2 = X, X A^(m+1) = A^m.
    ``powers[k]`` is Ahat^k."""
    na, nx = norm(ah), norm(xh)
    ax = mul(ah, xh)
    return max(
        rel(sub(transpose(ax), ax), na * nx),
        rel(sub(mul(ax, xh), xh), na * nx * nx + nx),
        rel(sub(mul(xh, powers[m + 1]), powers[m]),
            nx * norm(powers[m + 1]) + norm(powers[m])))


def drazin_residual(ah, xh, m, powers):
    """Max residual of X A^(m+1) = A^m, X A X = X, A X = X A."""
    na, nx = norm(ah), norm(xh)
    return max(
        rel(sub(mul(xh, powers[m + 1]), powers[m]),
            nx * norm(powers[m + 1]) + norm(powers[m])),
        rel(sub(mul(mul(xh, ah), xh), xh), na * nx * nx + nx),
        rel(sub(mul(ah, xh), mul(xh, ah)), na * nx))


def closeness(got, want):
    return rel(sub(got, want), norm(want))


def first_order_cep(x, b):
    """X - eps X B X: the DCEPGI when the first-order form holds."""
    return x, -x @ b @ x


def dual_orthogonality_residual(uh):
    """Uhat^T Uhat = I, both parts."""
    n = uh[0].shape[0]
    return rel(sub(mul(transpose(uh), uh), eye(n)), norm(uh) ** 2)


def reconstruction_residual(uh, middle, ah):
    """Uhat M Uhat^T = Ahat."""
    got = mul(mul(uh, middle), transpose(uh))
    return rel(sub(got, ah), norm(uh) ** 2 * norm(middle) + norm(ah))


def block_upper(t1h, t2h, nh):
    """[[T1hat, T2hat], [O, Nhat]] from (std, inf) blocks."""
    t, s = t1h[0].shape[0], nh[0].shape[0]
    return tuple(np.block([[t1h[k], t2h[k]], [np.zeros((s, t)), nh[k]]])
                 for k in (0, 1))


def mat_vec(ph, vh):
    return ph[0] @ vh[0], ph[0] @ vh[1] + ph[1] @ vh[0]


def vector_closeness(got, want, scale):
    return max(np.linalg.norm(got[0] - want[0]),
               np.linalg.norm(got[1] - want[1])) / (1.0 + scale)


# ---------------------------------------------------------------------------
# least-squares existence oracles (n^2 unknowns: test sizes only)
# ---------------------------------------------------------------------------

def _transpose_rows(n):
    """Row order that maps vec(X) to vec(X^T) (column-major vec)."""
    k = np.arange(n * n)
    return (k % n) * n + k // n


def _vec(x):
    return x.reshape(-1, order="F")


def inverse_oracle(kind, a, b, xs, m):
    """Relative least-squares residual of the defining dual identities,
    linear in the unknown infinitesimal part R once the standard part
    is pinned to the real inverse ``xs`` (core-EP, Drazin or
    Moore-Penrose, for kind "cep", "ddgi" or "dmpgi").  The dual
    inverse exists exactly when the system is consistent."""
    n = a.shape[0]
    eye_n, eye_n2 = np.eye(n), np.eye(n * n)
    tr = _transpose_rows(n)
    ahat = (a, b)
    p_m, p_m1 = power(ahat, m), power(ahat, m + 1)
    left_a = np.kron(eye_n, a)             # vec(A R)
    right_a = np.kron(a.T, eye_n)          # vec(R A)
    # X A X = X:   xs A R + R A xs - R = -xs B xs
    outer = (np.kron(eye_n, xs @ a) + np.kron((a @ xs).T, eye_n) - eye_n2,
             -xs @ b @ xs)
    if kind == "cep":
        rows = [
            # (A R + B xs)^T = A R + B xs
            (left_a - left_a[tr], (b @ xs).T - b @ xs),
            # A xs R + A R xs - R = -B xs xs
            (np.kron(eye_n, a @ xs) + np.kron(xs.T, a) - eye_n2,
             -b @ xs @ xs),
            # R A^(m+1) = S_m - xs S_(m+1)
            (np.kron(p_m1[0].T, eye_n), p_m[1] - xs @ p_m1[1]),
        ]
    elif kind == "ddgi":
        rows = [
            (np.kron(p_m1[0].T, eye_n), p_m[1] - xs @ p_m1[1]),
            outer,
            # A R + B xs = xs B + R A
            (left_a - right_a, xs @ b - b @ xs),
        ]
    elif kind == "dmpgi":
        rows = [
            # A R A = B - A xs B - B xs A
            (np.kron(a.T, a), b - a @ xs @ b - b @ xs @ a),
            outer,
            (left_a - left_a[tr], (b @ xs).T - b @ xs),
            # (R A + xs B)^T = R A + xs B
            (right_a - right_a[tr], (xs @ b).T - xs @ b),
        ]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    big = np.vstack([op for op, _ in rows])
    rhs = np.concatenate([_vec(r) for _, r in rows])
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    return float(np.linalg.norm(big @ sol - rhs) / (1.0 + np.linalg.norm(rhs)))
