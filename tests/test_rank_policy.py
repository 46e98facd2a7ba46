"""The one rank rule behind every index, frame and rank test.

Integer matrices built with a known core-EP structure are checked
against exact ranks of their powers over the rationals (sympy), and
the rank decisions of the certificates must not move under scaling or
an orthogonal change of frame.
"""

import numpy as np
import pytest
import sympy

from dualgi import (DualMatrix, core_ep_decompose, ddgi_exists, dmpgi_exists,
                    index)
from helpers import existing_dual, orthogonal, random_dual, random_frame

RNG = np.random.default_rng(20261018)


def integer_matrix(rng, rows, cols):
    return sympy.Matrix(rng.integers(-2, 3, size=(rows, cols)))


def unimodular(rng, n):
    """L U with L unit lower and U unit upper triangular: det 1, so the
    inverse is an integer matrix too."""
    low = integer_matrix(rng, n, n).lower_triangular(-1) + sympy.eye(n)
    up = integer_matrix(rng, n, n).upper_triangular(1) + sympy.eye(n)
    return low * up


def integer_core_ep(rng):
    """P [[T1, T2], [O, N]] P^-1 with T1 invertible, N strictly upper
    triangular (so nilpotent) and P unimodular, all over the integers."""
    n = int(rng.integers(1, 6))
    t = int(rng.integers(0, n + 1))
    t1 = integer_matrix(rng, t, t)
    while t and t1.det() == 0:
        t1 = integer_matrix(rng, t, t)
    nil = integer_matrix(rng, n - t, n - t).upper_triangular(1)
    mid = sympy.BlockMatrix([[t1, integer_matrix(rng, t, n - t)],
                             [sympy.zeros(n - t, t), nil]]).as_explicit()
    p = unimodular(rng, n)
    return p * mid * p.inv()


def exact_index_and_t(a):
    """Ind(A) and rank(A^max(m, 1)) from exact ranks of the powers."""
    ranks = [a.shape[0]]
    power = sympy.eye(a.shape[0])
    while True:
        power = power * a
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2]:
            m = len(ranks) - 2
            return m, ranks[max(m, 1)]


def test_exact_integer_oracle():
    for _ in range(100):
        a = integer_core_ep(RNG)
        m, t = exact_index_and_t(a)
        a_float = np.array(a.tolist(), dtype=float)
        assert index(a_float) == m, a
        frame = core_ep_decompose(a_float)
        assert (frame.t, frame.m) == (t, m), a


def rank_decisions(ah):
    frame = core_ep_decompose(ah.std)
    return (frame.t, frame.m, ddgi_exists(ah).residuals["rank_gap"],
            dmpgi_exists(ah).residuals["rank_gap"])


@pytest.mark.parametrize("build", [existing_dual, random_dual])
def test_rank_decisions_scale_and_frame_free(build):
    for _ in range(30):
        f = random_frame(RNG, n_max=7)
        ah = build(RNG, f)
        want = rank_decisions(ah)
        for c in (1e-6, 1e-3, 1e3, 1e6):
            assert rank_decisions(DualMatrix(c * ah.std, c * ah.inf)) == want
        q = orthogonal(RNG, f.n)
        assert rank_decisions(DualMatrix(q @ ah.std @ q.T,
                                         q @ ah.inf @ q.T)) == want
