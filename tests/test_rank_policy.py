"""The one rank rule behind every index, frame and rank test.

Integer matrices built with a known core-EP structure are checked
against exact ranks of their powers over the rationals (sympy), and
the rank decisions and verdicts of the certificates must not move
under scaling or an orthogonal change of frame.  Frames whose T1 has
singular values spread over geomspace(1, cond) must come out with the
built (t, m), a lower-left block at roundoff and N^m = O, up to
cond(T1) = 1e6.
"""

import numpy as np
import pytest
import sympy

from dualgi import (DualMatrix, DualVector, core_ep_decompose, dcepgi_exists,
                    ddgi_exists, dmpgi_exists, dual_core_ep_decompose,
                    first_order_form_report, index, range_null_report,
                    rank_test, solve_unique_in_range)
from dualgi.errors import HypothesisError, InverseNotExistError
from helpers import (Frame, existing_dual, existing_dual_b3, orthogonal,
                     random_dual, random_dual_vector, random_frame,
                     reducing_dual)

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
    for _ in range(1000):
        a = integer_core_ep(RNG)
        m, t = exact_index_and_t(a)
        a_float = np.array(a.tolist(), dtype=float)
        assert index(a_float) == m, a
        frame = core_ep_decompose(a_float)
        assert (frame.t, frame.m) == (t, m), a


def outcome(call):
    """``call()``, or the name of the HypothesisError or
    InverseNotExistError it raises."""
    try:
        return call()
    except (HypothesisError, InverseNotExistError) as exc:
        return type(exc).__name__


def decisions(ah, bh):
    """The rank decisions, every existence verdict, ``canonical``, the
    five first-order-form verdicts, the rank test, whether the
    range/null characterizations all hold and how solve_unique_in_range
    ends."""
    frame = core_ep_decompose(ah.std)
    ddgi, dmpgi = ddgi_exists(ah), dmpgi_exists(ah)
    conditions = outcome(lambda: {
        k: holds for k, (holds, _) in first_order_form_report(ah)
        .conditions.items()})
    return (frame.t, frame.m,
            dcepgi_exists(ah).exists, ddgi.exists, dmpgi.exists,
            dual_core_ep_decompose(ah).canonical, conditions,
            outcome(lambda: rank_test(ah)),
            outcome(lambda: range_null_report(ah).all_hold),
            outcome(lambda: solve_unique_in_range(ah, bh) is not None))


@pytest.mark.parametrize("build", [existing_dual, random_dual,
                                   existing_dual_b3, reducing_dual])
def test_rank_decisions_scale_and_frame_free(build):
    for _ in range(30):
        f = random_frame(RNG, n_max=7)
        ah = build(RNG, f)
        if ah is None:  # existing_dual_b3 found no B4 for its B3
            continue
        bh = random_dual_vector(RNG, f.n)
        want = decisions(ah, bh)
        for c in (1e-6, 1e-3, 1e3, 1e6):
            assert decisions(DualMatrix(c * ah.std, c * ah.inf), bh) == want
        q = orthogonal(RNG, f.n)
        assert decisions(DualMatrix(q @ ah.std @ q.T, q @ ah.inf @ q.T),
                         DualVector(q @ bh.std, q @ bh.inf)) == want


def assert_graded_frame(n, m, cond, seed):
    """The frame of Frame(n, n/2, m, cond) has the built (t, m), a
    lower-left block of U^T A U within n eps ||A||_2, and N^m = O to
    the same bound."""
    f = Frame(np.random.default_rng(seed), n, n // 2, m, cond=cond)
    frame = core_ep_decompose(f.A)
    assert (frame.t, frame.m, index(f.A)) == (f.t, f.m, f.m)
    bound = n * np.finfo(float).eps * np.linalg.norm(f.A, 2)
    lower_left = (frame.U.T @ f.A @ frame.U)[frame.t:, :frame.t]
    assert np.linalg.norm(lower_left, 2) <= bound
    n_power = np.linalg.matrix_power(frame.N, frame.mp)
    assert np.linalg.norm(n_power, 2) <= bound


@pytest.mark.parametrize("n", [20, 50, 200])
@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
def test_ill_conditioned_frame(n, cond):
    for m in range(1, 5):
        for seed in range(2 if n >= 200 else 5):
            assert_graded_frame(n, m, cond, seed)


def test_ill_conditioned_frame_n400():
    assert_graded_frame(400, 4, 1e6, 0)


def test_frame_where_svd_of_a_power_failed():
    # LAPACK's SVD of the computed A^3 does not converge on this input
    assert_graded_frame(200, 3, 1e2, 1)


def test_dcepgi_accepted_at_cond_1e3():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ah = existing_dual(rng, Frame(rng, 20, 10, 3, cond=1e3))
        assert dcepgi_exists(ah).exists, seed
