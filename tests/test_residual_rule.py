"""The one residual rule: a residual over the size of its identity's terms.

A residual is the norm of an identity's difference divided by the size
of the terms it is a difference of (``inverses._rel``), so scaling A
and B by one constant moves no verdict.  The DCEPGI and DDGI residuals
divide by sum_i ||A^(m-i) B A^(i-1)||_F, the size of the terms of S,
not by ||S||: where those terms cancel, S is pure roundoff and ||D||
over ||S|| is of order one.
"""

import numpy as np
import pytest

from dualgi import (DEFAULT_TOL, DualMatrix, DualVector, dcepgi,
                    dcepgi_bruteforce_oracle, dcepgi_exists, ddgi_exists,
                    order_law_check, solve_general, solve_unique_in_range)
from dualgi.inverses import _dmpgi_apply, _Frame, _rel
from helpers import (Frame, existing_dual, nilpotent_chain, orthogonal,
                     random_dual, random_dual_vector, random_frame)

RNG = np.random.default_rng(20261019)


def scaled(ah, c):
    return DualMatrix(c * ah.std, c * ah.inf)


def test_rel_is_a_plain_ratio():
    assert _rel(3.0, 4.0) == 0.75
    assert _rel(1e-20, 0.125) == 8e-20
    assert _rel(2.0, 0.0) == 2.0


def test_scaled_random_dual_has_no_dcepgi():
    # rng 7: 1 + ||S|| made the random_dual input look compatible at
    # c = 1e-4 and rejected the existing_dual input at c = 1e4
    rng = np.random.default_rng(7)
    f = Frame(rng, 6, 2, 3)
    no, yes = random_dual(rng, f), existing_dual(rng, f)
    for c in (1e-4, 1.0, 1e4):
        cert = dcepgi_exists(scaled(no, c))
        assert not cert.exists, c
        assert cert.residuals["core_ep_projector"] == pytest.approx(0.1957,
                                                                    abs=1e-4)
        cert = dcepgi_exists(scaled(yes, c))
        assert cert.exists, c
        assert cert.residuals["core_ep_projector"] < 1e-14


def commutator_input(rng, n, m):
    """Nilpotent A = U N U^T with B = U (N X - X N) U^T: S = N^m X - X N^m
    is O, its terms are not."""
    nb = nilpotent_chain(rng, n, m)
    u, x = orthogonal(rng, n), rng.standard_normal((n, n))
    return DualMatrix(u @ nb @ u.T, u @ (nb @ x - x @ nb) @ u.T)


def split_input(rng, n, m):
    """T2 = O and B = N X - X N in the N block only: S = O again."""
    f = Frame(rng, n, n // 2, m)
    t, s = f.t, n - f.t
    x = rng.standard_normal((s, s))
    zero = np.zeros
    return DualMatrix(f.lift(f.T1, zero((t, s)), zero((s, t)), f.N),
                      f.lift(zero((t, t)), zero((t, s)), zero((s, t)),
                             f.N @ x - x @ f.N))


@pytest.mark.parametrize("build", [commutator_input, split_input])
def test_cancelling_terms_of_s_accepted(build):
    for _ in range(20):
        n = int(RNG.integers(4, 21))
        m = int(RNG.integers(2, min(4, n - n // 2) + 1))
        ah = build(RNG, n, m)
        for certify in (dcepgi_exists, ddgi_exists):
            cert = certify(ah)
            assert cert.exists, (n, m, cert.residuals)


def test_oracle_verdict_scale_free():
    # its three blocks of equations have different degrees in A and B
    for k in range(30):
        exists = k % 2 == 0
        ah = (existing_dual if exists else random_dual)(RNG, random_frame(RNG))
        for c in (1e-6, 1e-3, 1e3, 1e6):
            got = dcepgi_bruteforce_oracle(scaled(ah, c)) is not None
            assert got == exists, (k, c)


def test_unique_in_range_at_small_scale():
    for _ in range(30):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        bhat = random_dual_vector(RNG, f.n)
        want = solve_unique_in_range(ah, bhat)
        got = solve_unique_in_range(scaled(ah, 1e-6), bhat)
        got = DualVector(1e-6 * got.std, 1e-6 * got.inf)
        assert (got - want).norm() <= 1e-8 * want.norm()


def test_unique_in_range_zero_solution():
    # bhat in N(Ahat^cep): xhat is O exactly and roundoff as computed,
    # so neither check may divide by ||xhat||
    for _ in range(20):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        x, yhat = dcepgi(ah), random_dual_vector(RNG, f.n)
        bhat = yhat - ah @ (x @ yhat)
        for c in (1e-6, 1.0, 1e6):
            xhat = solve_unique_in_range(scaled(ah, c), bhat)
            assert xhat.norm() <= 1e-10 * x.norm() / c * bhat.norm(), c


def test_general_rhs_in_null_space_of_power_transpose():
    # bhat in N((Ahat^m)^T): the surrogate right-hand side is O exactly
    # and roundoff as computed, so the residual may not divide by it alone
    for _ in range(20):
        f = random_frame(RNG)
        df = _Frame(existing_dual(RNG, f), "test")
        yhat = random_dual_vector(RNG, f.n)
        bhat = yhat - df.ahm @ _dmpgi_apply(df.ahm, df.blocks.am_pinv, yhat)
        for c in (1e-6, 1.0, 1e6):
            sol = solve_general(scaled(df.ah, c), bhat)
            assert sol.residual <= DEFAULT_TOL, (c, sol.residual)


def test_commute_condition_scale_free():
    f = random_frame(RNG)
    ah = existing_dual(RNG, f)
    commuting = DualMatrix(ah.std @ ah.std, ah.inf @ ah.std + ah.std @ ah.inf)
    other = existing_dual(RNG, Frame(RNG, f.n, f.t, f.m))
    for c in (1e-6, 1.0, 1e6):
        for bh, holds in ((commuting, True), (other, False)):
            report = order_law_check(scaled(ah, c), scaled(bh, c), tol=1e-8)
            assert report.sufficient_conditions["commute"][0] == holds, c
