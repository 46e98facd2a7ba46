"""The one residual rule: a residual over the size of its identity's terms.

A residual is the norm of an identity's difference divided by the size
of the terms it is a difference of (``inverses._rel``), so scaling A
and B by one constant moves no verdict.  The DCEPGI and DDGI share one
residual, ||D|| over sum_i ||A^(m-i) B A^(i-1)||_F, the size of the
terms of S, not over ||S||: where those terms cancel, S is pure
roundoff and ||D|| over ||S|| is of order one.
"""

import numpy as np
import pytest

from dualgi import (DEFAULT_TOL, DualMatrix, DualVector, dcepgi,
                    dcepgi_exists, ddgi_exists, first_order_form_report,
                    order_law_check, range_null_report, solve_general,
                    solve_unique_in_range)
from dualgi.inverses import _Frame, _rel
from helpers import (Frame, dcepgi_bruteforce_oracle, existing_dual,
                     existing_dual_b3, nilpotent_chain, orthogonal,
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


def off_range_input(rng, n, m):
    """B = U [[O, B2], [O, O]] U^T vanishes on R(A^m) and maps into it:
    D = O, A^cep B A^cep = O and the first-order form holds."""
    f = Frame(rng, n, n // 2, m)
    t, s = f.t, n - f.t
    zero = np.zeros
    return DualMatrix(f.lift(f.T1, f.T2, zero((s, t)), f.N),
                      f.lift(zero((t, t)), rng.standard_normal((t, s)),
                             zero((s, t)), zero((s, s))))


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
    # and roundoff as computed, so the residual may not divide by it alone.
    # Ahat^m (Ahat^m)^+ is Uhat1 Uhat1^T, the dual orthogonal projector
    # onto the dual range of Ahat^m
    for _ in range(20):
        f = random_frame(RNG)
        df = _Frame(existing_dual(RNG, f))
        yhat = random_dual_vector(RNG, f.n)
        bhat = yhat - df.u_hat1 @ (df.u_hat1.T @ yhat)
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


def test_ddgi_and_dcepgi_read_one_residual_at_every_scale():
    # rng 1, cond(T1) = 1e4: a DDGI residual of its own crossed the
    # tolerance at two of these scales while the DCEPGI's did not
    rng = np.random.default_rng(1)
    ah = random_dual(rng, Frame(rng, 20, 10, 4, cond=1e4))
    for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        cep, drazin = dcepgi_exists(scaled(ah, c)), ddgi_exists(scaled(ah, c))
        assert drazin.exists == cep.exists, c
        assert drazin.residuals == {
            "drazin_projector": cep.residuals["core_ep_projector"]}, c


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e6])
def test_first_order_form_verdict_free_of_the_scale_of_b(c):
    # B3 != O: the form fails for every c != 0, and the residual's terms
    # R and A^cep B A^cep are both linear in B
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 60:
        ah = existing_dual_b3(rng, random_frame(rng))
        if ah is None:  # no B4 found for its B3
            continue
        report = first_order_form_report(DualMatrix(ah.std, c * ah.inf))
        assert not report.conditions["first_order_form"][0], (checked, c)
        checked += 1


@pytest.mark.parametrize("build", [split_input, off_range_input])
def test_first_order_form_holds_where_b_vanishes_on_the_range(build):
    # B1 = B3 = O: Ahat^cep's B part and A^cep B A^cep are both O, so as
    # computed both are roundoff and neither may be the residual's scale
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(6, 21))
        ah = build(rng, n, int(rng.integers(1, 4)))
        bhat = random_dual_vector(rng, n)
        for c in (1e-6, 1.0, 1e6):
            sh = DualMatrix(ah.std, c * ah.inf)
            report = first_order_form_report(sh)
            assert report.conditions["first_order_form"][0], (n, c)
            solve_unique_in_range(sh, bhat)
            range_null_report(sh)
