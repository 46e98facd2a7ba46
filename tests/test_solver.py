"""Dual linear system solver built on the DCEPGI."""

import itertools
import sys

import numpy as np
import pytest

import dualgi
from dualgi import (DualMatrix, DualVector, dcepgi, dmpgi, dual_power,
                    solve_general, solve_unique_in_range)
from dualgi.errors import DimensionError, HypothesisError, InverseNotExistError
from dualgi.inverses import _dmpgi_formula, _Frame, _rel
from dualgi.realkernel import DEFAULT_TOL
from dualgi.solver import _surrogate_residuals
from helpers import (Frame, column_membership_residual, existing_dual,
                     existing_dual_b3, orthogonal, random_dual,
                     random_dual_vector, random_frame, reducing_dual,
                     stacked)

RNG = np.random.default_rng(20240822)


def surrogate_rhs(ah, bhat):
    m = max(dualgi.index(ah.std), 1)
    ahm = dual_power(ah, m)
    return dual_power(ah, 2 * m) @ (dmpgi(ahm) @ bhat)


@pytest.mark.parametrize("solve", [solve_general, solve_unique_in_range])
@pytest.mark.parametrize("kind", ["DualMatrix", "ndarray", "list"])
def test_rhs_must_be_a_dual_vector(solve, kind, monkeypatch):
    # a right-hand side of another type is refused by name, before the
    # input's frame is looked up; a generator of its own leaves the
    # module RNG's draws for the later tests as they were
    rng = np.random.default_rng(27)
    f = random_frame(rng)
    ah = existing_dual(rng, f)
    b = rng.standard_normal(f.n)
    bhat = {"DualMatrix": DualMatrix(b[:, None], b[:, None]),
            "ndarray": b, "list": b.tolist()}[kind]

    def refuse(*args, **kwargs):
        raise AssertionError("the frame was looked up")
    monkeypatch.setattr(_Frame, "of", staticmethod(refuse))
    with pytest.raises(DimensionError, match=f"DualVector, got {kind}$"):
        solve(ah, bhat)


class TestSolveGeneral:
    def test_particular_solution(self):
        for _ in range(20):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            bhat = random_dual_vector(RNG, f.n)
            sol = solve_general(ah, bhat)
            assert sol.residual < 1e-9
            assert (sol.particular - dcepgi(ah) @ bhat).norm() < 1e-12

    def test_homogeneous_shifts_still_solve(self):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        bhat = random_dual_vector(RNG, f.n)
        sol = solve_general(ah, bhat)
        m = max(dualgi.index(ah.std), 1)
        rhs = surrogate_rhs(ah, bhat)
        for _ in range(10):
            yhat = random_dual_vector(RNG, f.n)
            xh = sol.solution(yhat)
            res = (dual_power(ah, m + 1) @ xh - rhs).norm()
            assert res < 1e-8 * (1 + bhat.norm())

    def test_projector_annihilated_by_power(self):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        sol = solve_general(ah, random_dual_vector(RNG, f.n))
        m = max(dualgi.index(ah.std), 1)
        prod = dual_power(ah, m + 1) @ sol.homogeneous_projector
        assert prod.norm() < 1e-8 * (1 + ah.norm() ** (m + 1))

    def test_invertible_system(self):
        a = RNG.standard_normal((4, 4)) + 5 * np.eye(4)
        ah = DualMatrix(a, RNG.standard_normal((4, 4)))
        bhat = random_dual_vector(RNG, 4)
        sol = solve_general(ah, bhat)
        assert (ah @ sol.particular - bhat).norm() < 1e-9
        assert sol.homogeneous_projector.norm() < 1e-9

    def test_requires_existence(self):
        f = random_frame(RNG)
        with pytest.raises(InverseNotExistError):
            solve_general(random_dual(RNG, f), random_dual_vector(RNG, f.n))

    def test_shape_checks(self):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        with pytest.raises(DimensionError):
            solve_general(ah, random_dual_vector(RNG, f.n + 1))
        with pytest.raises(DimensionError):
            solve_general(DualMatrix(np.zeros((2, 3)), np.zeros((2, 3))),
                          random_dual_vector(RNG, 2))

    def test_builds_no_power_pinv(self, monkeypatch):
        # (Ahat^m)^+ bhat by matrix-vector products, not the whole matrix;
        # the reference goes through the DMPGI of dual_power(ah, m)
        def refuse(*args):
            raise AssertionError("(Ahat^m)^+ was formed")

        cases = []
        for n, t, m in ((6, 2, 3), (12, 6, 2), (20, 10, 4)):
            f = Frame(RNG, n, t, m)
            ah, bhat = existing_dual(RNG, f), random_dual_vector(RNG, n)
            cases.append((ah, bhat, surrogate_rhs(ah, bhat)))
        for name, module in list(sys.modules.items()):
            if (name == "dualgi" or name.startswith("dualgi.")) and \
                    getattr(module, "_dmpgi_formula", None) is _dmpgi_formula:
                monkeypatch.setattr(module, "_dmpgi_formula", refuse)
        for ah, bhat, want in cases:
            got = solve_general(ah, bhat).surrogate_rhs
            assert (got - want).norm() <= 1e-12 * want.norm()


class TestSolveUniqueInRange:
    def test_solution_properties(self):
        for _ in range(20):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            bhat = random_dual_vector(RNG, f.n)
            xhat = solve_unique_in_range(ah, bhat, tol=1e-8)
            x = dcepgi(ah)
            assert (xhat - x @ bhat).norm() < 1e-12
            assert (ah @ (x @ xhat) - x @ bhat).norm() < 1e-8 \
                * (1 + bhat.norm())

    def test_uniqueness_probe(self):
        # shifting by a nonzero element of the range of Ahat^m breaks
        # the defining equation
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        bhat = random_dual_vector(RNG, f.n)
        xhat = solve_unique_in_range(ah, bhat, tol=1e-8)
        x = dcepgi(ah)
        m = max(dualgi.index(ah.std), 1)
        ahm = dual_power(ah, m)
        for _ in range(10):
            z = ahm @ random_dual_vector(RNG, f.n)
            if z.norm() < 1e-6:
                continue
            shifted = xhat + z
            res = (ah @ (x @ shifted) - x @ bhat).norm()
            assert res > 1e-8

    def test_hypothesis_failure_raises(self):
        for _ in range(10):
            ah = existing_dual_b3(RNG, random_frame(RNG))
            if ah is None:
                continue
            try:
                solve_unique_in_range(ah, random_dual_vector(RNG, ah.shape[0]))
            except HypothesisError:
                return
        pytest.skip("no first-order-form violation drawn")

    def test_zero_rhs(self):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        xhat = solve_unique_in_range(ah, DualVector.zeros(f.n), tol=1e-8)
        assert xhat.norm() < 1e-12

    def test_invertible_matches_inverse(self):
        a = RNG.standard_normal((3, 3)) + 4 * np.eye(3)
        ah = DualMatrix(a, RNG.standard_normal((3, 3)))
        bhat = random_dual_vector(RNG, 3)
        xhat = solve_unique_in_range(ah, bhat, tol=1e-7)
        assert (ah @ xhat - bhat).norm() < 1e-8

    def test_checks_only_the_first_order_form(self, monkeypatch):
        # the hypothesis needs one residual, not the five-condition report
        def refuse(*args):
            raise AssertionError("five-condition report evaluated")

        monkeypatch.setattr(dualgi.relations, "first_order_form_report",
                            refuse)
        rng = np.random.default_rng(11)
        f = Frame(rng, 6, 2, 3)
        ah = existing_dual(rng, f)
        bhat = random_dual_vector(rng, f.n)
        xhat = solve_unique_in_range(ah, bhat)
        assert (xhat - dcepgi(ah) @ bhat).norm() < 1e-12
        assert dualgi.range_null_report(ah).all_hold

    @pytest.mark.parametrize("seed", range(5))
    def test_built_input_at_ill_conditioned_t1(self, seed):
        # the dual-range check once went through the preimage T1^-m U1^T x,
        # whose roundoff of order eps cond(T1)^m rejected every such input
        rng = np.random.default_rng(seed)
        ah = reducing_dual(rng, Frame(rng, 8, 2, 4, cond=1e4))
        bhat = DualVector(rng.standard_normal(8), rng.standard_normal(8))
        want = dcepgi(ah) @ bhat
        assert (solve_unique_in_range(ah, bhat) - want).norm() \
            <= 1e-12 * want.norm()


class TestFrameRangeCheck:
    """The dual-range check of ``solve_unique_in_range`` measures the
    part of xhat along the trailing columns of the frame's Uhat,
    against the least-squares residual over the stacked
    [[A^m, O], [S, A^m]]."""

    @staticmethod
    def draws(count):
        rng = np.random.default_rng(20261018)
        for i in range(count):
            f = random_frame(rng, n_max=12, m_max=4)
            ah = (existing_dual if i % 2 else reducing_dual)(rng, f)
            df = _Frame.of(ah)
            yield rng, ah, df, dual_power(ah, df.blocks.mp)

    @staticmethod
    def frame_residual(df, vh):
        # over ||[v; v']||, as the least-squares residual is
        return _rel(df.off_range_norm(vh), np.hypot(np.linalg.norm(vh.std),
                                                    np.linalg.norm(vh.inf)))

    @staticmethod
    def lstsq_residual(ahm, vh):
        col = np.concatenate([vh.std, vh.inf])[:, None]
        return column_membership_residual(col, stacked(ahm))

    def test_never_below_least_squares(self):
        for rng, ah, df, ahm in self.draws(60):
            vh = random_dual_vector(rng, df.blocks.n)
            res = self.frame_residual(df, vh)
            # equal when the least-squares preimage is the frame's one;
            # the slack covers the roundoff of that tie
            assert res >= self.lstsq_residual(ahm, vh) * (1 - 1e-12)

    def test_built_solutions_pass(self):
        for rng, ah, df, ahm in self.draws(60):
            xhat = dcepgi(ah) @ random_dual_vector(rng, df.blocks.n)
            assert self.frame_residual(df, xhat) <= DEFAULT_TOL

    def test_rejects_component_outside_range(self):
        # U[:, t:] spans the orthogonal complement of R(A^m); a part of
        # either the standard or the infinitesimal vector along it
        # leaves the dual range
        for rng, ah, df, ahm in self.draws(20):
            frame = df.blocks
            xhat = dcepgi(ah) @ random_dual_vector(rng, frame.n)
            off = 1e-6 * frame.U[:, frame.t]
            for vh in (xhat + DualVector(off, np.zeros(frame.n)),
                       xhat + DualVector(np.zeros(frame.n), off)):
                assert self.frame_residual(df, vh) > DEFAULT_TOL
                assert self.lstsq_residual(ahm, vh) > DEFAULT_TOL


@pytest.mark.parametrize("n", [6, 20])
def test_general_residual_with_ill_conditioned_power(n):
    # cond(T1) = 1e3 makes cond(A^m) up to 7e8; a right-hand side formed
    # through (A^m)^+ carried a forward error of that order and read
    # residuals up to 3.2e-3 on these correct solutions
    worst = []
    for m in range(1, min(4, n - n // 2) + 1):
        for seed in range(4):
            for build in (existing_dual, reducing_dual):
                rng = np.random.default_rng(seed * 1000 + m * 10 + 20)
                f = Frame(rng, n, n // 2, m, cond=1e3)
                ah = build(rng, f)
                sol = solve_general(ah, random_dual_vector(rng, n))
                worst.append((sol.residual, m, seed, build.__name__))
    assert len(worst) == (24 if n == 6 else 32)
    assert max(worst)[0] <= 1e-10, max(worst)


@pytest.mark.parametrize("n", [6, 20, 50])
def test_surrogate_residual_separates_a_shift(n):
    # correct solutions read roundoff, and a shift of 1e-6 of the
    # solution's size along Uhat1 reads above the tolerance, for a
    # generic bhat and for one in N((Ahat^m)^T) (solution and right-hand
    # side then roundoff), with Ahat scaled by c
    t, correct, shifted, count = n // 2, 0.0, np.inf, 0
    draws = itertools.product(range(1, min(4, n - t) + 1), (None, 1e3, 1e4),
                              range(3), ((0, existing_dual),
                                         (2, reducing_dual)))
    for m, cond, seed, (gi, build) in draws:
        rng = np.random.default_rng([seed, n, m, int(cond or 1), gi])
        ah0 = build(rng, Frame(rng, n, t, m, cond=cond))
        yhat = random_dual_vector(rng, n)
        for c in (1e-6, 1.0, 1e6):
            ah = DualMatrix(c * ah0.std, c * ah0.inf)
            u1 = _Frame.of(ah).u_hat1
            along = u1 @ DualVector(np.ones(t) / np.sqrt(t), np.zeros(t))
            for bhat in (yhat, yhat - u1 @ (u1.T @ yhat)):
                sol = solve_general(ah, bhat)
                size = 1e-6 * dcepgi(ah).norm() * bhat.norm()
                wrong = sol.particular + DualVector(size * along.std,
                                                    size * along.inf)
                res = _surrogate_residuals(ah, bhat, sol.surrogate_rhs,
                                           [sol.particular, wrong])
                correct = max(correct, sol.residual, res[0])
                shifted = min(shifted, res[1])
                count += 1
    assert count == (324 if n == 6 else 432)
    assert correct <= 1e-14
    assert shifted > DEFAULT_TOL


@pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6])
def test_surrogate_residual_with_small_t1(d):
    # A = Q [[d, 1, 0], [0, 0, 1], [0, 0, 0]] Q^T, index 2: the roundoff
    # of the first product, about eps ||A|| ||x|| in every direction,
    # reaches the residual through A^2 = Q [[d^2, d, 1], [O]] Q^T, not
    # through T1^2 = d^2.  Over ||T1hat^m||, correct solutions read
    # about eps / d^2 (3e-5 at d = 1e-6)
    mid = np.array([[d, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    worst = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q = orthogonal(rng, 3)
        ah = DualMatrix(q @ mid @ q.T, np.zeros((3, 3)))
        bhat = random_dual_vector(rng, 3)
        sol = solve_general(ah, bhat)
        shifted = [sol.solution(random_dual_vector(rng, 3))
                   for _ in range(4)]
        worst += [sol.residual] + _surrogate_residuals(
            ah, bhat, sol.surrogate_rhs, shifted)
    assert len(worst) == 25
    assert max(worst) <= DEFAULT_TOL
