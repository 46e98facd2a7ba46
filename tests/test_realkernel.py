"""Real kernel: rank, index, Moore-Penrose, Drazin, core-EP."""

import collections
import itertools

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest

from dualgi import (DualMatrix, core_ep_decompose, core_ep_inverse, drazin,
                    dual_core_ep_decompose, index, moore_penrose,
                    numerical_rank)
from dualgi.errors import DimensionError
from dualgi.inverses import _Frame
from dualgi.realkernel import _staircase
from helpers import (Frame, existing_dual, existing_dual_b3, orthogonal,
                     random_dual, random_frame, reducing_dual,
                     reference_staircase, seeded_reducing_dual)

RNG = np.random.default_rng(20240818)


class TestRankAndIndex:
    def test_rank_basics(self):
        assert numerical_rank(np.eye(4)) == 4
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.outer([1, 2, 3], [4, 5, 6])) == 1
        assert numerical_rank(np.zeros((0, 0))) == 0

    def test_rank_ignores_noise_below_threshold(self):
        a = np.diag([1.0, 1.0, 1e-16])
        assert numerical_rank(a) == 2

    def test_index_of_invertible_is_zero(self):
        assert index(np.eye(3)) == 0
        assert index(RNG.standard_normal((4, 4)) + 5 * np.eye(4)) == 0

    def test_index_of_zero_is_one(self):
        assert index(np.zeros((3, 3))) == 1

    def test_index_of_nilpotent_chain(self):
        n = np.diag([1.0, 1.0, 1.0], k=1)
        assert index(n) == 4

    def test_index_engineered(self):
        for _ in range(20):
            f = random_frame(RNG)
            assert index(f.A) == f.m

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            index(np.zeros((2, 3)))


class TestMoorePenrose:
    def test_penrose_identities_random(self):
        for _ in range(50):
            rows, cols = RNG.integers(1, 8, size=2)
            a = RNG.standard_normal((rows, cols))
            x = moore_penrose(a)
            assert np.allclose(a @ x @ a, a, atol=1e-9)
            assert np.allclose(x @ a @ x, x, atol=1e-9)
            assert np.allclose((a @ x).T, a @ x, atol=1e-9)
            assert np.allclose((x @ a).T, x @ a, atol=1e-9)


class TestCoreEPDecomposition:
    def test_reconstruction_and_structure(self):
        for _ in range(30):
            f = random_frame(RNG)
            blocks = core_ep_decompose(f.A)
            assert blocks.m == f.m
            assert blocks.t == f.t
            assert np.allclose(blocks.reconstruct(), f.A, atol=1e-10)
            assert np.allclose(blocks.U.T @ blocks.U, np.eye(f.n), atol=1e-12)
            # T1 invertible, N nilpotent with N^max(m,1) = O
            assert numerical_rank(blocks.T1) == blocks.t
            npow = np.linalg.matrix_power(blocks.N, max(blocks.m, 1))
            assert np.linalg.norm(npow) < 1e-10
            # lower-left block of U^T A U vanishes
            w = blocks.U.T @ f.A @ blocks.U
            assert np.linalg.norm(w[blocks.t:, :blocks.t]) < 1e-10

    def test_supplied_frame_accepted(self):
        f = Frame(RNG, 4, 2, 2)
        blocks = core_ep_decompose(f.A, u=f.U)
        assert np.allclose(blocks.U, f.U)
        assert np.allclose(blocks.T1, f.T1, atol=1e-10)
        assert np.allclose(blocks.N, f.N, atol=1e-10)

    def test_supplied_frame_validated(self):
        f = Frame(RNG, 4, 2, 2)
        with pytest.raises(ValueError):
            core_ep_decompose(f.A, u=np.ones((4, 4)))
        wrong_span = orthogonal(np.random.default_rng(7), 4)
        with pytest.raises(ValueError):
            core_ep_decompose(f.A, u=wrong_span)
        with pytest.raises(DimensionError):
            core_ep_decompose(np.eye(4), u=np.eye(3))
        # ||U^T U - I||_F = 1.6e-5: under allclose's default rtol of 1e-5
        # this basis passed, and both reconstructions were off by 1.6e-5
        skewed = f.U * 1.000004
        with pytest.raises(ValueError, match="not orthogonal"):
            core_ep_decompose(f.A, u=skewed)
        with pytest.raises(ValueError, match="not orthogonal"):
            dual_core_ep_decompose(DualMatrix(f.A, f.A.T), u=skewed)

    def test_split_and_assemble_roundtrip(self):
        # the dual frame splits U^T B U on the real decomposition
        f = Frame(RNG, 5, 2, 2)
        b = RNG.standard_normal((5, 5))
        df = _Frame(DualMatrix(f.A, b))
        w, t = df.w, df.blocks.t
        assert np.allclose(df.blocks.assemble(w[:t, :t], w[:t, t:], w[t:, :t],
                                              w[t:, t:]), b)


class TestDrazin:
    def test_defining_identities(self):
        for _ in range(30):
            f = random_frame(RNG)
            x = drazin(f.A)
            am = np.linalg.matrix_power(f.A, f.m)
            assert np.allclose(x @ f.A @ am, am, atol=1e-8)
            assert np.allclose(x @ f.A @ x, x, atol=1e-8)
            assert np.allclose(f.A @ x, x @ f.A, atol=1e-8)

    def test_matches_limit_formula(self):
        # A^D = A^m (A^(2m+1))^+ A^m for any m >= Ind(A)
        for _ in range(20):
            f = random_frame(RNG)
            am = np.linalg.matrix_power(f.A, f.m)
            alt = am @ moore_penrose(np.linalg.matrix_power(f.A, 2 * f.m + 1)) @ am
            assert np.allclose(drazin(f.A), alt, atol=1e-8)

    def test_invertible_gives_inverse(self):
        a = RNG.standard_normal((4, 4)) + 5 * np.eye(4)
        assert np.allclose(drazin(a), np.linalg.inv(a), atol=1e-10)

    def test_zero_matrix(self):
        assert np.allclose(drazin(np.zeros((3, 3))), 0.0)


class TestCoreEP:
    def test_defining_identities(self):
        for _ in range(30):
            f = random_frame(RNG)
            x = core_ep_inverse(f.A)
            ax = f.A @ x
            assert np.allclose(ax.T, ax, atol=1e-9)
            assert np.allclose(f.A @ x @ x, x, atol=1e-9)
            am = np.linalg.matrix_power(f.A, f.m)
            assert np.allclose(x @ f.A @ am, am, atol=1e-8)

    def test_matches_product_formula(self):
        for _ in range(30):
            f = random_frame(RNG)
            am = np.linalg.matrix_power(f.A, f.m)
            alt = drazin(f.A) @ am @ moore_penrose(am)
            assert np.allclose(core_ep_inverse(f.A), alt, atol=1e-8)

    def test_projector_property(self):
        f = random_frame(RNG)
        p = f.A @ core_ep_inverse(f.A)
        assert np.allclose(p @ p, p, atol=1e-9)
        assert np.allclose(p.T, p, atol=1e-9)

    def test_identity_and_zero(self):
        assert np.allclose(core_ep_inverse(np.eye(3)), np.eye(3))
        assert np.allclose(core_ep_inverse(np.zeros((3, 3))), 0.0)

    def test_frame_independence(self):
        # U1 T1^-1 U1^T in the generator's own frame U
        f = Frame(RNG, 5, 2, 3)
        b = core_ep_decompose(f.A, u=f.U)
        u1 = b.U[:, :b.t]
        assert np.allclose(core_ep_inverse(f.A),
                           u1.dot(np.linalg.inv(b.T1)).dot(u1.T), atol=1e-9)


@pytest.fixture
def svd_calls(monkeypatch):
    """The input shape of every SVD."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(linalg_impl, "svd", counted)
    return calls


def _svds_saved(a, svd_calls):
    """The SVDs the staircase saves on ``a`` against the reference, which
    takes every block's SVD: 1 where the last deflating step proved the
    next block nonsingular, else 0.  Asserts (U, t, m) bit for bit."""
    svd_calls.clear()
    u, t, m = _staircase(a)
    took = len(svd_calls)
    svd_calls.clear()
    u_ref, t_ref, m_ref = reference_staircase(a)
    assert (u.tobytes(), t, m) == (u_ref.tobytes(), t_ref, m_ref)
    saved = len(svd_calls) - took
    assert saved in (0, 1)
    return saved


def _sweep_standard_parts():
    """A of each input of ``tests/sweep_digest.py`` at c = 1, and of the
    ``existing_dual_b3`` draws it skips (``reducing_dual`` drops T2; the
    other generators keep the frame's A)."""
    for n, cond, g in itertools.product((6, 20, 50), (None, 1e3, 1e4),
                                        range(4)):
        t = n // 2
        for m, s in itertools.product(range(1, min(4, n - t) + 1), range(3)):
            rng = np.random.default_rng([s, n, m, int(cond or 1), g])
            f = Frame(rng, n, t, m, cond=cond)
            yield reducing_dual(rng, f).std if g == 2 else f.A


class TestStaircaseShortcut:
    """The staircase skips the last block's SVD where the step before
    bounds its sigma_min away from the rank cut, and gives bit for bit
    the (U, t, m) of the reference staircase, which takes that SVD."""

    def test_criterion_4_draws(self, svd_calls):
        # the draws of test_acceptance's criterion 4; case 25 deflates
        # to an exactly singular block, whose gap 1 - ||Q_0^T P_r||_F^2
        # is roundoff: only the guard on gap keeps it from a false stop
        rng = np.random.default_rng(4)
        saved = collections.Counter()
        for k in range(500):
            f = random_frame(rng, n_max=6, m_max=3)
            if k % 3 == 0:
                random_dual(rng, f)
            elif k % 3 == 1:
                existing_dual(rng, f)
            else:
                existing_dual_b3(rng, f) or existing_dual(rng, f)
            saved[_svds_saved(f.A, svd_calls)] += 1
        assert set(saved) == {0, 1}, saved

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_sweep(self, c, svd_calls):
        saved = collections.Counter(_svds_saved(c * a, svd_calls)
                                    for a in _sweep_standard_parts())
        assert set(saved) == {0, 1}, saved

    @pytest.mark.parametrize("a, svds, saved", [
        # rank 0 at the first SVD: no block is left to prove nonsingular
        (np.zeros((4, 4)), 1, 0),
        # full rank at the first SVD: nothing deflates
        (np.diag([1.0, 2.0, 3.0, 4.0]) + np.triu(np.ones((4, 4)), 1), 1, 0),
        # index 2 with T2 = O: R(A^T) and N(A^T) are orthogonal, gap = 1
        (seeded_reducing_dual(11, (6, 3, 2)).std, 2, 1),
        # index 1 with T1 = I, T2 = 2 I: Q_0^T P_r = 2 I / sqrt(5), so
        # gap = 1 - 8/5 < 0 although the block, T1^T = I, is far from
        # singular; its SVD decides
        (np.block([[np.eye(2), 2 * np.eye(2)], [np.zeros((2, 4))]]), 2, 0),
        # A^T = P diag(1, 1e-13, 0) with P a rotation by 60 degrees in
        # (e2, e3): rank 2 at the first SVD, gap = cos^2 = 1/4, and the
        # next block diag(1, 5e-14) is below the cut 300 eps = 6.7e-14;
        # sigma_2 sqrt(gap) is not above twice the cut, so its SVD runs
        # and deflates once more (index 2)
        (np.array([[1, 0, 0], [0, 0.5e-13, 0.75 ** 0.5 * 1e-13], [0, 0, 0]]),
         2, 1),
    ], ids=["zero", "invertible", "reducing", "bound-fails", "sigma-near-cut"])
    def test_svds(self, a, svds, saved, svd_calls):
        assert _svds_saved(a, svd_calls) == saved
        svd_calls.clear()
        _staircase(a)
        assert len(svd_calls) == svds
