"""Dual generalized inverses: formulas, certificates, oracle agreement."""

import itertools

import numpy as np
import pytest

from dualgi import (DualMatrix, core_ep_inverse, core_ep_residuals, dcepgi,
                    dcepgi_compact, dcepgi_exists, ddgi, ddgi_exists, dmpgi,
                    dmpgi_exists, drazin, drazin_residuals, dual_core_inverse,
                    dual_group, dual_power, index, moore_penrose, mpdgi,
                    penrose_residuals, solve_general)
from dualgi.errors import DimensionError, InverseNotExistError
from helpers import (REDUCING_CUTOFF_CASES, Frame, dcepgi_bruteforce_oracle,
                     existing_dual, existing_dual_b3, mp_existing_dual,
                     orthogonal, random_dual, random_dual_vector,
                     random_frame, reducing_dual, seeded_reducing_dual,
                     stacked_rank_gap)

RNG = np.random.default_rng(20240819)


def real_dual(a):
    return DualMatrix.from_real(a)


class TestMPDGI:
    def test_formula(self):
        f = random_frame(RNG)
        ah = random_dual(RNG, f)
        x = mpdgi(ah)
        ap = moore_penrose(ah.std)
        assert np.allclose(x.std, ap)
        assert np.allclose(x.inf, -ap @ ah.inf @ ap)

    def test_zero_infinitesimal(self):
        a = RNG.standard_normal((4, 4))
        x = mpdgi(real_dual(a))
        assert np.allclose(x.inf, 0.0)


class TestDMPGI:
    def test_exists_for_structured_b(self):
        for _ in range(20):
            f = random_frame(RNG)
            ah = mp_existing_dual(RNG, f)
            assert dmpgi_exists(ah).exists

    def test_penrose_identities(self):
        for _ in range(20):
            f = random_frame(RNG)
            ah = mp_existing_dual(RNG, f)
            res = penrose_residuals(ah, dmpgi(ah))
            assert max(res.values()) < 1e-9

    def test_rank_test_agrees_with_projector(self):
        # rank([[B, A], [A, O]]) = 2 rank(A), from the stacked SVD
        for _ in range(40):
            f = random_frame(RNG)
            ah = mp_existing_dual(RNG, f) if RNG.random() < 0.5 \
                else random_dual(RNG, f)
            rank_a = np.linalg.matrix_rank(ah.std)
            assert dmpgi_exists(ah).exists \
                == (stacked_rank_gap(ah, rank_a, 1) == 0)

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6])
    def test_verdict_free_of_the_scale_of_b(self, cond):
        # (I - A A^+) B (I - A^+ A) = O is linear in B: scaling B alone
        # moves no verdict
        for s in range(40):
            rng = np.random.default_rng([s, int(np.log10(cond))])
            n, m = 3 + s % 6, 1 + s % 2
            f = Frame(rng, n, max(1, (n - m) // 2), m, cond=cond)
            for build, exists in ((mp_existing_dual, True),
                                  (random_dual, False)):
                ah = build(rng, f)
                for c in (1e-6, 1.0, 1e6, 1e9):
                    verdict = dmpgi_exists(DualMatrix(ah.std, c * ah.inf))
                    assert verdict.exists == exists, (s, build, c)

    @pytest.mark.parametrize("seed", [19, 27, 59, 75, 87])
    def test_computed_power_at_ill_conditioned_t1(self, seed):
        # index 4, cond(T1) = 1e3: (I - A A^+) B (I - A^+ A) formed
        # through A A^+ carried roundoff of order cond(A) eps and read
        # 3e-10 to 1e-8 here, denying the DMPGI of Ahat^m with the DDGI
        rng = np.random.default_rng(seed)
        n = 3 + seed % 10
        ah = existing_dual(rng, Frame(rng, n, (n - 4) // 2, 4, cond=1e3))
        assert ddgi_exists(ah).exists
        assert dmpgi_exists(dual_power(ah, 4)).exists

    @pytest.mark.parametrize("cond", [1e4, 1e6])
    def test_penrose_residuals_at_ill_conditioned_a(self, cond):
        # the closed form's Gram products A^+ (A^+)^T squared cond(A):
        # its witness read Penrose residuals up to 7.2e-7 at cond 1e4
        # and 0.25 at cond 1e6, the block form's 3.6e-13 and 3.1e-11
        for n, s in itertools.product((6, 20, 50), range(5)):
            rng = np.random.default_rng([s, n, int(cond), 7])
            ah = mp_existing_dual(rng, Frame(rng, n, n // 2, 2, cond))
            res = penrose_residuals(ah, dmpgi(ah))
            assert max(res.values()) <= 1e-9, (n, s, res)

    @pytest.mark.parametrize("build", [existing_dual, existing_dual_b3,
                                       reducing_dual])
    def test_power_witness_at_ill_conditioned_t1(self, build):
        # the DMPGI of Ahat^m on the sweep's inputs (its generator
        # index g), index 2-4, cond(T1) = 1e3: the closed form's witness
        # read Penrose residuals up to 1.3e6, the block form's 3.4e-8
        g = (existing_dual, existing_dual_b3, reducing_dual).index(build)
        for n, m, s in itertools.product((6, 20, 50), (2, 3, 4), range(3)):
            if m > n - n // 2:
                continue
            rng = np.random.default_rng([s, n, m, 1000, g])
            ah = build(rng, Frame(rng, n, n // 2, m, cond=1e3))
            if ah is None:  # existing_dual_b3 found no B4
                continue
            cert = dmpgi_exists(ah, m=index(ah.std))
            assert cert.exists, (n, m, s)
            res = penrose_residuals(dual_power(ah, m), cert.witness)
            assert max(res.values()) <= 1e-6, (n, m, s, res)

    def test_nonexistence_raises_with_certificate(self):
        a = np.diag([1.0, 0.0])
        b = np.full((2, 2), 1.0)
        with pytest.raises(InverseNotExistError) as exc:
            dmpgi(DualMatrix(a, b))
        assert not exc.value.certificate.exists

    def test_invertible_always_exists(self):
        a = RNG.standard_normal((4, 4)) + 5 * np.eye(4)
        ah = DualMatrix(a, RNG.standard_normal((4, 4)))
        x = dmpgi(ah)
        ident = (ah @ x - DualMatrix.eye(4)).norm()
        assert ident < 1e-9


class TestDDGI:
    def test_identities_on_existing(self):
        for _ in range(20):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            res = drazin_residuals(ah, ddgi(ah), f.m)
            assert max(res.values()) < 1e-9

    def test_power_mp_criterion_agrees(self):
        # the dual MP inverse of Ahat^m exists iff the DDGI does
        for _ in range(40):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f) if RNG.random() < 0.5 \
                else random_dual(RNG, f)
            cert = ddgi_exists(ah)
            power_cert = dmpgi_exists(ah, m=max(f.m, 1))
            assert cert.exists == power_cert.exists
            if cert.exists:
                res = penrose_residuals(dual_power(ah, max(f.m, 1)),
                                        power_cert.witness)
                assert max(res.values()) < 1e-8, res
        # computed powers whose roundoff singular values a default-cutoff
        # A^+ kept: the DMPGI was denied while its own rank test held
        for seed, shape in REDUCING_CUTOFF_CASES:
            ah = seeded_reducing_dual(seed, shape)
            power_cert = dmpgi_exists(ah, m=shape[2])
            assert ddgi_exists(ah).exists == power_cert.exists
            verdicts = {r <= power_cert.tolerance
                        for r in power_cert.residuals.values()}
            assert len(verdicts) == 1, power_cert.residuals
        # index 4 at cond(T1) = 1e3: sigma_t(A^4) / sigma_1 is near 1e-12,
        # so a rank cut at tol * sigma_max(A^m) left rank t - 1 and
        # denied the DMPGI of Ahat^m
        for seed in (7, 15, 47):
            rng = np.random.default_rng(seed)
            n = 3 + seed % 10
            f = Frame(rng, n, (n - 4) // 2, 4, cond=1e3)
            for build in (existing_dual, reducing_dual):
                ah = build(rng, f)
                assert ddgi_exists(ah).exists, (seed, build.__name__)
                assert dmpgi_exists(ah, m=4).exists, (seed, build.__name__)
        # small T1 and T2 = O: ||A^2|| = d^2, while the computed power
        # carries roundoff of about eps ||A||^2 = eps.  A cut at the
        # power's own sigma_max kept that roundoff as rank, left no null
        # space and accepted a B that the DDGI rejects
        mid = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        for d, seed in itertools.product((1e-2, 1e-4), range(20)):
            rng = np.random.default_rng(seed)
            q = orthogonal(rng, 3)
            mid[0, 0] = d
            ah = DualMatrix(q @ mid @ q.T, rng.standard_normal((3, 3)))
            assert not ddgi_exists(ah).exists, (d, seed)
            assert not dmpgi_exists(ah, m=2).exists, (d, seed)

    def test_nonexistence(self):
        f = Frame(RNG, 4, 1, 2)
        ah = random_dual(RNG, f)
        if ddgi_exists(ah).exists:  # measure-zero; regenerate deterministically
            ah = DualMatrix(ah.std, ah.inf + 1.0)
        with pytest.raises(InverseNotExistError):
            ddgi(ah)

    @staticmethod
    def check_exists_and_solves(ah, m):
        cert = ddgi_exists(ah)
        assert cert.exists, cert.residuals
        assert max(drazin_residuals(ah, ddgi(ah), m).values()) < 1e-9
        bhat = random_dual_vector(np.random.default_rng(0), ah.shape[0])
        assert solve_general(ah, bhat).residual < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_built_instances_exist(self, seed):
        # at n = 400 a default-cutoff pinv of the computed A^3 gave
        # power_mp about 2e-3; the frame's rank-t (A^m)^+ gives 1e-15
        rng = np.random.default_rng(seed)
        ah = existing_dual(rng, Frame(rng, 400, 200, 3))
        self.check_exists_and_solves(ah, 3)

    @pytest.mark.parametrize("seed,shape", REDUCING_CUTOFF_CASES)
    def test_reducing_instances_exist(self, seed, shape):
        self.check_exists_and_solves(seeded_reducing_dual(seed, shape),
                                     shape[2])

    def test_zero_infinitesimal_is_drazin(self):
        f = random_frame(RNG)
        x = ddgi(real_dual(f.A))
        assert np.allclose(x.std, drazin(f.A), atol=1e-9)
        assert np.allclose(x.inf, 0.0, atol=1e-12)


class TestDualGroup:
    def test_requires_index_one(self):
        # index(A) > 1: the group inverse does not exist, and no
        # certificate says why, as for the dual core inverse
        f = Frame(RNG, 4, 2, 2)
        with pytest.raises(InverseNotExistError, match="index") as info:
            dual_group(real_dual(f.A))
        assert info.value.certificate is None

    def test_group_identities(self):
        f = Frame(RNG, 4, 2, 1)
        ah = existing_dual(RNG, f)
        x = dual_group(ah)
        assert (ah @ x - x @ ah).norm() < 1e-9
        assert (x @ ah @ x - x).norm() < 1e-9
        assert (ah @ x @ ah - ah).norm() < 1e-9


class TestDCEPGI:
    def test_defining_conditions(self):
        for _ in range(30):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            res = core_ep_residuals(ah, dcepgi(ah), f.m)
            assert max(res.values()) < 1e-9

    def test_standard_part_is_core_ep(self):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        assert np.allclose(dcepgi(ah).std, core_ep_inverse(ah.std), atol=1e-9)

    def test_b3_instances_exist(self):
        for _ in range(20):
            ah = existing_dual_b3(RNG, random_frame(RNG))
            assert ah is not None
            res = core_ep_residuals(ah, dcepgi(ah), index(ah.std))
            assert max(res.values()) < 1e-8

    def test_nonexistence_raises(self):
        f = random_frame(RNG)
        with pytest.raises(InverseNotExistError) as exc:
            dcepgi(random_dual(RNG, f))
        assert set(exc.value.certificate.residuals) == {"core_ep_projector"}

    def test_zero_infinitesimal(self):
        f = random_frame(RNG)
        x = dcepgi(real_dual(f.A))
        assert np.allclose(x.std, core_ep_inverse(f.A), atol=1e-9)
        assert np.allclose(x.inf, 0.0, atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            dcepgi_exists(DualMatrix(np.zeros((2, 3)), np.zeros((2, 3))))


class TestCompactFormula:
    def test_agrees_with_canonical(self):
        for _ in range(30):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            assert (dcepgi_compact(ah) - dcepgi(ah)).norm() < 1e-9

    def test_nonexistence_raises(self):
        f = random_frame(RNG)
        with pytest.raises(InverseNotExistError):
            dcepgi_compact(random_dual(RNG, f))

    def test_agrees_with_canonical_at_cond_1e2(self):
        # index 3: the closed form of (Ahat^m)^+ drifted by up to 5.8e-5
        # here, the block form by 7.7e-11; the drift grows with
        # cond(T1)^m (README, "Numerical conventions")
        for s in range(20):
            rng = np.random.default_rng([s, 6, 3, 100, 0])
            ah = existing_dual(rng, Frame(rng, 6, 3, 3, cond=100))
            x = dcepgi(ah)
            assert (dcepgi_compact(ah) - x).norm() <= 1e-9 * x.norm(), s


class TestBruteForceOracle:
    def test_agrees_on_existing(self):
        for _ in range(30):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            got = dcepgi_bruteforce_oracle(ah, 1e-8)
            assert got is not None
            assert (got - dcepgi(ah)).norm() < 1e-8

    def test_absent_on_nonexisting(self):
        for _ in range(20):
            f = random_frame(RNG)
            assert dcepgi_bruteforce_oracle(random_dual(RNG, f), 1e-8) is None

    def test_zero_infinitesimal(self):
        f = random_frame(RNG)
        got = dcepgi_bruteforce_oracle(real_dual(f.A))
        assert got is not None
        assert np.allclose(got.std, core_ep_inverse(f.A), atol=1e-9)


class TestDualCoreInverse:
    def test_index_one_equals_dcepgi(self):
        f = Frame(RNG, 5, 3, 1)
        ah = existing_dual(RNG, f)
        assert (dual_core_inverse(ah) - dcepgi(ah)).norm() < 1e-12

    def test_higher_index_rejected(self):
        f = Frame(RNG, 4, 1, 2)
        with pytest.raises(InverseNotExistError):
            dual_core_inverse(existing_dual(RNG, f))

    def test_invertible(self):
        a = RNG.standard_normal((3, 3)) + 4 * np.eye(3)
        ah = DualMatrix(a, RNG.standard_normal((3, 3)))
        x = dual_core_inverse(ah)
        assert (ah @ x - DualMatrix.eye(3)).norm() < 1e-9


class TestReducedRankGap:
    """rank([[S, A^m], [A^m, O]]) = 2 t + rank(D) for the (n-t) x (n-t)
    defect block D (Marsaglia and Styan), so the DDGI, read off D, must
    exist exactly when the stacked 2n x 2n matrix has rank gap 0."""

    @pytest.mark.parametrize("build", [existing_dual, existing_dual_b3,
                                       reducing_dual, random_dual])
    def test_equals_stacked_reference(self, build):
        rng = np.random.default_rng(20261018)
        checked = 0
        for n in (5, 8, 12, 20):
            for m in range(1, 5):
                for _ in range(3):
                    f = Frame(rng, n, int(rng.integers(1, n - m + 1)), m)
                    ah = build(rng, f)
                    if ah is None:  # existing_dual_b3 found no B4
                        continue
                    assert ddgi_exists(ah).exists \
                        == (stacked_rank_gap(ah, f.t, m) == 0), (n, f.t, m)
                    checked += 1
        assert checked >= 24

    @pytest.mark.parametrize("seed,shape", REDUCING_CUTOFF_CASES)
    def test_reducing_cutoff_cases(self, seed, shape):
        ah = seeded_reducing_dual(seed, shape)
        n, t, m = shape
        assert ddgi_exists(ah).exists
        assert stacked_rank_gap(ah, t, m) == 0
