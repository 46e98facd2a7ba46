"""Dual core-EP decomposition and the core/nilpotent split."""

import numpy as np
import pytest

from dualgi import (DualMatrix, core_ep_residuals, dcepgi, dcepgi_exists,
                    dcepgi_from_decomposition, dual_cn_split,
                    dual_core_ep_decompose, dual_power)
from dualgi.errors import DimensionError, InverseNotExistError
from helpers import (Frame, dcepgi_bruteforce_oracle, existing_dual,
                     existing_dual_b3, random_dual, random_frame)

RNG = np.random.default_rng(20240820)


def decompose_checks(ah, d, tol=1e-9):
    n = ah.shape[0]
    scale = 1.0 + ah.norm()
    # reconstruction
    assert (d.reconstruct() - ah).norm() <= tol * scale
    # dual unitarity: Uhat^T Uhat = I exactly in dual arithmetic
    gram = d.U_hat.T @ d.U_hat - DualMatrix.eye(n)
    assert gram.norm() <= tol
    # T1hat standard part invertible, Nhat dual nilpotent
    assert np.linalg.cond(d.T1_hat.std) < 1e8
    npow = dual_power(DualMatrix(d.N_hat.std, d.N_hat.inf), 2 * max(d.m, 1))
    assert npow.norm() <= tol * scale ** (2 * max(d.m, 1))


class TestDualDecomposition:
    def test_random_instances(self):
        for _ in range(30):
            f = random_frame(RNG)
            ah = random_dual(RNG, f)  # decomposition needs no existence
            d = dual_core_ep_decompose(ah)
            decompose_checks(ah, d)

    def test_sylvester_generator(self):
        # U3 solves N U3 + B3 - U3 T1 = O in the construction frame
        f = Frame(RNG, 5, 2, 3)
        ah = random_dual(RNG, f)
        d = dual_core_ep_decompose(ah, u=f.U)
        b3 = (f.U.T @ ah.inf @ f.U)[f.t:, :f.t]
        resid = f.N @ d.U3 + b3 - d.U3 @ f.T1
        assert np.linalg.norm(resid) < 1e-9

    def test_canonical_when_b3_zero(self):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)  # B3 = O in the construction frame
        d = dual_core_ep_decompose(ah, u=f.U)
        assert d.canonical
        assert np.linalg.norm(d.U3) < 1e-12
        assert d.n == f.n and d.t == f.t

    def test_block_split_frame_invariant(self):
        # core and nilpotent parts agree between the supplied frame and
        # the automatically chosen one
        f = Frame(RNG, 5, 2, 2)
        ah = random_dual(RNG, f)
        d_auto = dual_core_ep_decompose(ah)
        d_pinned = dual_core_ep_decompose(ah, u=f.U)
        assert (d_auto.core_part() - d_pinned.core_part()).norm() < 1e-8
        assert (d_auto.nilpotent_part()
                - d_pinned.nilpotent_part()).norm() < 1e-8

    def test_parts_sum_to_input(self):
        f = random_frame(RNG)
        ah = random_dual(RNG, f)
        d = dual_core_ep_decompose(ah)
        assert (d.core_part() + d.nilpotent_part() - ah).norm() < 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            dual_core_ep_decompose(DualMatrix(np.zeros((2, 3)),
                                              np.zeros((2, 3))))


class TestDcepgiFromDecomposition:
    def test_matches_canonical_formula(self):
        # against the oracle that solves the defining system, not against
        # dcepgi, which is the same block formula on the same frame
        checked = 0
        for _ in range(20):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            d = dual_core_ep_decompose(ah)
            if not d.canonical:
                continue
            oracle = dcepgi_bruteforce_oracle(ah)
            assert oracle is not None
            assert (dcepgi_from_decomposition(d) - oracle).norm() < 1e-9
            checked += 1
        assert checked >= 10

    def test_is_the_read_only_dcepgi(self):
        ah = existing_dual(RNG, random_frame(RNG))
        x = dcepgi_from_decomposition(dual_core_ep_decompose(ah))
        assert x is dcepgi(ah)
        with pytest.raises(ValueError, match="read-only"):
            x.inf[0, 0] = 1.0

    def test_canonical_without_inverse_rejected(self):
        # canonical (T2 = O) but Nhat^m != O: the DCEPGI does not exist,
        # and the frame's block formula misses cep_power by 0.85
        ah = DualMatrix(np.diag([1.0, 0.0, 0.0]),
                        np.arange(1.0, 10.0).reshape(3, 3))
        d = dual_core_ep_decompose(ah)
        assert d.canonical
        with pytest.raises(InverseNotExistError) as info:
            dcepgi_from_decomposition(d)
        cert = info.value.certificate
        assert cert == dcepgi_exists(ah) and not cert.exists
        assert cert.residuals["core_ep_projector"] == pytest.approx(
            0.85018, abs=1e-5)

    def test_certified_at_the_decomposition_tolerance(self):
        # the tolerance d was built with decides, as for canonical
        ah = DualMatrix(np.diag([1.0, 0.0, 0.0]),
                        np.arange(1.0, 10.0).reshape(3, 3))
        d = dual_core_ep_decompose(ah, tol=1.0)
        assert dcepgi_from_decomposition(d) is dcepgi(ah, tol=1.0)

    def test_nilpotent_standard_part(self):
        # t = 0: T1hat is empty, so the decomposition is canonical, and
        # the DCEPGI, when it exists, is the zero dual matrix.  It exists
        # exactly when Nhat^m = O: here (A + eps B)^4 = O for a strictly
        # upper triangular B, not for a full one
        a = np.triu(np.arange(1.0, 17.0).reshape(4, 4), 1)
        full = np.arange(16.0).reshape(4, 4) - 7.5
        ah = DualMatrix(a, full)
        d = dual_core_ep_decompose(ah)
        assert (d.t, d.canonical) == (0, True)
        assert (d.nilpotent_part() - ah).norm() < 1e-12 * ah.norm()
        with pytest.raises(InverseNotExistError) as info:
            dcepgi_from_decomposition(d)
        assert info.value.certificate == dcepgi_exists(ah)
        assert info.value.certificate.residuals["core_ep_projector"] > 0.5

        ah = DualMatrix(a, np.triu(full, 1))
        d = dual_core_ep_decompose(ah)
        assert (d.t, d.canonical) == (0, True)
        x = dcepgi_from_decomposition(d)
        assert x.shape == (4, 4)
        assert not x.std.any() and not x.inf.any()
        assert max(core_ep_residuals(ah, x, 4).values()) <= 1e-12

    def test_non_canonical_rejected(self):
        f = Frame(RNG, 4, 2, 2)
        ah = random_dual(RNG, f)
        d = dual_core_ep_decompose(ah)
        if d.canonical:
            pytest.skip("random instance happened to be canonical")
        with pytest.raises(InverseNotExistError):
            dcepgi_from_decomposition(d)


class TestCNSplit:
    def test_split_properties(self):
        for _ in range(20):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            split = dual_cn_split(ah)
            assert (split.core + split.nilpotent - ah).norm() < 1e-9
            x = dcepgi(ah)
            assert (split.core - ah @ x @ ah).norm() < 1e-10
            # the nilpotent part is dual nilpotent
            k = max(f.m, 1) * 2
            assert dual_power(split.nilpotent, k).norm() < 1e-6

    def test_matches_block_split_when_canonical(self):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        d = dual_core_ep_decompose(ah, u=f.U)
        assert d.canonical
        split = dual_cn_split(ah)
        core = ah @ dcepgi(ah) @ ah
        for got in (split.core, d.core_part()):
            assert (got - core).norm() < 1e-8
        for got in (split.nilpotent, d.nilpotent_part()):
            assert (got - (ah - core)).norm() < 1e-8

    def test_requires_existence(self):
        f = random_frame(RNG)
        with pytest.raises(InverseNotExistError):
            dual_cn_split(random_dual(RNG, f))

    def test_exists_with_b3(self):
        ah = existing_dual_b3(RNG, random_frame(RNG))
        assert ah is not None
        split = dual_cn_split(ah)
        assert (split.core + split.nilpotent - ah).norm() < 1e-9

    def test_matches_block_split_when_not_canonical(self):
        # Ahat Ahat^cep Ahat = Uhat [[T1hat, T2hat], [O, O]] Uhat^T holds
        # whenever the DCEPGI exists, canonical or not
        checked = 0
        while checked < 10:
            ah = existing_dual_b3(RNG, random_frame(RNG))
            if ah is None:
                continue
            d = dual_core_ep_decompose(ah)
            assert not d.canonical
            split = dual_cn_split(ah)
            scale = ah.norm()
            core = ah @ dcepgi(ah) @ ah
            assert (split.core - core).norm() < 1e-12 * scale
            assert (split.nilpotent - (ah - core)).norm() < 1e-12 * scale
            checked += 1
