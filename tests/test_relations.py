"""Relationship predicates: first-order form, rank test, range/null
spaces, order laws."""

import numpy as np
import pytest

import dualgi
from dualgi import (DualMatrix, core_ep_inverse, dcepgi,
                    first_order_form_report, order_law_check,
                    range_null_report, rank_test)
from dualgi.errors import DimensionError, HypothesisError, InverseNotExistError
from helpers import (REDUCING_CUTOFF_CASES, Frame, existing_dual,
                     existing_dual_b3, orthogonal, random_dual, random_frame,
                     reducing_dual, seeded_reducing_dual)

RNG = np.random.default_rng(20240821)


EQUIVALENT_TRIPLE = ("first_order_form", "power_projector", "cep_projector")
STRONGER_PAIR = ("two_sided_projector", "range_null_inclusions")


def triple_agrees(report):
    return len({report.conditions[k][0] for k in EQUIVALENT_TRIPLE}) == 1


def pair_agrees(report):
    return len({report.conditions[k][0] for k in STRONGER_PAIR}) == 1


class TestFirstOrderForm:
    def test_holds_for_structured_instances(self):
        for _ in range(20):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            report = first_order_form_report(ah)
            assert triple_agrees(report) and pair_agrees(report)
            assert report.conditions["first_order_form"][0]
            x = dcepgi(ah)
            a_cep = core_ep_inverse(ah.std)
            assert np.allclose(x.inf, -a_cep @ ah.inf @ a_cep, atol=1e-8)

    def test_stronger_pair_implies_triple(self):
        # the projector pair conditions are strictly stronger than the
        # first-order form: whenever they hold, so does the triple
        seen_gap = False
        for _ in range(40):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f)
            report = first_order_form_report(ah)
            if report.conditions["two_sided_projector"][0]:
                assert report.conditions["first_order_form"][0]
            elif report.conditions["first_order_form"][0]:
                seen_gap = True  # triple holds, pair does not
        assert seen_gap

    def test_fails_jointly_for_b3_instances(self):
        count = 0
        for _ in range(20):
            ah = existing_dual_b3(RNG, random_frame(RNG))
            if ah is None:
                continue
            report = first_order_form_report(ah)
            assert triple_agrees(report) and pair_agrees(report)
            if not report.conditions["first_order_form"][0]:
                count += 1
        assert count > 0  # the failing branch is actually exercised

    @pytest.mark.parametrize("seed,shape", REDUCING_CUTOFF_CASES)
    def test_all_five_hold_when_range_reduces(self, seed, shape):
        # S = P S = S P by construction, so all five conditions hold;
        # power_projector once failed here on a default-cutoff pinv of A^m
        report = first_order_form_report(seeded_reducing_dual(seed, shape))
        assert all(holds for holds, _ in report.conditions.values()), \
            report.conditions
        assert report.all_equivalent_observed

    @pytest.mark.parametrize("seed", range(3))
    def test_projector_conditions_at_ill_conditioned_t1(self, seed):
        # cond(T1) = 1e4: a projector formed as A^m (A^m)^+ left a
        # roundoff floor of order cond(A^m) eps, and power_projector
        # read 3.6e-10 to 1.1e-9 here (existing_dual) and 1.4e-9 to
        # 3.2e-9 (reducing_dual)
        rng = np.random.default_rng(seed)
        report = first_order_form_report(
            existing_dual(rng, Frame(rng, 6, 2, 2, cond=1e4)))
        assert all(report.conditions[k][0] for k in EQUIVALENT_TRIPLE), \
            report.conditions
        rng = np.random.default_rng(seed)
        report = first_order_form_report(
            reducing_dual(rng, Frame(rng, 6, 2, 2, cond=1e4)))
        assert all(holds for holds, _ in report.conditions.values()), \
            report.conditions
        assert report.all_equivalent_observed

    def test_zero_infinitesimal_all_hold(self):
        f = random_frame(RNG)
        report = first_order_form_report(DualMatrix.from_real(f.A))
        assert all(holds for holds, _ in report.conditions.values())

    def test_requires_existence(self):
        f = random_frame(RNG)
        with pytest.raises(InverseNotExistError):
            first_order_form_report(random_dual(RNG, f))


class TestRankTest:
    def test_agrees_with_first_order_form(self):
        for _ in range(30):
            f = random_frame(RNG)
            ah = existing_dual(RNG, f) if RNG.random() < 0.5 \
                else existing_dual_b3(RNG, f)
            if ah is None:
                continue
            report = first_order_form_report(ah)
            assert rank_test(ah) == report.conditions["first_order_form"][0]

    def test_requires_existence(self):
        f = random_frame(RNG)
        with pytest.raises(InverseNotExistError):
            rank_test(random_dual(RNG, f))

    @pytest.mark.parametrize("build", [existing_dual, reducing_dual])
    @pytest.mark.parametrize("seed, n", [(8, 17), (18, 14)])
    def test_holds_at_ill_conditioned_power(self, seed, n, build):
        # index 4, cond(T1) = 1e4: an SVD of [A^m, S] cut at
        # tol * max(sigma_max, sigma_max(A)^m) dropped sigma_t(A^m)
        # itself (sigma_t / cut 0.82 and 0.26) and said False here
        rng = np.random.default_rng(seed)
        ah = build(rng, Frame(rng, n, (n - 4) // 2, 4, cond=1e4))
        assert first_order_form_report(ah).conditions["first_order_form"][0]
        assert rank_test(ah)


class TestRangeNull:
    def test_verified_on_first_order_instances(self):
        for _ in range(15):
            f = random_frame(RNG)
            report = range_null_report(existing_dual(RNG, f), tol=1e-8)
            assert report.all_hold

    def test_hypothesis_failure_raises(self):
        for _ in range(10):
            ah = existing_dual_b3(RNG, random_frame(RNG))
            if ah is None:
                continue
            if first_order_form_report(ah).conditions["first_order_form"][0]:
                continue
            with pytest.raises(HypothesisError):
                range_null_report(ah)
            return
        pytest.skip("no first-order-form violation drawn")

    def test_invertible_input(self):
        a = RNG.standard_normal((3, 3)) + 4 * np.eye(3)
        report = range_null_report(DualMatrix.from_real(a), tol=1e-8)
        assert report.all_hold
        assert report.intersection_dimension == 0

    def test_intersection_trivial_below_roundoff(self):
        # Uhat is dual orthogonal by construction; ||U^T U - I||_F / n
        # compared with tol reported a dimension of 2 at tol = 1e-16
        f = Frame(np.random.default_rng(3), 6, 2, 2)
        for tol in (1e-16, 1e-14):
            report = range_null_report(DualMatrix(f.A), tol=tol)
            assert report.intersection_dimension == 0

    @pytest.mark.parametrize("n, m", [(6, 2), (14, 4), (17, 4)])
    @pytest.mark.parametrize("build", [existing_dual, reducing_dual])
    def test_holds_at_ill_conditioned_t1(self, n, m, build):
        # cond(T1) = 1e4: least squares and null bases on the stacked
        # 2n x 2n matrices carried cond(A^m) eps, and denied all_hold on
        # 110 of these 120 inputs (range residual up to 0.56, null up to
        # 1.7) where the first-order form holds
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ah = build(rng, Frame(rng, n, (n - m) // 2, m, cond=1e4))
            report = range_null_report(ah)
            assert report.all_hold, (seed, report)


@pytest.mark.parametrize("name", ["rank_test", "range_null_report"])
def test_warm_frame_factors_nothing(name, monkeypatch):
    # on a kept frame both read U, Uhat and S: no SVD, least squares or
    # pseudo-inverse of their own
    def refuse(*args, **kwargs):
        raise AssertionError("factorization called")

    rng = np.random.default_rng(3)
    ah = existing_dual(rng, Frame(rng, 9, 4, 3))
    dcepgi(ah)
    for routine in ("svd", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, routine, refuse)
    result = getattr(dualgi, name)(ah)
    assert result if name == "rank_test" else result.all_hold


def commuting_pair(rng, n=4):
    """Symmetric commuting standard parts from a shared eigenbasis with
    commuting infinitesimal parts built from the same basis."""
    q = orthogonal(rng, n)
    da = np.diag(rng.uniform(1.0, 2.0, size=n))
    db = np.diag(rng.uniform(1.0, 2.0, size=n))
    ea = np.diag(rng.standard_normal(n))
    eb = np.diag(rng.standard_normal(n))
    ah = DualMatrix(q @ da @ q.T, q @ ea @ q.T)
    bh = DualMatrix(q @ db @ q.T, q @ eb @ q.T)
    return ah, bh


class TestOrderLaws:
    def test_sufficient_conditions_imply_both_laws(self):
        for _ in range(15):
            ah, bh = commuting_pair(RNG)
            report = order_law_check(ah, bh)
            assert report.quadruple_holds
            assert report.reverse_holds and report.forward_holds

    def test_identity_second_factor(self):
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        report = order_law_check(ah, DualMatrix.eye(f.n), tol=1e-8)
        assert report.reverse_holds and report.forward_holds

    def test_generic_pair_breaks_laws(self):
        # invertible dual matrices always admit a DCEPGI (their inverse)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        b = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        ah = DualMatrix(a, rng.standard_normal((3, 3)))
        bh = DualMatrix(b, rng.standard_normal((3, 3)))
        report = order_law_check(ah, bh)
        assert not report.quadruple_holds
        assert not report.reverse_holds or not report.forward_holds

    def test_nonexistence_names_the_factor(self):
        f = random_frame(RNG)
        good = existing_dual(RNG, f)
        bad = random_dual(RNG, f)
        with pytest.raises(InverseNotExistError, match="second factor"):
            order_law_check(good, bad)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            order_law_check(DualMatrix.eye(2), DualMatrix.eye(3))

    def test_transpose_variant_reported(self):
        ah, bh = commuting_pair(RNG)
        report = order_law_check(ah, bh)
        assert "transpose_commute_variant" in report.sufficient_conditions
