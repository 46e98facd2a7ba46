"""Acceptance suite: seven end-to-end criteria.

Each test prints the residuals it measured so the run log doubles as an
acceptance report.  Where a criterion pins values on small integer
instances, the test proves them in exact rational arithmetic
(``fractions.Fraction``) before comparing the floating-point results:
criterion 3 certifies that its factors have no DCEPGI by the integers
-30 and 8 and verifies every pinned inverse against the defining
identities; criterion 6 checks the 2x2 instance on which the first
three first-order-form conditions hold and the last two fail.
"""

import time

import numpy as np
import pytest

import dualgi
from dualgi import (DEFAULT_TOL, DualMatrix, core_ep_inverse, dcepgi,
                    dcepgi_bruteforce_oracle, dcepgi_compact, dcepgi_exists,
                    ddgi, ddgi_exists, dmpgi, dmpgi_exists, dual_core_ep_decompose,
                    dual_power, first_order_form_report, order_law_check,
                    s_matrix, solve_general, solve_unique_in_range)
from dualgi.errors import InverseNotExistError
from dualgi.inverses import (core_ep_residuals, drazin_residuals,
                             penrose_residuals)
from helpers import (exact_core_ep_residuals, exact_mul, existing_dual,
                     existing_dual_b3, fractions, mp_existing_dual,
                     random_dual, random_dual_vector, random_frame,
                     reducing_dual, stacked_rank_gap)

# the five first-order-form conditions: three equivalent ones, and a
# pair that adds the right-sided identity S A^m (A^m)^+ = S
TRIPLE = ("first_order_form", "power_projector", "cep_projector")
PAIR = ("two_sided_projector", "range_null_inclusions")


def test_criterion_1_nonexistence_witness_regression():
    """3x3 index-2 witness: pinned core-EP inverse and S-matrix, DCEPGI
    proven not to exist via the core-EP projector condition."""
    start = time.perf_counter()
    a = np.array([[1.0, 2, -2], [0, 0, -2], [0, 0, 0]])
    b = np.array([[1.0, 5, -2], [0, 3, -2], [2, 0, 4]])

    a_cep = core_ep_inverse(a)
    expected_cep = np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]])
    cep_err = np.abs(a_cep - expected_cep).max()
    assert cep_err < 1e-12

    s = s_matrix(a, b, 2)
    expected_s = np.array([[-2.0, 13, -26], [-4, 0, -14], [2, 4, -4]])
    s_err = np.abs(s - expected_s).max()
    assert s_err < 1e-12

    cert = dcepgi_exists(DualMatrix(a, b))
    assert not cert.exists
    assert cert.residuals["core_ep_projector"] > cert.tolerance
    assert dcepgi_bruteforce_oracle(DualMatrix(a, b)) is None

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] cep_err={cep_err:.2e} s_err={s_err:.2e} "
          f"projector_residual={cert.residuals['core_ep_projector']:.3f} "
          f"elapsed={elapsed:.3f}s")


def test_criterion_2_decomposition_regression():
    """4x4 index-3 regression: pinned dual core-EP decomposition blocks,
    verified in the quoted frame and frame-invariantly via the unique
    core/nilpotent block split."""
    start = time.perf_counter()
    a = np.array([[1.0, 0, 0, 0], [0, 0, -1, 3], [0, 0, 0, -2], [0, 0, 0, 0]])
    b = np.array([[1.0, 0, -1, 1], [0, 1, -1, 0], [0, 3, 0, -2],
                  [0, 2, 0, -1]])
    u = np.array([[1.0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    ah = DualMatrix(a, b)

    d = dual_core_ep_decompose(ah, u=u)
    assert d.m == 3 and d.t == 1
    assert np.linalg.norm(d.U3) < 1e-10
    assert d.canonical

    errs = {
        "T1_std": np.abs(d.T1_hat.std - np.array([[1.0]])).max(),
        "T1_inf": np.abs(d.T1_hat.inf - np.array([[1.0]])).max(),
        "T2_std": np.abs(d.T2_hat.std - np.zeros((1, 3))).max(),
        "T2_inf": np.abs(d.T2_hat.inf - np.array([[0.0, 1, 1]])).max(),
        "N_std": np.abs(d.N_hat.std
                        - np.array([[0.0, -3, -1], [0, 0, 0], [0, 2, 0]])).max(),
        "N_inf": np.abs(d.N_hat.inf
                        - np.array([[1.0, 0, -1], [-2, -1, 0], [3, 2, 0]])).max(),
        "reconstruction": (d.reconstruct() - ah).norm(),
        "unitarity": (d.U_hat.T @ d.U_hat - DualMatrix.eye(4)).norm(),
    }
    assert max(errs.values()) < 1e-10

    # orthogonal freedom: the automatically chosen frame gives the same
    # matrix-level core/nilpotent block split
    d_auto = dual_core_ep_decompose(ah)
    split_err = max((d_auto.core_part() - d.core_part()).norm(),
                    (d_auto.nilpotent_part() - d.nilpotent_part()).norm(),
                    (d_auto.reconstruct() - ah).norm())
    assert split_err < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 2] max_block_err={max(errs.values()):.2e} "
          f"split_err={split_err:.2e} elapsed={elapsed:.3f}s")


def test_criterion_3_order_law_counterexample_regression():
    """Order laws on products, pinned in exact rational arithmetic.

    Nonexistence regression.  The factors Chat and Dhat below have
    standard parts C and D of index 1 (see the inverses pinned next).
    At index 1 the eps part of X Ahat^2 = Ahat, applied to z in N(A),
    gives X0 A B z = B z, and X0 = A X0^2 gives y^T X0 = 0 for y in
    N(A^T); hence y^T B z = 0 whenever the DCEPGI exists.  For Chat,
    y = (5, -4, 7) and z = e3 give y^T B z = -30; for Dhat, y = (1, -1, 1)
    and z = e3 give y^T B z = 8.  Neither factor has a DCEPGI, so the
    order laws cannot be posed for this pair.

    Counterexample.  With the same standard parts and B = A E11 + E11 A
    (a form A W + V A, which always meets the index-1 condition), all
    three DCEPGIs exist.  Each pinned fraction is verified against the
    three dual core-EP identities exactly, and uniqueness makes it the
    DCEPGI.  The reverse law, the forward law and the commuting
    sufficient conditions all fail.
    """
    start = time.perf_counter()
    c = fractions([[2, 1, 0], [-1, 3, 0], [-2, 1, 0]])
    d = fractions([[1, -1, 0], [0, 2, 0], [-1, 3, 0]])

    # the counterexample pair and its product
    ch = (c, fractions([[4, 1, 0], [-1, 0, 0], [-2, 0, 0]]))
    dh = (d, fractions([[2, -1, 0], [0, 0, 0], [-1, 0, 0]]))
    e11 = fractions([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert (ch[1] == c @ e11 + e11 @ c).all()
    assert (dh[1] == d @ e11 + e11 @ d).all()
    cdh = exact_mul(ch, dh)
    x_c = (fractions([["5/18", "-1/45", "-19/90"],
                      ["1/6", "4/15", "1/30"],
                      ["-13/126", "53/315", "107/630"]]),
           fractions([["-65/162", "-41/405", "173/405"],
                      ["-2/27", "-2/27", "7/54"],
                      ["251/567", "8/567", "-433/1134"]]))
    x_d = (fractions([["5/6", "2/3", "-1/6"],
                      ["1/6", "1/3", "1/6"],
                      ["-2/3", "-1/3", "1/3"]]),
           fractions([["-10/9", "-11/9", "13/18"],
                      ["-1/18", "-1/9", "1/9"],
                      ["17/9", "16/9", "-7/9"]]))
    x_cd = (fractions([["13/36", "1/9", "-7/36"],
                       ["1/12", "2/15", "1/60"],
                       ["-53/252", "-1/315", "187/1260"]]),
            fractions([["-349/324", "-92/405", "727/810"],
                       ["-1/27", "-1/27", "7/108"],
                       ["163/162", "125/567", "-1685/2268"]]))
    # X0 A^2 = A forces rank(A^2) = rank(A), and each A is singular (zero
    # last column), so m = 1 is the index of C, D and CD; the standard
    # parts of x_c and x_d are the real core-EP inverses of C and D.
    for ah, xh in ((ch, x_c), (dh, x_d), (cdh, x_cd)):
        assert not any(row[2] for row in ah[0])
        assert max(exact_core_ep_residuals(ah, xh, 1).values()) == 0
    # CD != DC, and already the standard parts break both laws
    assert (c @ d != d @ c).any()
    assert (exact_mul(x_d, x_c)[0] != x_cd[0]).any()
    assert (exact_mul(x_c, x_d)[0] != x_cd[0]).any()

    # the nonexistence regression, certified exactly
    def to_dual(xh):
        return DualMatrix(xh[0].astype(float), xh[1].astype(float))

    e3 = fractions([[0], [0], [1]])
    bad_ch = (c, fractions([[2, 2, 4], [3, -1, 2], [-4, -2, -6]]))
    bad_dh = (d, fractions([[3, -4, 3], [1, 0, -1], [1, -5, 4]]))
    for (a, b), y, certificate in ((bad_ch, [[5, -4, 7]], -30),
                                   (bad_dh, [[1, -1, 1]], 8)):
        y = fractions(y)
        assert not (y @ a).any() and not (a @ e3).any()
        assert (y @ b @ e3)[0, 0] == certificate

        bad = to_dual((a, b))
        with pytest.raises(InverseNotExistError) as err:
            dcepgi(bad)
        cert = err.value.certificate
        assert min(cert.residuals.values()) > cert.tolerance
        assert dcepgi_bruteforce_oracle(bad) is None
    with pytest.raises(InverseNotExistError, match="first factor"):
        order_law_check(to_dual(bad_ch), to_dual(bad_dh))

    # the program agrees with the exact inverses and rejects both laws
    c_dual, d_dual = to_dual(ch), to_dual(dh)
    for got, want in ((dcepgi(c_dual), x_c), (dcepgi(d_dual), x_d),
                      (dcepgi(c_dual @ d_dual), x_cd)):
        assert (got - to_dual(want)).norm() < 1e-12
    report = order_law_check(c_dual, d_dual)
    assert not report.reverse_holds and not report.forward_holds
    assert not report.quadruple_holds
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 3] certificates -30 and 8; "
          f"reverse={report.reverse_residual:.3f} "
          f"forward={report.forward_residual:.3f} elapsed={elapsed:.3f}s")


def test_criterion_4_oracle_equivalence():
    """500 random dual matrices (n <= 6, indices 1..3, mixed existence):
    the brute-force oracle and the closed-form route agree on existence
    and value."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    n_exist = 0
    max_diff = 0.0
    for k in range(500):
        f = random_frame(rng, n_max=6, m_max=3)
        if k % 3 == 0:
            ah = random_dual(rng, f)
        elif k % 3 == 1:
            ah = existing_dual(rng, f)
        else:
            ah = existing_dual_b3(rng, f) or existing_dual(rng, f)
        cert = dcepgi_exists(ah)
        got = dcepgi_bruteforce_oracle(ah, 1e-8)
        assert cert.exists == (got is not None), f"disagreement at case {k}"
        if cert.exists:
            n_exist += 1
            diff = (dcepgi(ah) - got).norm()
            max_diff = max(max_diff, diff)
            assert diff < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[criterion 4] existing={n_exist}/500 max_value_diff="
          f"{max_diff:.2e} elapsed={elapsed:.1f}s")


def test_criterion_5_identity_suites():
    """1000 random existing instances: every inverse re-verifies its
    defining dual identities below 1e-9, and the compact product
    formula agrees with the canonical one."""
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = {"penrose": 0.0, "drazin": 0.0, "core_ep": 0.0, "compact": 0.0}
    for _ in range(1000):
        f = random_frame(rng)
        mp_inst = mp_existing_dual(rng, f)
        worst["penrose"] = max(worst["penrose"],
                               max(penrose_residuals(
                                   mp_inst, dmpgi(mp_inst)).values()))
        inst = existing_dual(rng, f)
        m = max(dualgi.index(inst.std), 1)
        worst["drazin"] = max(worst["drazin"],
                              max(drazin_residuals(inst, ddgi(inst),
                                                   m).values()))
        x = dcepgi(inst)
        worst["core_ep"] = max(worst["core_ep"],
                               max(core_ep_residuals(inst, x, m).values()))
        worst["compact"] = max(worst["compact"],
                               (dcepgi_compact(inst) - x).norm())
    assert max(worst.values()) < 1e-9
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 5] worst residuals: " +
          " ".join(f"{k}={v:.2e}" for k, v in worst.items()) +
          f" elapsed={elapsed:.1f}s")


def test_criterion_6_equivalence_suites():
    """Three equivalence suites of 500 instances each: the paired
    existence conditions produce identical verdicts on every draw."""
    start = time.perf_counter()
    rng = np.random.default_rng(6)

    def draw(k):
        f = random_frame(rng)
        if k % 3 == 0:
            return f, random_dual(rng, f)
        if k % 3 == 1:
            return f, existing_dual(rng, f)
        return f, existing_dual_b3(rng, f) or existing_dual(rng, f)

    # suite A: DCEPGI existence, the certificate vs the brute-force
    # oracle vs the construction (random B has no DCEPGI)
    for k in range(500):
        _, ah = draw(k)
        verdict = dcepgi_exists(ah).exists
        assert verdict == (dcepgi_bruteforce_oracle(ah) is not None), k
        assert verdict == (k % 3 != 0), k

    # suite B: DDGI existence vs the DCEPGI certificate, the augmented
    # rank of the stacked 2n x 2n [[S, A^m], [A^m, O]], the dual MP
    # inverse of the m-th power ((t, m) from the construction) and the
    # construction itself
    for k in range(500):
        f, ah = draw(k)
        verdict = ddgi_exists(ah).exists
        assert verdict == dcepgi_exists(ah).exists, k
        assert verdict == (stacked_rank_gap(ah, f.t, f.m) == 0), k
        assert verdict == dmpgi_exists(dual_power(ah, f.m)).exists, k
        assert verdict == (k % 3 != 0), k

    # suite C, provable part: within the five first-order-form
    # conditions, the first three agree with each other and the last
    # two agree with each other on every draw
    n_hold = 0
    for k in range(500):
        f = random_frame(rng)
        inst = existing_dual(rng, f) if k % 2 == 0 \
            else (existing_dual_b3(rng, f) or existing_dual(rng, f))
        report = first_order_form_report(inst)
        triple = {report.conditions[c][0] for c in TRIPLE}
        pair = {report.conditions[c][0] for c in PAIR}
        assert len(triple) == 1 and len(pair) == 1
        if report.conditions["first_order_form"][0]:
            n_hold += 1
    assert 0 < n_hold < 500  # both branches exercised
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 6] suites A/B and the paired parts of suite C "
          f"agreed; first-order form held on {n_hold}/500 "
          f"elapsed={elapsed:.1f}s")


def test_criterion_6_five_condition_agreement():
    """Suite C in full: how the five first-order-form conditions relate
    on random instances whose DCEPGI exists.

    The first three are equivalent.  The last two equal the first three
    plus the right-sided identity S A^m (A^m)^+ = S, which the first
    three do not imply.  Exact counterexample: A = [[1, 1], [0, 0]],
    B = [[0, 1], [0, 0]] has Ahat^cep = A^cep = [[1, 0], [0, 0]], so the
    first-order form holds, but S A A^cep = O != S.  The random draws
    reach all three branches: all five true, all five false, and the
    first three only.
    """
    # the 2x2 counterexample, exactly; A is a singular idempotent, so
    # m = 1 and S = B
    a = fractions([[1, 1], [0, 0]])
    b = fractions([[0, 1], [0, 0]])
    assert (a @ a == a).all()
    a_cep = fractions([[1, 0], [0, 0]])
    x = (a_cep, -a_cep @ b @ a_cep)  # the first-order form
    assert not x[1].any()
    assert max(exact_core_ep_residuals((a, b), x, 1).values()) == 0
    p = a @ a_cep
    assert (p @ b == b).all() and not (b @ p).any() and b.any()

    report = first_order_form_report(DualMatrix(a.astype(float),
                                                b.astype(float)))
    assert all(report.conditions[c][0] for c in TRIPLE)
    assert not any(report.conditions[c][0] for c in PAIR)
    assert not report.all_equivalent_observed

    # random draws: seed-66 suite C, then instances where R(A^m) reduces A
    rng = np.random.default_rng(66)
    branches = {"all_true": 0, "all_false": 0, "triple_only": 0}
    for k in range(600):
        f = random_frame(rng)
        if k >= 500:
            inst = reducing_dual(rng, f)
        elif k % 2 == 0:
            inst = existing_dual(rng, f)
        else:
            inst = existing_dual_b3(rng, f) or existing_dual(rng, f)
        report = first_order_form_report(inst)
        triple = {report.conditions[c][0] for c in TRIPLE}
        pair = {report.conditions[c][0] for c in PAIR}
        assert len(triple) == 1 and len(pair) == 1, f"case {k}"
        triple, pair = triple.pop(), pair.pop()

        s = s_matrix(inst.std, inst.inf, f.m)
        am = np.linalg.matrix_power(inst.std, f.m)
        right_sided = np.linalg.norm(s @ am @ np.linalg.pinv(am) - s) \
            / (1.0 + np.linalg.norm(s)) <= DEFAULT_TOL
        assert pair == (triple and right_sided), f"case {k}"
        assert report.all_equivalent_observed == (not triple or right_sided), \
            f"case {k}"
        branches["all_true" if pair else
                 "triple_only" if triple else "all_false"] += 1
    assert branches["all_true"] >= 100
    assert branches["all_false"] > 0 and branches["triple_only"] > 0
    print(f"\n[criterion 6] five-condition branches over 600 draws: "
          + " ".join(f"{k}={v}" for k, v in branches.items()))


def test_criterion_7_solver_suite():
    """100 random existing systems x 20 homogeneous shifts each: the
    surrogate-system residual stays below 1e-9; the unique in-range
    solution passes membership and the uniqueness probe."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_general = worst_member = 0.0
    for _ in range(100):
        f = random_frame(rng)
        ah = existing_dual(rng, f)
        bhat = random_dual_vector(rng, f.n)
        sol = solve_general(ah, bhat)
        assert sol.residual < 1e-9
        m = max(dualgi.index(ah.std), 1)
        ahm = dual_power(ah, m)
        rhs = dual_power(ah, 2 * m) @ (dmpgi(ahm) @ bhat)
        for _ in range(20):
            xh = sol.solution(random_dual_vector(rng, f.n))
            res = (dual_power(ah, m + 1) @ xh - rhs).norm() / (1 + bhat.norm())
            worst_general = max(worst_general, res)
            assert res < 1e-9

        xhat = solve_unique_in_range(ah, bhat, tol=1e-9)
        x = dcepgi(ah)
        eq_res = (ah @ (x @ xhat) - x @ bhat).norm() / (1 + bhat.norm())
        worst_member = max(worst_member, eq_res)
        # uniqueness probe: a genuine in-range shift breaks the equation
        z = ahm @ random_dual_vector(rng, f.n)
        if z.norm() > 1e-6:
            bad = (ah @ (x @ (xhat + z)) - x @ bhat).norm()
            assert bad > 1e-9
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 7] worst_general={worst_general:.2e} "
          f"worst_unique={worst_member:.2e} elapsed={elapsed:.1f}s")
