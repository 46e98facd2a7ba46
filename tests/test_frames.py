"""One core-EP frame per input, across public calls.

``core_ep_decompose`` is wrapped wherever ``dualgi`` binds it, and each
public call is counted on an index-3 input: every certificate, inverse,
decomposition and solution of one call derives from a single frame.
The dual half of that frame is counted the same way: the pass that
forms S (``dual._s_terms``, also inside ``s_matrix`` and
``dual_power``) and the frame's one pass through U^T B U, T1^-1, the
Sylvester solve for U3 and C = B4 - U3 T2 (``_Frame.__init__``) each
run at most once per call, and a cold verdict forms nothing of the
witness side.  Each test starts with no kept frame (``conftest.py``),
so each count is a cold call's; the tests of the kept frame
(``_Frame.of``) count a chain of calls on one input, and check that
the kept frame gives, bit for bit, what a cold call gives:
after the caller changes the input's arrays in place, after it tries
to change an array a call returned, and over a sweep of inputs.
The SVDs, least-squares solves, Cholesky and QR factorizations,
linear solves and inverses of a call are recorded the same way,
``numpy.linalg`` wrapped also where ``norm(x, 2)`` looks them up: the
DDGI and solver paths factor nothing larger than n x n, and the DDGI,
its certificate and both solvers factor nothing beyond the frame's SVDs
and the inverse of T1.  A certificate forms its witness on the first
read of ``witness``: until then it keeps its frame alive, after that
(or when the inverse does not exist) it keeps none, and the DMPGI's
witness reads no array of the caller's.
"""

import collections
import functools
import gc
import json
import pickle
import sys
import threading
import weakref

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest

import dualgi
from dualgi import DualMatrix, DualVector, inverses
from dualgi.dual import _s_terms
from dualgi.cli import main
from dualgi.errors import (DimensionError, DualgiError, HypothesisError,
                           InverseNotExistError, NumericalError)
from dualgi.io import dual_vector_to_dict, write_dual_matrix
from dualgi.realkernel import core_ep_decompose
from helpers import (Frame, bits, existing_dual, existing_dual_b3,
                     mp_existing_dual, random_dual, random_dual_vector,
                     reducing_dual)

RNG = np.random.default_rng(20260301)


@pytest.fixture
def frame_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return core_ep_decompose(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "dualgi" or name.startswith("dualgi.")) \
                and getattr(module, "core_ep_decompose", None) \
                is core_ep_decompose:
            monkeypatch.setattr(module, "core_ep_decompose", counted)
    return calls


@pytest.fixture
def dual_frame_calls(monkeypatch):
    """How often S and the frame's one pass (U^T B U, T1^-1, U3 and C)
    are formed."""
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    wrapped = counted("s_terms", _s_terms)
    for name, module in list(sys.modules.items()):
        if (name == "dualgi" or name.startswith("dualgi.")) \
                and getattr(module, "_s_terms", None) is _s_terms:
            monkeypatch.setattr(module, "_s_terms", wrapped)
    monkeypatch.setattr(inverses._Frame, "__init__",
                        counted("pass", inverses._Frame.__init__))
    return calls


@pytest.fixture
def linalg_calls(monkeypatch):
    """(name, input shape) of every SVD, lstsq, Cholesky, solve, QR, inv
    and pinv call."""
    calls = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            calls.append((name, args[0].shape))
            return fn(*args, **kwargs)
        return call

    for name in ("svd", "lstsq", "cholesky", "solve", "qr", "inv", "pinv"):
        wrapped = recorded(name, getattr(np.linalg, name))
        monkeypatch.setattr(np.linalg, name, wrapped)
        monkeypatch.setattr(linalg_impl, name, wrapped)
    return calls


@pytest.fixture(scope="module")
def index_three():
    f = Frame(RNG, 6, 2, 3)
    return existing_dual(RNG, f), random_dual_vector(RNG, f.n)


@pytest.fixture(scope="module")
def index_one():
    rng = np.random.default_rng(20261018)
    return existing_dual(rng, Frame(rng, 6, 3, 1))


ONE_FRAME = ("dcepgi_exists", "dcepgi", "ddgi", "dcepgi_compact",
             "dual_core_ep_decompose", "dual_cn_split",
             "first_order_form_report", "range_null_report",
             "solve_general", "solve_unique_in_range")


def _call(name, ah, bh):
    """``dualgi.<name>`` on ``ah``, and ``bh`` for the solvers."""
    return getattr(dualgi, name)(*((ah, bh) if name.startswith("solve")
                                   else (ah,)))


@pytest.mark.parametrize("name", ONE_FRAME)
def test_one_frame(name, frame_calls, index_three):
    ah, bh = index_three
    assert dualgi.index(ah.std) == 3
    _call(name, ah, bh)
    assert len(frame_calls) == 1
    assert frame_calls[0] is ah.std


@pytest.mark.parametrize("name", ONE_FRAME)
def test_one_dual_frame(name, dual_frame_calls, index_three):
    ah, bh = index_three
    _call(name, ah, bh)
    assert max(dual_frame_calls.values()) == 1, dual_frame_calls


@pytest.mark.parametrize("name", ["ddgi_exists", "ddgi", "dual_group"])
def test_ddgi_builds_no_power_pinv(name, monkeypatch, index_three, index_one):
    # the DDGI certificate and witness need no (Ahat^m)^+
    calls = []
    monkeypatch.setattr(dualgi.inverses, "_dmpgi_blocks",
                        lambda *args: calls.append(args))
    ah = index_one if name == "dual_group" else index_three[0]
    assert getattr(dualgi, name)(ah) is not None
    assert calls == []


def test_order_law_one_frame_per_matrix(frame_calls, index_three):
    ah, _ = index_three
    dualgi.order_law_check(ah, DualMatrix.eye(ah.shape[0]), tol=1e-8)
    assert len(frame_calls) == 3


def test_mp_inverses_build_no_frame(frame_calls, index_three):
    # verdicts on the Moore-Penrose side never need the core-EP frame
    ah, _ = index_three
    dualgi.dmpgi_exists(ah)
    dualgi.mpdgi(ah)
    assert frame_calls == []


@pytest.mark.parametrize("name, count", [
    # the staircase's m deflating steps: A^T, then ever smaller trailing
    # blocks, the first of which gives sigma_max(A); the last step's
    # factors prove the final block, T1^T, nonsingular, so it takes no SVD
    ("dcepgi_exists", 3),
    # A, which gives rank(A) and A^+
    ("dmpgi_exists", 1),
    # the frame's m only: the DCEPGI's residual decides the DDGI
    ("ddgi_exists", 3)])
def test_svd_count(name, count, linalg_calls, index_three):
    ah, _ = index_three
    getattr(dualgi, name)(ah)
    svds = [shape for kind, shape in linalg_calls if kind == "svd"]
    assert len(svds) == count, linalg_calls
    n = ah.shape[0]  # only the first SVD is n x n
    assert svds[0] == (n, n), svds
    assert all(max(shape) < n for shape in svds[1:]), svds


def test_svd_count_where_the_bound_fails(linalg_calls):
    # index 1, A = [[I, 2 I], [O, O]]: the step that deflates A^T leaves
    # ||Q_0^T P_r||_F^2 = 8/5 > 1, which bounds nothing, so the final
    # block's SVD decides: m + 1 SVDs
    a = np.block([[np.eye(2), 2 * np.eye(2)], [np.zeros((2, 4))]])
    dualgi.dcepgi_exists(DualMatrix(a, np.arange(16.0).reshape(4, 4)))
    svds = [shape for kind, shape in linalg_calls if kind == "svd"]
    assert svds == [(4, 4), (2, 2)], linalg_calls


#: The parts of a frame formed on first read for a witness or a
#: decomposition, never for a verdict.
WITNESS_SIDE = ("ahm", "t1_hat", "t2_hat", "n_hat", "u_hat", "u_hat1",
                "u_hat2", "t1_hat_inv", "first_order_residual", "drazin_top",
                "power_top", "dcepgi", "ddgi")


@pytest.mark.parametrize("name", ["dcepgi_exists", "ddgi_exists"])
def test_cold_verdict_footprint(name, linalg_calls, index_three):
    # a cold verdict at index 3 makes the frame's m SVDs and one
    # inverse (of T1), and forms nothing on the witness side
    assert all(isinstance(vars(inverses._Frame)[part],
                          functools.cached_property) for part in WITNESS_SIDE)
    ah, _ = index_three
    cert = getattr(dualgi, name)(ah)
    kinds = collections.Counter(kind for kind, _ in linalg_calls)
    assert kinds == {"svd": 3, "inv": 1}, linalg_calls
    df = inverses._last_frame[1]
    assert df.blocks.m == 3 and cert.exists
    assert "defect_residual" in vars(df)
    assert not set(WITNESS_SIDE) & set(vars(df)), sorted(vars(df))


def test_ddgi_certificate_factors_only_the_frame(linalg_calls, index_three):
    # the DDGI reads the DCEPGI's one residual, so it makes the same
    # calls: the frame's m SVDs and the inverse of T1, no Cholesky
    # (the kept frame is emptied between them, or the second would reuse it)
    ah, _ = index_three
    dualgi.dcepgi_exists(ah)
    cep_calls = list(linalg_calls)
    linalg_calls.clear()
    dualgi.inverses._last_frame = None
    dualgi.ddgi_exists(ah)
    assert linalg_calls == cep_calls
    assert "cholesky" not in [kind for kind, _ in linalg_calls]


@pytest.mark.parametrize("name", [
    "ddgi", "solve_general", "solve_unique_in_range"])
def test_witnesses_factor_only_the_frame(name, linalg_calls, index_three):
    # the DDGI, the projector I - Ahat^D Ahat, Ahat^m (Ahat^m)^+ bhat and
    # the range check all read the blocks of the dual core-EP
    # decomposition: the frame's m SVDs and the inverse of T1, no
    # (A^m)^+ by QR and solve, no lstsq, no pinv
    ah, bh = index_three
    _call(name, ah, bh)
    kinds = collections.Counter(kind for kind, _ in linalg_calls)
    assert kinds == {"svd": 3, "inv": 1}, linalg_calls


@pytest.mark.parametrize("name", [
    "ddgi_exists", "ddgi", "dual_group", "dcepgi_compact", "solve_general",
    "solve_unique_in_range"])
def test_no_factorization_above_n(name, linalg_calls, index_three,
                                  index_one):
    ah, bh = index_three
    args = (ah, bh) if name.startswith("solve") else (ah,)
    if name == "dual_group":  # needs index(A) <= 1
        args = (index_one,)
    getattr(dualgi, name)(*args)
    n = ah.shape[0]
    assert linalg_calls, "nothing recorded"
    assert all(max(shape) <= n for _, shape in linalg_calls), linalg_calls


@pytest.mark.parametrize("argv", [
    ["inverse", "--kind", "cep"], ["inverse", "--kind", "cep-compact"],
    ["decompose"], ["solve", "--mode", "general"],
    ["solve", "--mode", "unique-in-range"]])
def test_cli_one_frame(argv, frame_calls, index_three, tmp_path, capsys):
    ah, bh = index_three
    mat, rhs = tmp_path / "m.json", tmp_path / "b.json"
    write_dual_matrix(mat, ah)
    rhs.write_text(json.dumps(dual_vector_to_dict(bh)))
    files = [str(mat)] + ([str(rhs)] if argv[0] == "solve" else [])
    assert main(argv + files) == 0
    capsys.readouterr()
    assert len(frame_calls) == 1


@pytest.mark.parametrize("argv", [
    ["inverse", "--kind", "cep"], ["inverse", "--kind", "cep-compact"],
    ["decompose"], ["solve", "--mode", "general"],
    ["solve", "--mode", "unique-in-range"]])
def test_cli_one_dual_frame(argv, dual_frame_calls, frame_calls, index_three,
                            tmp_path, capsys):
    test_cli_one_frame(argv, frame_calls, index_three, tmp_path, capsys)
    assert max(dual_frame_calls.values()) == 1, dual_frame_calls


def test_cli_general_forms_the_dcepgi_once(monkeypatch, index_three,
                                           tmp_path, capsys):
    # the spot checks read the canonical DCEPGI that the solution used,
    # and apply Ahat m + 1 times rather than form Ahat^m
    forms = []
    form = dualgi.inverses._Frame.dcepgi.func

    def counted(df):
        forms.append(df)
        return form(df)

    prop = functools.cached_property(counted)
    prop.__set_name__(dualgi.inverses._Frame, "dcepgi")
    monkeypatch.setattr(dualgi.inverses._Frame, "dcepgi", prop)
    ah, bh = index_three
    mat, rhs = tmp_path / "m.json", tmp_path / "b.json"
    write_dual_matrix(mat, ah)
    rhs.write_text(json.dumps(dual_vector_to_dict(bh)))
    assert main(["solve", "--mode", "general", str(mat), str(rhs)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["spot_check_residuals"]) == 5
    assert len(forms) == 1
    assert "ahm" not in vars(forms[0])


def test_compact_checked_against_canonical_dcepgi(index_three, monkeypatch):
    # the DCEPGI is unique, so the compact product is checked against the
    # frame's canonical one, which a cold call therefore forms; a product
    # that misses it raises NumericalError
    ah, _ = index_three
    x = dualgi.dcepgi_compact(ah)
    df = inverses._last_frame[1]
    assert "dcepgi" in vars(df)
    assert (x - df.dcepgi).norm() <= 1e-10 * df.dcepgi.norm()
    range_factor = inverses._range_factor

    def doubled(a, u1):  # 2 (Ahat^m)^+: a product twice the DCEPGI
        q, k_inv = range_factor(a, u1)
        return q, 2 * k_inv
    monkeypatch.setattr(inverses, "_range_factor", doubled)
    with pytest.raises(NumericalError, match="compact product misses"):
        dualgi.dcepgi_compact(ah)


def test_first_order_report_forms_no_power(index_three):
    # the projector conditions read U2 = U[:, t:] and S, not A^m (A^m)^+
    ah, _ = index_three
    dualgi.first_order_form_report(ah)
    assert "ahm" not in vars(inverses._Frame.of(ah))


def test_first_order_report_forms_no_witness(index_three):
    # the first-order form is read off the frame's blocks: the report
    # needs the DCEPGI's verdict, not the DCEPGI
    ah, _ = index_three
    dualgi.first_order_form_report(ah)
    df = inverses._Frame.of(ah)
    assert "first_order_residual" in vars(df)
    assert "dcepgi" not in vars(df)


def test_solve_general_forms_no_identity(monkeypatch, index_three):
    # the projector is (Uhat2 - Uhat1 Z) Uhat2^T, not I - Ahat^D Ahat
    def refuse(*args):
        raise AssertionError("an identity was formed")
    monkeypatch.setattr(DualMatrix, "eye", refuse)
    ah, bh = index_three
    sol = dualgi.solve_general(ah, bh)
    assert sol.homogeneous_projector.shape == ah.shape


def test_solve_general_forms_no_power(index_three):
    # the right-hand side and the residual read Ahat^m Uhat1 = Uhat1 T1hat^m
    ah, bh = index_three
    dualgi.solve_general(ah, bh)
    assert "ahm" not in vars(inverses._Frame.of(ah))


def test_frame_computes_in_unchecked_dual_matrices(monkeypatch, index_three):
    # the blocks, witnesses and decomposition parts of a cold frame are
    # ring results of checked values, and none passes the constructor's
    # check
    ah, _ = index_three

    def refuse(*args, **kwargs):
        raise AssertionError("a part of the frame was checked again")
    monkeypatch.setattr("dualgi.dual._as_pair", refuse)
    df = inverses._Frame.of(ah)
    parts = [getattr(df, name) for name in (
        "u_hat", "u_hat1", "u_hat2", "t1_hat", "t2_hat", "n_hat",
        "t1_hat_inv", "drazin_top", "ahm", "dcepgi", "ddgi")]
    d = dualgi.dual_core_ep_decompose(ah)
    parts += [*df.power_top, d.core_part(), d.nilpotent_part()]
    assert all(type(part) is DualMatrix for part in parts)
    assert df.defect_residual <= dualgi.DEFAULT_TOL
    assert not df.u3.flags.writeable


# ---------------------------------------------------------------------------
# the kept frame: one per input, across calls
# ---------------------------------------------------------------------------

def _outcome(name, ah, bh):
    """The bits of a call's result, or of the library error it raised."""
    try:
        return bits(_call(name, ah, bh))
    except DualgiError as exc:
        return (type(exc).__name__, str(exc),
                bits(getattr(exc, "certificate", None)))


CHAIN = ONE_FRAME + ("ddgi_exists",)


def _warm(names, ah, bh):
    """The outcomes of ``names`` called in turn on one input."""
    return [_outcome(name, ah, bh) for name in names]


def _cold(names, ah, bh):
    """The outcomes of ``names``, each called with no kept frame, on
    copies of the input's arrays."""
    copy = DualMatrix(ah.std.copy(), ah.inf.copy())
    outcomes = []
    for name in names:
        inverses._last_frame = None
        outcomes.append(_outcome(name, copy, bh))
    return outcomes


def test_one_frame_per_input(frame_calls, dual_frame_calls, index_three):
    # the whole chain on one input: one frame, and S and the frame's pass
    # formed once each
    ah, bh = index_three
    for name in CHAIN:
        _call(name, ah, bh)
    assert len(frame_calls) == 1
    assert dual_frame_calls == {"s_terms": 1, "pass": 1}


def test_equal_bytes_share_the_frame(frame_calls, index_three):
    ah, _ = index_three
    x = dualgi.dcepgi(ah)
    twin = DualMatrix(ah.std.copy(), ah.inf.copy())
    assert dualgi.dcepgi(twin) is x
    assert len(frame_calls) == 1


@pytest.mark.parametrize("part", ["std", "inf"])
def test_input_changed_in_place(part, frame_calls, index_three):
    # a call after the caller changes its input's arrays gives what a cold
    # call on the new values gives
    ah0, bh = index_three
    ah = DualMatrix(ah0.std.copy(), ah0.inf.copy())
    before = _warm(CHAIN, ah, bh)
    getattr(ah, part)[...] *= 2.0
    after = _warm(CHAIN, ah, bh)
    assert len(frame_calls) == 2
    assert after != before
    assert after == _cold(CHAIN, ah, bh)


def test_kept_frame_reads_no_caller_array(frame_calls, index_three):
    # the frame of a call that formed nothing past the frame's own pass
    # (the dual core inverse needs index 1) still reads the bytes it was
    # built from once the caller's arrays change
    ah0, bh = index_three
    ah = DualMatrix(ah0.std.copy(), ah0.inf.copy())
    with pytest.raises(dualgi.InverseNotExistError):
        dualgi.dual_core_inverse(ah)
    ah.std[...] *= 2.0
    ah.inf[...] = 0.0
    warm = _warm(CHAIN, ah0, bh)
    assert len(frame_calls) == 1
    assert warm == _cold(CHAIN, ah0, bh)


def test_returned_arrays_are_read_only(frame_calls, index_three):
    # no change a caller makes to what one call returned reaches the next
    ah, bh = index_three
    before = _warm(CHAIN, ah, bh)
    d = dualgi.dual_core_ep_decompose(ah)
    returned = [dualgi.dcepgi(ah), dualgi.ddgi(ah),
                dualgi.dcepgi_exists(ah).witness,
                dualgi.ddgi_exists(ah).witness,
                dualgi.dmpgi_exists(ah).witness, dualgi.dcepgi_compact(ah),
                d.U_hat, d.T1_hat, d.T2_hat, d.N_hat]
    arrays = [x.std for x in returned] + [x.inf for x in returned] + [d.U3]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
    assert _warm(CHAIN, ah, bh) == before
    assert len(frame_calls) == 1


def test_frame_in_a_given_basis_is_not_kept(frame_calls, index_three):
    ah, _ = index_three
    u = core_ep_decompose(ah.std).U
    dualgi.dual_core_ep_decompose(ah, u=u)
    assert inverses._last_frame is None
    dualgi.dcepgi(ah)
    kept = inverses._last_frame
    d = dualgi.dual_core_ep_decompose(ah, u=u)
    assert inverses._last_frame is kept
    assert len(frame_calls) == 3
    # the read-only U_hat is the frame's copy of u, not u itself
    assert not d.U_hat.std.flags.writeable and u.flags.writeable


SWEEP_CALLS = CHAIN + ("rank_test", "dual_group", "dual_core_inverse")


def _sweep_inputs():
    """The four generators on every (n, m), n 2-20, m 1-4, m <= n - t,
    t = max(1, (n - m) // 2): 280 inputs."""
    rng = np.random.default_rng(20261019)
    for n in range(2, 21):
        for m in range(1, min(4, n - 1) + 1):
            t = max(1, (n - m) // 2)
            for gen in (existing_dual, existing_dual_b3, random_dual,
                        reducing_dual):
                ah = None
                while ah is None:  # existing_dual_b3 may ask for a redraw
                    ah = gen(rng, Frame(rng, n, t, m))
                yield gen, ah, random_dual_vector(rng, n)


def test_kept_frame_is_bitwise_cold():
    # every result and residual of a chain of calls sharing the kept frame
    # (in reverse order, so parts are formed in another order) equals
    # that of cold calls, bit for bit
    count = 0
    for _, ah, bh in _sweep_inputs():
        inverses._last_frame = None
        warm = _warm(SWEEP_CALLS[::-1], ah, bh)[::-1]
        assert warm == _cold(SWEEP_CALLS, ah, bh), ah.shape
        count += 1
    assert count >= 200


def test_sweep_outcomes_of_the_frame_readings():
    # rank_test and range_null_report read the frame: random_dual has no
    # DCEPGI, existing_dual_b3 fails the first-order form, and the rank
    # test is the first-order-form verdict
    for gen, ah, _ in _sweep_inputs():
        if gen is random_dual:
            for name in ("rank_test", "range_null_report"):
                with pytest.raises(InverseNotExistError):
                    getattr(dualgi, name)(ah)
            continue
        report = dualgi.first_order_form_report(ah)
        assert dualgi.rank_test(ah) \
            == report.conditions["first_order_form"][0]
        if gen is existing_dual_b3:
            with pytest.raises(HypothesisError):
                dualgi.range_null_report(ah)
        else:
            assert dualgi.range_null_report(ah).all_hold, ah.shape


@pytest.mark.parametrize("name", SWEEP_CALLS)
def test_non_square_rejected(name):
    # every call that builds a dual frame checks that its input is square
    ah = DualMatrix(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError, match="square"):
        _call(name, ah, DualVector(np.ones(2), np.ones(2)))


def test_threads_share_the_kept_frame_safely():
    # threads on different inputs replace the kept frame under one
    # another, also between the lookups of one call, which may then read
    # parts of two frames built from the same bytes; each call must
    # still get its own input's results, bit for bit
    rng = np.random.default_rng(20261020)
    inputs = [(existing_dual(rng, f), random_dual_vector(rng, f.n))
              for f in (Frame(rng, 5, 2, m) for m in (1, 2, 3))] * 2
    names = ("dcepgi", "dual_core_ep_decompose", "dcepgi_exists",
             "solve_general", "first_order_form_report", "dual_cn_split")
    want = [_cold(names, ah, bh) for ah, bh in inputs]
    failures = []

    def work(i):
        for _ in range(40):
            if _warm(names, *inputs[i]) != want[i]:
                failures.append(i)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# ---------------------------------------------------------------------------
# the certificate's witness, formed on first read
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mp_input():
    rng = np.random.default_rng(20261021)
    return mp_existing_dual(rng, Frame(rng, 5, 2, 2))


@pytest.mark.parametrize("name, part", [("dcepgi_exists", "dcepgi"),
                                        ("ddgi_exists", "ddgi")])
def test_verdict_forms_no_witness(name, part, index_three):
    # a caller that reads only the verdict forms no inverse
    ah, _ = index_three
    cert = getattr(dualgi, name)(ah)
    df = inverses._last_frame[1]
    assert cert.exists
    assert part not in vars(df)
    assert cert.witness is vars(df)[part]


@pytest.mark.parametrize("name", ["dcepgi", "ddgi", "dmpgi"])
def test_witness_is_formed_once(name, index_three, mp_input):
    # every read returns one read-only object, the inverse a cold call
    # returns, and a pickled certificate carries it
    ah = mp_input if name == "dmpgi" else index_three[0]
    cert = getattr(dualgi, name + "_exists")(ah)
    witness = cert.witness
    assert cert.witness is witness
    assert not (witness.std.flags.writeable or witness.inf.flags.writeable)
    inverses._last_frame = None
    assert bits(witness) == bits(getattr(dualgi, name)(ah))
    unread = getattr(dualgi, name + "_exists")(ah)
    pickled = pickle.loads(pickle.dumps(unread))
    assert bits(pickled) == bits(cert)
    assert bits(pickled.witness) == bits(witness)


def test_given_witness_is_kept():
    x = DualMatrix.eye(2)
    cert = dualgi.ExistenceCertificate(exists=True, residuals={},
                                       tolerance=1e-10, witness=x)
    assert cert.witness is x
    assert x.std.flags.writeable
    assert dualgi.ExistenceCertificate(False, {}, 1e-10).witness is None


def test_repr_and_eq_form_no_witness():
    # repr and == read the verdict, not the witness: on the first input
    # forming the witness raises (T1^-1 overflows), and on the second
    # == of two witnesses would compare arrays
    tiny = dualgi.dcepgi_exists(DualMatrix(np.diag([1e-320, 1e-320]),
                                           np.eye(2)))
    assert tiny.exists
    assert repr(tiny) == ("ExistenceCertificate(exists=True, residuals="
                          "{'core_ep_projector': 0.0}, tolerance=1e-10)")
    assert "_form_witness" in vars(tiny)
    with pytest.raises(NumericalError, match="not finite"):
        tiny.witness
    rng = np.random.default_rng(20261023)
    ah = DualMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    first = dualgi.dcepgi_exists(ah)
    inverses._last_frame = None
    second = dualgi.dcepgi_exists(ah)
    assert first.exists and first == second
    assert first != dualgi.ExistenceCertificate(True, {}, 1e-10)
    assert "_form_witness" in vars(first) and "_form_witness" in vars(second)
    assert first.witness is not second.witness  # both formed now
    assert first == second


def test_certificate_keeps_its_frame_until_read(index_three):
    # an unread witness keeps the frame alive; a read one, or a verdict
    # that the inverse does not exist, keeps no reference to it
    rng = np.random.default_rng(20261022)
    absent = random_dual(rng, Frame(rng, 6, 2, 3))
    certs, frames = [], []
    for ah in (absent, index_three[0]):
        certs.append(dualgi.dcepgi_exists(ah))
        frames.append(weakref.ref(inverses._last_frame[1]))
    dualgi.dcepgi_exists(random_dual(rng, Frame(rng, 4, 1, 2)))
    gc.collect()
    assert [cert.exists for cert in certs] == [False, True]
    assert frames[0]() is None
    assert frames[1]() is not None
    assert certs[1].witness is not None
    gc.collect()
    assert frames[1]() is None


@pytest.mark.parametrize("part", ["std", "inf"])
def test_dmpgi_witness_reads_no_caller_array(part, mp_input):
    # the witness is formed after the caller changes its input in place
    ah = DualMatrix(mp_input.std.copy(), mp_input.inf.copy())
    cert = dualgi.dmpgi_exists(ah)
    getattr(ah, part)[...] *= 2.0
    assert bits(cert.witness) == bits(dualgi.dmpgi(mp_input))
