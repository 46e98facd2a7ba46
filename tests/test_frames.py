"""One core-EP frame per public call.

``core_ep_decompose`` is wrapped wherever ``dualgi`` binds it, and each
public call is counted on an index-3 input: every certificate, inverse,
decomposition and solution of one call derives from a single frame.
The dual half of that frame is counted the same way: the pass that
forms S (``dual._s_terms``, also inside ``s_matrix`` and
``dual_power``), the block split of U^T B U and the Sylvester solve
for U3 each run at most once per call.
The SVDs, least-squares solves, Cholesky and QR factorizations,
linear solves and inverses of a call are recorded the same way,
``numpy.linalg`` wrapped also where ``norm(x, 2)`` looks them up: the
DDGI and solver paths factor nothing larger than n x n, and the DDGI,
its certificate and both solvers factor nothing beyond the frame's SVDs
and the inverse of T1.
"""

import collections
import functools
import json
import sys

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest

import dualgi
from dualgi import CoreEPBlocks, DualMatrix
from dualgi.dual import _s_terms
from dualgi.cli import main
from dualgi.io import dual_vector_to_dict, write_dual_matrix
from dualgi.realkernel import core_ep_decompose
from helpers import Frame, existing_dual, random_dual_vector

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
    """How often S, the block split of U^T B U and U3 are formed."""
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
    for name in ("split_blocks", "sylvester"):
        monkeypatch.setattr(CoreEPBlocks, name,
                            counted(name, getattr(CoreEPBlocks, name)))
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


@pytest.mark.parametrize("name", ONE_FRAME)
def test_one_frame(name, frame_calls, index_three):
    ah, bh = index_three
    assert dualgi.index(ah.std) == 3
    getattr(dualgi, name)(*((ah, bh) if name.startswith("solve") else (ah,)))
    assert len(frame_calls) == 1
    assert frame_calls[0] is ah.std


@pytest.mark.parametrize("name", ONE_FRAME)
def test_one_dual_frame(name, dual_frame_calls, index_three):
    ah, bh = index_three
    getattr(dualgi, name)(*((ah, bh) if name.startswith("solve") else (ah,)))
    assert max(dual_frame_calls.values()) == 1, dual_frame_calls


@pytest.mark.parametrize("name", ["ddgi_exists", "ddgi", "dual_group"])
def test_ddgi_builds_no_power_pinv(name, monkeypatch, index_three, index_one):
    # the DDGI certificate and witness need no (Ahat^m)^+
    calls = []
    monkeypatch.setattr(dualgi.inverses, "_dmpgi_formula",
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
    # the staircase's m + 1 steps: A^T, then ever smaller trailing blocks,
    # the first of which gives sigma_max(A)
    ("dcepgi_exists", 3 + 1),
    # [[B, A], [A, O]], then A at the same cut, which also gives A^+
    ("dmpgi_exists", 2),
    # the frame's m + 1 only: the DCEPGI's residual decides the DDGI
    ("ddgi_exists", 3 + 1),
    # the frame's m + 1 give m, A^cep and S (lstsq calls no svd)
    ("dcepgi_bruteforce_oracle", 3 + 1)])
def test_svd_count(name, count, linalg_calls, index_three):
    ah, _ = index_three
    getattr(dualgi, name)(ah)
    svds = [shape for kind, shape in linalg_calls if kind == "svd"]
    assert len(svds) == count, linalg_calls
    if name != "dmpgi_exists":  # only a frame's first SVD is n x n
        n = ah.shape[0]
        assert svds[0] == (n, n), svds
        assert all(max(shape) < n for shape in svds[1:]), svds


def test_ddgi_certificate_factors_only_the_frame(linalg_calls, index_three):
    # the DDGI reads the DCEPGI's one residual, so it makes the same
    # calls: the frame's m + 1 SVDs and the inverse of T1, no Cholesky
    ah, _ = index_three
    dualgi.dcepgi_exists(ah)
    cep_calls = list(linalg_calls)
    linalg_calls.clear()
    dualgi.ddgi_exists(ah)
    assert linalg_calls == cep_calls
    assert "cholesky" not in [kind for kind, _ in linalg_calls]


@pytest.mark.parametrize("name", [
    "ddgi", "solve_general", "solve_unique_in_range"])
def test_witnesses_factor_only_the_frame(name, linalg_calls, index_three):
    # the DDGI, the projector I - Ahat^D Ahat, Ahat^m (Ahat^m)^+ bhat and
    # the range check all read the blocks of the dual core-EP
    # decomposition: the frame's m + 1 SVDs and the inverse of T1, no
    # (A^m)^+ by QR and solve, no lstsq, no pinv
    ah, bh = index_three
    getattr(dualgi, name)(*((ah, bh) if name.startswith("solve") else (ah,)))
    kinds = collections.Counter(kind for kind, _ in linalg_calls)
    assert kinds == {"svd": 3 + 1, "inv": 1}, linalg_calls


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
    # the spot checks read the canonical DCEPGI that the solution used
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
