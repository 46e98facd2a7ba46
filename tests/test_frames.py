"""One core-EP frame per public call.

``core_ep_decompose`` is wrapped wherever ``dualgi`` binds it, and each
public call is counted on an index-3 input: every certificate, inverse,
decomposition and solution of one call derives from a single frame.
"""

import json
import sys

import numpy as np
import pytest

import dualgi
from dualgi import DualMatrix
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


@pytest.fixture(scope="module")
def index_three():
    f = Frame(RNG, 6, 2, 3)
    return existing_dual(RNG, f), random_dual_vector(RNG, f.n)


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
