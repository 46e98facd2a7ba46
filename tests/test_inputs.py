"""One input rule: every public entry point that takes an array, a count
or a tolerance refuses each bad class of value with one error type, and
its message names the argument (and, for a count or a tolerance, the
value).  The three rules are ``realkernel._real``, ``_count`` and
``_tolerance``; the ``dualgi`` CLI and the JSON reader apply the same
rules (``test_io_cli.py``).  Every dual-matrix argument meets a fourth,
the operators' operand rule ``dual._as_dual_matrix``."""

import numpy as np
import pytest

import dualgi
from dualgi import DualMatrix, DualScalar, DualVector, inverses
from dualgi.errors import DimensionError, NumericalError
from helpers import bits

# an invertible input: every inverse exists and every hypothesis holds,
# so only the value under test can be refused
AH = DualMatrix(np.diag([2.0, 1.0]), np.array([[0.5, -1.0], [0.25, 0.0]]))
BH = DualVector(np.ones(2), np.zeros(2))
EYE = np.eye(2)

# bad class -> (the array, the error): each array 2-D where a 2-D one is
# due, so only its class is wrong
ARRAYS = {
    "complex": (np.array([[1j, 0], [0, 1]]), TypeError),
    "string": (np.array([["1", "0"], ["0", "1"]]), TypeError),
    "object": (np.array([[1, 0], [0, 1]], dtype=object), TypeError),
    "1-D": (np.array([1.0, 2.0]), DimensionError),
    "nan": (np.array([[np.nan, 0], [0, 1]]), ValueError),
    "inf": (np.array([[np.inf, 0], [0, 1]]), ValueError),
}

# entry point -> (the name its messages use, a call on the bad array x)
ARRAY_CALLS = {
    "numerical_rank": ("'a'", dualgi.numerical_rank),
    "index": ("'a'", dualgi.index),
    "moore_penrose": ("'a'", dualgi.moore_penrose),
    "drazin": ("'a'", dualgi.drazin),
    "core_ep_decompose": ("'a'", dualgi.core_ep_decompose),
    "core_ep_inverse": ("'a'", dualgi.core_ep_inverse),
    "core_ep_decompose-u": ("'u'",
                            lambda x: dualgi.core_ep_decompose(EYE, u=x)),
    "dual_core_ep_decompose-u": (
        "'u'", lambda x: dualgi.dual_core_ep_decompose(AH, u=x)),
    "s_matrix-a": ("'a'", lambda x: dualgi.s_matrix(x, EYE, 1)),
    "s_matrix-b": ("'b'", lambda x: dualgi.s_matrix(EYE, x, 1)),
    "DualMatrix-std": ("dual parts", DualMatrix),
    "DualMatrix-inf": ("dual parts", lambda x: DualMatrix(EYE, x)),
    "DualMatrix.from_real": ("dual parts", DualMatrix.from_real),
    "DualVector-std": ("dual parts", lambda x: DualVector(
        x[0] if x.ndim == 2 else np.ones((2, 2)))),
    "DualVector-inf": ("dual parts", lambda x: DualVector(
        np.ones(2), x[0] if x.ndim == 2 else np.ones((2, 2)))),
}


@pytest.mark.parametrize("kind", ARRAYS)
@pytest.mark.parametrize("call", ARRAY_CALLS)
def test_bad_array_refused(call, kind):
    # a DualVector takes a row of the array, and a 2-D array as its
    # wrong number of dimensions
    name, fn = ARRAY_CALLS[call]
    x, error = ARRAYS[kind]
    with np.errstate(invalid="ignore"), pytest.raises(error) as info:
        fn(x)
    assert type(info.value) is error
    assert str(info.value).startswith(f"{name} must ")


# value -> its bad class, for counts and for tolerances
COUNTS = {"float": 2.9, "bool": True, "string": "2", "negative": -1}
TOLERANCES = {"zero": 0, "negative": -1, "nan": float("nan"),
              "inf": float("inf"), "bool": True, "string": "1e-10",
              "array": np.array([1e-10])}

X = dualgi.dcepgi(AH)
COUNT_CALLS = {
    "dual_power": ("'k'", lambda k: dualgi.dual_power(AH, k)),
    "DualMatrix.power": ("'k'", AH.power),
    "s_matrix": ("'m'", lambda m: dualgi.s_matrix(EYE, EYE, m)),
    "dmpgi_exists": ("'m'", lambda m: dualgi.dmpgi_exists(AH, m=m)),
    "drazin_residuals": ("'m'",
                         lambda m: dualgi.drazin_residuals(AH, X, m)),
    "core_ep_residuals": ("'m'",
                          lambda m: dualgi.core_ep_residuals(AH, X, m)),
    "DualMatrix.eye": ("'n'", DualMatrix.eye),
    "DualMatrix.zeros-rows": ("'rows'", DualMatrix.zeros),
    "DualMatrix.zeros-cols": ("'cols'", lambda n: DualMatrix.zeros(2, n)),
    "DualVector.zeros": ("'n'", DualVector.zeros),
}


@pytest.mark.parametrize("kind", COUNTS)
@pytest.mark.parametrize("call", COUNT_CALLS)
def test_bad_count_refused(call, kind):
    name, fn = COUNT_CALLS[call]
    value = COUNTS[kind]
    with pytest.raises(ValueError) as info:
        fn(value)
    assert type(info.value) is ValueError
    low = 1 if call in ("s_matrix", "dmpgi_exists") else 0
    assert str(info.value) == (f"{name} must be an integer >= {low}, got "
                               f"{value!r}")


TOL_CALLS = {
    name: lambda tol, fn=getattr(dualgi, name): fn(AH, tol)
    for name in ("dmpgi_exists", "dmpgi", "ddgi_exists", "ddgi",
                 "dual_group", "dcepgi_exists", "dcepgi", "dcepgi_compact",
                 "dual_core_inverse", "dual_core_ep_decompose",
                 "dual_cn_split", "first_order_form_report", "rank_test",
                 "range_null_report")}
TOL_CALLS.update({
    "order_law_check": lambda tol: dualgi.order_law_check(AH, AH, tol),
    "solve_general": lambda tol: dualgi.solve_general(AH, BH, tol),
    "solve_unique_in_range": lambda tol: dualgi.solve_unique_in_range(
        AH, BH, tol)})


@pytest.mark.parametrize("kind", TOLERANCES)
@pytest.mark.parametrize("call", TOL_CALLS)
def test_bad_tolerance_refused(call, kind):
    # a nan, zero or negative tolerance would deny every inverse, an
    # infinite one certify a matrix that is not an inverse
    value = TOLERANCES[kind]
    with pytest.raises(ValueError) as info:
        TOL_CALLS[call](value)
    assert type(info.value) is ValueError
    assert str(info.value) == (f"'tol' must be a finite number > 0, got "
                               f"{value!r}")


@pytest.mark.parametrize("call", TOL_CALLS)
def test_good_tolerance_taken(call):
    # an int and a NumPy float are tolerances too
    for tol in (1, np.float64(1e-8)):
        TOL_CALLS[call](tol)


@pytest.mark.parametrize("tol", [1, np.float32(1e-3), np.int64(1)])
def test_tolerance_kept_as_float(tol):
    cert = dualgi.dcepgi_exists(AH, tol)
    assert type(cert.tolerance) is float and cert.tolerance == float(tol)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, "0",
                                   True, np.array([0.5])])
def test_bad_appreciable_threshold_refused(value):
    # a nan threshold called the identity not appreciable
    with pytest.raises(ValueError) as info:
        DualMatrix.eye(2).is_appreciable(value)
    assert str(info.value) == (f"'tol' must be a finite number >= 0, got "
                               f"{value!r}")


def test_appreciable_threshold_taken():
    assert DualMatrix.eye(2).is_appreciable()
    assert not DualMatrix.eye(2).is_appreciable(np.int64(2))
    assert not DualMatrix.zeros(2).is_appreciable(0)


def test_infinite_tolerance_certified_no_non_inverse():
    # the block formula misses cep_power by 0.85 here: at tol = inf the
    # library returned it as the DCEPGI
    ah = DualMatrix(np.diag([1.0, 0.0, 0.0]),
                    np.arange(1.0, 10.0).reshape(3, 3))
    assert not dualgi.dcepgi_exists(ah).exists
    with pytest.raises(ValueError, match="'tol'"):
        dualgi.dcepgi(ah, tol=float("inf"))


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), 3])
def test_integer_counts_taken(value):
    # a NumPy integer is a count, and gives a Python int's result
    assert (dualgi.dual_power(AH, value) - AH @ AH @ AH).norm() < 1e-12
    assert np.array_equal(dualgi.s_matrix(AH.std, AH.inf, value),
                          AH.power(3).inf)


@pytest.mark.parametrize("fn", [dualgi.numerical_rank, dualgi.index,
                                dualgi.moore_penrose])
def test_svd_overflow_is_numerical(fn):
    # finite entries whose sigma_max overflows: not a rank of 0, and not
    # the ValueError of an entry that is not finite
    with pytest.raises(NumericalError, match="overflowed"):
        fn(np.full((2, 2), 1e308))


#: The verdicts each report holds, which must be Python bools, and the
#: tolerance it keeps (None where it keeps none).
REPORT_VERDICTS = {
    "first_order_form_report": lambda r: (
        [holds for holds, _ in r.conditions.values()]
        + [r.all_equivalent_observed], None),
    "rank_test": lambda r: ([r], None),
    "range_null_report": lambda r: ([r.all_hold], r.tolerance),
    "order_law_check": lambda r: (
        [holds for holds, _ in r.sufficient_conditions.values()]
        + [r.reverse_holds, r.forward_holds], r.tolerance),
    "solve_general": lambda r: ([], r.tolerance)}


@pytest.mark.parametrize("tol", [np.float32(1e-3), np.int64(1)])
@pytest.mark.parametrize("call", REPORT_VERDICTS)
def test_report_tolerance_kept_as_float(call, tol):
    # the reports compared with and kept the caller's tol itself: with
    # np.float32(1e-3), numpy.bool verdicts and a np.float32 tolerance,
    # while the certificates of the same call kept a float
    verdicts, kept = REPORT_VERDICTS[call](TOL_CALLS[call](tol))
    assert all(type(v) is bool for v in verdicts), verdicts
    assert kept is None or (type(kept) is float and kept == float(tol))


# every public call that takes a dual matrix -> a call on the operand x;
# a second dual operand gets its own entry ("-xh", "-bh")
DUAL_CALLS = {
    name: lambda x, fn=getattr(dualgi, name): fn(x)
    for name in ("ddgi_exists", "ddgi", "dual_group", "dcepgi_exists",
                 "dcepgi", "dcepgi_compact", "dual_core_inverse",
                 "dual_core_ep_decompose", "dual_cn_split",
                 "first_order_form_report", "rank_test",
                 "range_null_report", "mpdgi", "dmpgi_exists", "dmpgi")}
DUAL_CALLS.update({
    "penrose_residuals": lambda x: dualgi.penrose_residuals(x, X),
    "penrose_residuals-xh": lambda x: dualgi.penrose_residuals(AH, x),
    "drazin_residuals": lambda x: dualgi.drazin_residuals(x, X, 1),
    "drazin_residuals-xh": lambda x: dualgi.drazin_residuals(AH, x, 1),
    "core_ep_residuals": lambda x: dualgi.core_ep_residuals(x, X, 1),
    "core_ep_residuals-xh": lambda x: dualgi.core_ep_residuals(AH, x, 1),
    "order_law_check": lambda x: dualgi.order_law_check(x, AH),
    "order_law_check-bh": lambda x: dualgi.order_law_check(AH, x),
    "dual_power": lambda x: dualgi.dual_power(x, 2),
    "solve_general": lambda x: dualgi.solve_general(x, BH),
    "solve_unique_in_range": lambda x: dualgi.solve_unique_in_range(x, BH)})
#: the calls a rectangular dual matrix is due to
RECTANGULAR = ("mpdgi", "dmpgi_exists", "dmpgi")


def _result(call, x):
    """The bits of ``call`` on ``x`` from a cold frame, a certificate's
    witness with them."""
    inverses._last_frame = None
    r = DUAL_CALLS[call](x)
    return bits(r), bits(getattr(r, "witness", None))


@pytest.mark.parametrize("call", DUAL_CALLS)
def test_real_operand_is_a_dual_matrix(call):
    # A + eps O, as for the operators: a real array and a nested list give
    # the result of DualMatrix(a), bit for bit
    a = AH.std
    expected = _result(call, DualMatrix(a))
    assert _result(call, a) == expected
    assert _result(call, a.tolist()) == expected


@pytest.mark.parametrize("operand", [
    DualVector(np.ones(2)), DualScalar(1.0), None, "a", np.ones(2)],
    ids=["DualVector", "DualScalar", "None", "string", "1-D"])
@pytest.mark.parametrize("call", DUAL_CALLS)
def test_non_matrix_operand_refused(call, operand):
    # was an AttributeError (.std, .shape, .norm) or a TypeError of dtype
    # object, as the operand reached the first attribute read
    with pytest.raises(DimensionError, match="not a dual matrix operand"):
        DUAL_CALLS[call](operand)


@pytest.mark.parametrize("call", DUAL_CALLS)
def test_rectangular_operand(call):
    # the DMPGI and the MPDGI of a 2 x 3 matrix exist; every other call
    # needs a square one
    a = np.arange(6.0).reshape(2, 3)
    if call in RECTANGULAR:
        DUAL_CALLS[call](a)
    else:
        with pytest.raises(DimensionError):
            DUAL_CALLS[call](a)


def test_decomposition_operand_refused():
    with pytest.raises(TypeError, match="DualCoreEPDecomposition"):
        dualgi.dcepgi_from_decomposition(DualMatrix.eye(2))


@pytest.mark.parametrize("fn", [dualgi.drazin, dualgi.core_ep_inverse])
def test_no_blocks_argument(fn):
    # a frame of another matrix gave that matrix's inverse
    with pytest.raises(TypeError, match="blocks"):
        fn(np.eye(3), blocks=dualgi.core_ep_decompose(np.eye(2)))


@pytest.mark.parametrize("parts, error", [
    (("1",), TypeError), ((float("nan"),), ValueError),
    ((np.ones(2),), DimensionError), ((1, "x"), TypeError),
    ((1, float("inf")), ValueError), ((1j,), TypeError)])
def test_bad_scalar_part_refused(parts, error):
    # each constructed, and DualScalar(1, "x") * X raised only later
    with pytest.raises(error) as info:
        DualScalar(*parts)
    assert type(info.value) is error
    assert str(info.value).startswith("dual parts must ")


def test_scalar_parts_kept_as_floats():
    for x in (DualScalar(1, True), DualScalar(np.float32(0.5), np.int64(2)),
              DualScalar(np.array(3.0)), 2 * DualScalar(1.0)):
        assert type(x.std) is float and type(x.inf) is float
    assert DualScalar(np.float32(0.5), np.int64(2)) == DualScalar(0.5, 2.0)


def test_scalar_ring_results_are_not_rechecked(monkeypatch):
    # as DualMatrix: the caller's values are checked, ring results are not,
    # so one that overflows holds inf
    x, y = DualScalar(1e200, 1.0), DualScalar(1e200, -1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("a ring result was checked again")
    monkeypatch.setattr("dualgi.dual._real", refuse)
    assert (x * y).std == np.inf
    with np.errstate(invalid="ignore"):  # inf * 0 in the product rule
        assert (DualMatrix.eye(1) * (x * y)).std[0, 0] == np.inf
    assert (x + y).inf == 0.0 and (x - y).std == 0.0 and (-x).inf == -1.0
