"""Dual arithmetic: ring laws, powers, the S-matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgi import DualMatrix, DualScalar, DualVector, dual_power, s_matrix
from dualgi.dual import _fro, _s_terms
from dualgi.errors import DimensionError

RNG = np.random.default_rng(20240817)


def rand_dual(n, m=None, rng=RNG):
    m = n if m is None else m
    return DualMatrix(rng.standard_normal((n, m)), rng.standard_normal((n, m)))


class TestDualScalar:
    def test_epsilon_squares_to_zero(self):
        eps = DualScalar(0.0, 1.0)
        assert (eps * eps).std == 0.0
        assert (eps * eps).inf == 0.0

    def test_product_rule(self):
        x, y = DualScalar(2.0, 3.0), DualScalar(-1.0, 4.0)
        assert (x * y).std == -2.0
        assert (x * y).inf == 2.0 * 4.0 + 3.0 * (-1.0)

    def test_mixed_real_arithmetic(self):
        x = DualScalar(2.0, 3.0)
        assert (1 + x).std == 3.0
        assert (2 * x).inf == 6.0
        assert (-x).std == -2.0
        assert (x - 1).std == 1.0

    def test_non_numeric_operand_is_refused(self):
        for op in (lambda p, q: p + q, lambda p, q: p - q):
            with pytest.raises(TypeError):
                op(DualScalar(1.0), "x")

    def test_repr(self):
        assert repr(DualScalar(1.0, 2.0)) == "1.0 + 2.0eps"


class TestDualMatrixRing:
    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y = rand_dual(n, rng=rng), rand_dual(n, rng=rng)
        z = x @ y
        assert np.allclose(z.std, x.std @ y.std)
        assert np.allclose(z.inf, x.std @ y.inf + x.inf @ y.std)

    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (rand_dual(n, rng=rng) for _ in range(3))
        left, right = (x @ y) @ z, x @ (y @ z)
        assert (left - right).norm() < 1e-10 * (1 + left.norm())

    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_transpose_antihomomorphism(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y = rand_dual(n, rng=rng), rand_dual(n, rng=rng)
        assert ((x @ y).T - y.T @ x.T).norm() < 1e-12

    def test_additive_group(self):
        x, y = rand_dual(3), rand_dual(3)
        assert np.allclose((x + y).std, (y + x).std)
        assert ((x - x)).norm() == 0.0
        assert ((-x) + x).norm() == 0.0

    def test_identity_and_scalar(self):
        x = rand_dual(4)
        eye = DualMatrix.eye(4)
        assert ((eye @ x) - x).norm() == 0.0
        eps = DualScalar(0.0, 1.0)
        scaled = eps * x
        assert np.allclose(scaled.std, 0.0)
        assert np.allclose(scaled.inf, x.std)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            rand_dual(2, 3) @ rand_dual(2, 3)
        for op in (lambda p, q: p + q, lambda p, q: p - q):
            with pytest.raises(DimensionError):
                op(rand_dual(2), rand_dual(3))
        for op in (lambda p, q: p + q, lambda p, q: p - q):
            with pytest.raises(DimensionError):
                op(DualMatrix.eye(3), DualVector.zeros(3))
        for op in (lambda p, q: p + q, lambda p, q: p - q,
                   lambda p, q: p @ q):
            with pytest.raises(DimensionError, match="DualScalar"):
                op(DualMatrix.eye(2), DualScalar(1.0))
            # a real operand that is not 2-D is named, not its parts
            for other, what in ((np.ones(2), "1-dimensional ndarray"),
                                (1.0, "0-dimensional float")):
                with pytest.raises(DimensionError, match=f"^a {what} is not"):
                    op(DualMatrix.eye(2), other)
        for parts in ((np.zeros((2, 2)), np.zeros((2, 3))), (np.ones(3),)):
            with pytest.raises(DimensionError):
                DualMatrix(*parts)
        with pytest.raises(DimensionError):
            DualVector.zeros((2, 3))
        with pytest.raises(ValueError):
            DualMatrix(np.array([[np.nan]]), np.zeros((1, 1)))

    def test_real_array_on_the_left_is_refused(self):
        # NumPy defers to the dual types, which have no reflected - @ and
        # refuse + rather than fall back to ndarray's concatenation
        x, v = DualMatrix.eye(2), DualVector.zeros(2)
        for op, sign in ((lambda p, q: p + q, "+"), (lambda p, q: p - q, "-"),
                         (lambda p, q: p @ q, "@")):
            for left, right in ((np.eye(2), x), (np.ones(2), v)):
                with pytest.raises(TypeError, match=(
                        rf"^unsupported operand type\(s\) for \{sign}: "
                        rf"'.*ndarray' and '{type(right).__name__}'$")):
                    op(left, right)
        scaled = np.float64(2.0) * x  # through __rmul__
        assert type(scaled) is DualMatrix
        assert (scaled - 2.0 * x).norm() == 0.0

    def test_infinitesimal_part_defaults_to_zero(self):
        x = DualMatrix([[1.0, 2.0]])
        assert x.inf.shape == (1, 2) and not x.inf.any()

    def test_appreciable(self):
        assert rand_dual(2).is_appreciable()
        assert not DualMatrix(np.zeros((2, 2)), np.ones((2, 2))).is_appreciable()

    def test_caller_values_are_checked(self):
        x, nan = rand_dual(2), np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            x * np.nan
        with pytest.raises(ValueError):
            DualScalar(np.inf, 0.0) * x
        with pytest.raises(ValueError):
            x @ nan  # through from_real
        with pytest.raises(ValueError):
            x + nan
        with pytest.raises(ValueError):
            DualMatrix.from_real(nan)

    def test_overflow_holds_inf(self):
        # a ring result is not checked again: it overflows as NumPy does
        x = DualMatrix.from_real([[1e200]])
        with np.errstate(over="ignore"):
            y = x @ x
        assert y.std[0, 0] == np.inf and y.inf[0, 0] == 0.0


def test_ring_results_are_not_rechecked(monkeypatch):
    # every ring operation builds its result without _as_pair, the
    # constructor's check; only the caller's values pass through it
    x, y = rand_dual(3), rand_dual(3)
    v, w = (DualVector(RNG.standard_normal(3), RNG.standard_normal(3))
            for _ in range(2))
    eps = DualScalar(0.0, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("a ring result was checked again")
    monkeypatch.setattr("dualgi.dual._as_pair", refuse)
    results = [x + y, x - y, -x, x * 2.0, 2.0 * x, eps * x, x * eps,
               x @ y, x.T, x @ v, v + w, v - w, -v, dual_power(x, 0),
               dual_power(x, 3), DualMatrix.eye(2), DualMatrix.zeros(2, 3)]
    assert all(type(r) in (DualMatrix, DualVector) for r in results)


@pytest.mark.parametrize("x", [
    np.arange(12.0).reshape(3, 4) - 5.5,     # C order
    (np.arange(12.0).reshape(3, 4) - 5.5).T,  # F order
    np.random.default_rng(3).standard_normal((5, 6))[:, ::2],  # strided
    np.random.default_rng(4).standard_normal(7),
    np.zeros((0, 3)), np.zeros((4, 4))])
def test_fro_is_numpy_norm_bitwise(x):
    got = _fro(x)
    assert type(got) is float
    assert got.hex() == float(np.linalg.norm(x)).hex()


class TestDualVector:
    def test_matvec_product_rule(self):
        a = rand_dual(3)
        v = DualVector(RNG.standard_normal(3), RNG.standard_normal(3))
        w = a @ v
        assert np.allclose(w.std, a.std @ v.std)
        assert np.allclose(w.inf, a.std @ v.inf + a.inf @ v.std)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            rand_dual(3) @ DualVector.zeros(4)

    def test_sum_needs_equal_lengths(self):
        # no broadcast: a length-1 vector does not stretch to length 3
        short, long = DualVector(np.ones(1), np.ones(1)), DualVector.zeros(3)
        for op in (lambda p, q: p + q, lambda p, q: p - q):
            for p, q in ((short, long), (long, short)):
                with pytest.raises(DimensionError):
                    op(p, q)
            for other in (rand_dual(3), np.ones(3), 1.0):
                with pytest.raises(DimensionError):
                    op(long, other)

    def test_nan_part_rejected(self):
        with pytest.raises(ValueError):
            DualVector(np.array([np.nan, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            DualVector(np.zeros(2), np.array([0.0, np.inf]))


def _layout(rng, shape, layout):
    """A standard normal array of ``shape`` in ``layout``: a C-contiguous
    array, a strided slice of a larger one, or the transpose of one (a
    1-D array: a column of a C-contiguous matrix)."""
    if layout == "contiguous":
        return rng.standard_normal(shape)
    if layout == "sliced":
        big = rng.standard_normal(tuple(2 * s + 1 for s in shape))
        return big[tuple(slice(1, None, 2) for _ in shape)]
    if len(shape) == 1:
        return rng.standard_normal((shape[0], 3))[:, 1]
    return rng.standard_normal(shape[::-1]).T


LAYOUTS = ("contiguous", "sliced", "transposed")


class TestProductConvention:
    """``DualMatrix @`` multiplies its parts with ``ndarray.dot``, not
    NumPy's ``matmul`` (realkernel module docstring).  The reference
    is the ring law through ``@``: equal bit for bit when both operands
    are C-contiguous, and otherwise within 4 k eps ||X||_F ||Y||_F for
    each product X Y of inner dimension k, a bound fixed from the dtype
    (each side is within k eps ||X||_F ||Y||_F of the exact product)."""

    EPS = np.finfo(float).eps

    def _check(self, x, y, got):
        std = x.std @ y.std
        inf = x.std @ y.inf + x.inf @ y.std
        contiguous = all(part.flags.c_contiguous
                         for part in (x.std, x.inf, y.std, y.inf))
        if contiguous:
            assert got.std.tobytes() == std.tobytes()
            assert got.inf.tobytes() == inf.tobytes()
        k = x.shape[1]
        bound = 4 * k * self.EPS

        def size(p, q):
            return np.linalg.norm(p) * np.linalg.norm(q)
        assert np.linalg.norm(got.std - std) <= bound * size(x.std, y.std)
        assert np.linalg.norm(got.inf - inf) <= bound * (
            size(x.std, y.inf) + size(x.inf, y.std))
        return contiguous

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_products(self, seed):
        rng = np.random.default_rng([28, seed])
        exact = 0
        for _ in range(150):
            r, k, c = (int(s) for s in rng.integers(1, 71, 3))
            lx, ly = rng.choice(LAYOUTS, 2)
            x = DualMatrix(_layout(rng, (r, k), lx), _layout(rng, (r, k), lx))
            y = DualMatrix(_layout(rng, (k, c), ly), _layout(rng, (k, c), ly))
            exact += self._check(x, y, x @ y)
        assert exact  # the bitwise branch ran

    @pytest.mark.parametrize("seed", range(2))
    def test_matrix_vector_products(self, seed):
        rng = np.random.default_rng([28, 100 + seed])
        exact = 0
        for _ in range(150):
            r, k = (int(s) for s in rng.integers(1, 71, 2))
            lx, lv = rng.choice(LAYOUTS, 2)
            x = DualMatrix(_layout(rng, (r, k), lx), _layout(rng, (r, k), lx))
            v = DualVector(_layout(rng, (k,), lv), _layout(rng, (k,), lv))
            exact += self._check(x, v, x @ v)
        assert exact

    def test_layouts_are_kept(self):
        # the constructor takes float arrays as they are, so the layouts
        # above reach the product
        rng = np.random.default_rng(0)
        for layout in LAYOUTS:
            part = _layout(rng, (4, 5), layout)
            x = DualMatrix(part, part)
            assert x.std is part
            assert x.std.flags.c_contiguous == (layout == "contiguous")


class TestRealParts:
    """Parts of boolean, integer or float dtype are taken as floats; a
    complex, string or object array is refused by its dtype."""

    @pytest.mark.parametrize("part, dtype", [
        (np.array([[1 + 2j, 0], [0, 1]]), "complex128"),
        (np.array([["1", "0"], ["0", "1"]]), "<U1"),
        (np.array([[1, None], [0, 1]], dtype=object), "object")])
    def test_matrix_part_refused(self, part, dtype):
        message = f"^dual parts must be real numbers, got dtype {dtype}$"
        for args in ((part,), (np.eye(2), part), (part, np.eye(2))):
            with pytest.raises(TypeError, match=message):
                DualMatrix(*args)
        with pytest.raises(TypeError, match=message):
            DualMatrix.from_real(part)
        with pytest.raises(TypeError, match=message):
            DualMatrix.eye(2) @ part

    @pytest.mark.parametrize("part, dtype", [
        (np.array(["1", "2"]), "<U1"),
        (np.array([1j, 2]), "complex128")])
    def test_vector_part_refused(self, part, dtype):
        message = f"^dual parts must be real numbers, got dtype {dtype}$"
        for args in ((part,), (np.ones(2), part)):
            with pytest.raises(TypeError, match=message):
                DualVector(*args)

    @pytest.mark.parametrize("part", [
        np.array([[True, False], [False, True]]),
        np.array([[1, 0], [0, 1]], dtype=np.int32),
        np.array([[1, 0], [0, 1]], dtype=np.uint8),
        np.array([[1, 0], [0, 1]], dtype=np.float32),
        [[1, 0], [0, 1.0]]])
    def test_real_part_kept(self, part):
        x = DualMatrix(part, part)
        assert x.std.dtype == x.inf.dtype == np.float64
        assert np.array_equal(x.std, np.eye(2))
        v = DualVector(np.asarray(part)[0])
        assert v.std.dtype == np.float64 and not v.inf.any()


class TestDualPower:
    @given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_product(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = rand_dual(n, rng=rng)
        by_product = DualMatrix.eye(n)
        for _ in range(k):
            by_product = by_product @ x
        direct = dual_power(x, k)
        assert (direct - by_product).norm() < 1e-8 * (1 + by_product.norm())

    def test_power_overflow_holds_inf(self):
        # a ring result, as x @ x: not the constructor's ValueError
        x = DualMatrix([[1e160, 0.0], [0.0, 1e150]], [[0.0, 1.0], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            power, product = dual_power(x, 2), x @ x
        assert power.std[0, 0] == np.inf
        assert np.array_equal(power.std, product.std)
        assert np.array_equal(power.inf, product.inf)

    def test_power_zero_is_identity(self):
        x = rand_dual(3)
        assert (dual_power(x, 0) - DualMatrix.eye(3)).norm() == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            dual_power(rand_dual(2), -1)
        with pytest.raises(DimensionError):
            dual_power(DualMatrix.zeros(2, 3), 2)

    def test_method_alias(self):
        x = rand_dual(3)
        assert (x.power(3) - dual_power(x, 3)).norm() == 0.0


class TestSMatrix:
    def test_matches_power_infinitesimal(self):
        a, b = RNG.standard_normal((4, 4)), RNG.standard_normal((4, 4))
        for m in (1, 2, 3, 5):
            assert np.allclose(s_matrix(a, b, m),
                               dual_power(DualMatrix(a, b), m).inf)

    def test_terms_match_the_plain_sum(self):
        # the sum skips its products by A^0 = I, which change no bit
        rng = np.random.default_rng(3)
        for n in (1, 4, 7):
            for m in range(1, 6):
                a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
                powers = [np.eye(n)]
                for _ in range(m - 1):
                    powers.append(powers[-1] @ a)
                terms = [powers[m - i] @ b @ powers[i - 1]
                         for i in range(1, m + 1)]
                s, size = _s_terms(a, b, m)
                assert np.array_equal(s, sum(terms)), (n, m)
                assert size == sum(np.linalg.norm(t) for t in terms), (n, m)

    def test_m_one_is_b(self):
        a, b = RNG.standard_normal((3, 3)), RNG.standard_normal((3, 3))
        assert np.allclose(s_matrix(a, b, 1), b)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            s_matrix(np.eye(2), np.eye(2), 0)
        with pytest.raises(DimensionError):
            s_matrix(np.eye(2), np.eye(3), 1)
