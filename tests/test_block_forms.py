"""The homogeneous projector of ``solve_general`` and the residual of the
first-order form, both read off the blocks of the dual core-EP frame,
checked against their formulas from public calls:

* the projector against I - Ahat^D Ahat, Ahat^D = ``ddgi(Ahat)``, and
  Ahat^(m+1) P = O, which makes P yhat a homogeneous solution;
* ``first_order_form_report``'s ``first_order_form`` residual against
  ||X' + A^cep B A^cep||_F / (||A^cep||_F^2 ||B||_F), X' the
  infinitesimal part of ``dcepgi(Ahat)`` and A^cep =
  ``core_ep_inverse(A)``.

Inputs: the built generators and ``random_dual`` (whose DCEPGI does not
exist, so both calls must refuse it) on frames of n 4, 6 and 9, index
1-3, cond(T1) default and 1e3, with A and B scaled together by c in
{1e-6, 1, 1e6}.  Each bound stands 100 times or more above the largest
value measured on these inputs (NumPy 2.4, one BLAS thread): 2.2e-15
and 1.1e-16 for the residual's move where it is large and small,
7.3e-16 for the projector, 2.6e-15 for Ahat^(m+1) P.
"""

import itertools

import numpy as np
import pytest

from dualgi import (DualMatrix, core_ep_inverse, dcepgi, ddgi, dual_power,
                    first_order_form_report, solve_general)
from dualgi.dual import _fro
from dualgi.errors import InverseNotExistError
from dualgi.realkernel import DEFAULT_TOL
from helpers import (Frame, existing_dual, existing_dual_b3, random_dual,
                     random_dual_vector, reducing_dual)

GENERATORS = (existing_dual, existing_dual_b3, reducing_dual, random_dual)
SHAPES = ((4, 2, 1), (6, 3, 2), (9, 4, 3))  # (n, t, m)
SCALES = (1e-6, 1.0, 1e6)


def inputs(generator):
    """(Ahat, bhat, m) for each shape, cond(T1), seed and scale c."""
    g = GENERATORS.index(generator)
    for (n, t, m), cond, seed in itertools.product(SHAPES, (None, 1e3),
                                                   range(2)):
        rng = np.random.default_rng([seed, n, m, int(cond or 1), g])
        ah = generator(rng, Frame(rng, n, t, m, cond=cond))
        if ah is None:  # existing_dual_b3 found no B4
            continue
        bh = random_dual_vector(rng, n)
        for c in SCALES:
            yield DualMatrix(c * ah.std, c * ah.inf), bh, m


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
def test_first_order_residual_matches_the_witness_formula(generator):
    checked = 0
    for ah, _, _ in inputs(generator):
        if generator is random_dual:
            with pytest.raises(InverseNotExistError):
                dcepgi(ah)
            with pytest.raises(InverseNotExistError):
                first_order_form_report(ah)
            continue
        x, a_cep = dcepgi(ah), core_ep_inverse(ah.std)
        want = (_fro(x.inf + a_cep @ ah.inf @ a_cep)
                / (_fro(a_cep) ** 2 * _fro(ah.inf)))
        holds, got = first_order_form_report(ah).conditions[
            "first_order_form"]
        assert abs(got - want) <= 1e-13 * max(want, 1.0), (got, want)
        assert holds == (want <= DEFAULT_TOL)
        checked += 1
    assert checked or generator is random_dual


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
def test_projector_is_i_minus_drazin_times_a(generator):
    checked = 0
    for ah, bh, m in inputs(generator):
        if generator is random_dual:
            with pytest.raises(InverseNotExistError):
                solve_general(ah, bh)
            continue
        p = solve_general(ah, bh).homogeneous_projector
        xd = ddgi(ah)
        want = DualMatrix.eye(ah.shape[0]) - xd @ ah
        assert (p - want).norm() <= 1e-13 * (1 + xd.norm() * ah.norm())
        power = dual_power(ah, m + 1)
        assert (power @ p).norm() <= 1e-12 * power.norm() * p.norm()
        checked += 1
    assert checked or generator is random_dual
