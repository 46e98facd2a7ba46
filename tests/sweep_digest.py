"""One SHA-256 over every public output of ``dualgi`` on the ROADMAP sweep.

Run from the repository root:

    python tests/sweep_digest.py

It prints the number of inputs and one hex digest.  Two trees whose
digests agree give the same outputs, bit for bit, on every input: a
refactor that claims to change no result is checked by running this
script on the parent and on the change.  Two runs of one tree give one
digest.  The digest also depends on the BLAS library and its thread
count, so compare two trees under one setting, for example with
``OPENBLAS_NUM_THREADS=1``.

When two digests differ, two flags show what moved:

    python tests/sweep_digest.py --per-input
    python tests/sweep_digest.py --ignore-signed-zeros

``--per-input`` first prints one line per input: its index, its (n, m,
cond, generator, seed, c) and the SHA-256 of its outputs alone, so a
diff of two runs names the inputs that changed.  ``--ignore-signed-zeros``
hashes each float and float array as ``x + 0.0``, which turns -0.0 into
0.0: a digest that then agrees moved only in the signs of zeros.  The
last line, and with neither flag the only one, is the digest as above.

The sweep: n 6/20/50, t = n/2, index m 1-4 with m <= n - t, cond(T1)
default, 1e3 and 1e4, the generators ``existing_dual``,
``existing_dual_b3``, ``reducing_dual`` and ``random_dual`` of
``helpers.py``, A and B scaled together by c in {1e-6, 1, 1e6}, seeds
0-2 drawn from ``default_rng([s, n, m, int(cond or 1), generator
index])``, each with a random right-hand side, and a cold frame for
each input (no kept frame from the input before).  Floats are hashed by ``float.hex``, arrays by
dtype, shape and bytes, and errors by type and message.  pytest does
not collect this file (its name does not start with ``test_``).
"""

import argparse
import dataclasses
import hashlib
import itertools
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dualgi  # noqa: E402
from dualgi import inverses  # noqa: E402
from helpers import (Frame, dcepgi_bruteforce_oracle,  # noqa: E402
                     existing_dual, existing_dual_b3, random_dual,
                     random_dual_vector, reducing_dual)

GENERATORS = (existing_dual, existing_dual_b3, reducing_dual, random_dual)
CONDS = (None, 1e3, 1e4)
SCALES = (1e-6, 1.0, 1e6)
ORACLE_MAX_N = 20  # the oracle solves for n^2 unknowns


def feed(h, x, unsigned_zeros=False):
    """Hash ``x``, tagged with its kind, into ``h``; with
    ``unsigned_zeros``, each float and float array as ``x + 0.0``."""
    if unsigned_zeros and (isinstance(x, (float, np.floating)) or (
            isinstance(x, np.ndarray) and x.dtype.kind == "f")):
        x = x + 0.0  # -0.0 + 0.0 is 0.0
    if x is None or isinstance(x, (bool, int, str)):
        h.update(f"{type(x).__name__}:{x!r};".encode())
    elif isinstance(x, (float, np.floating)):
        h.update(f"float:{float(x).hex()};".encode())
    elif isinstance(x, np.ndarray):  # before the dual types: no .std here
        h.update(f"array:{x.dtype}:{x.shape};".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, BaseException):
        h.update(f"error:{type(x).__name__}:{x};".encode())
    elif isinstance(x, dict):
        for key in sorted(x):
            feed(h, key, unsigned_zeros)
            feed(h, x[key], unsigned_zeros)
    elif isinstance(x, (list, tuple)):
        h.update(f"seq:{len(x)};".encode())
        for item in x:
            feed(h, item, unsigned_zeros)
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__};".encode())
        for f in dataclasses.fields(x):
            if not f.name.startswith("_"):
                feed(h, f.name, unsigned_zeros)
                feed(h, getattr(x, f.name), unsigned_zeros)
    else:
        raise TypeError(f"no digest rule for {type(x).__name__}")


def attempt(fn, *args):
    """``fn(*args)``, or the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # an error is an output too
        return exc


def outputs(ah, bh):
    """Every public output on one input, in a fixed order."""
    a = ah.std
    m = dualgi.index(a)
    mp = max(m, 1)
    out = [dualgi.numerical_rank(a), m, dualgi.moore_penrose(a),
           dualgi.drazin(a), dualgi.core_ep_inverse(a),
           dualgi.core_ep_decompose(a), dualgi.dual_power(ah, mp),
           dualgi.s_matrix(a, ah.inf, mp), dualgi.mpdgi(ah)]
    for exists in (dualgi.dmpgi_exists, dualgi.ddgi_exists,
                   dualgi.dcepgi_exists):
        out.append(exists(ah))  # the certificate, with its witness
    for inverse, residuals in ((dualgi.dmpgi, dualgi.penrose_residuals),
                               (dualgi.ddgi, dualgi.drazin_residuals),
                               (dualgi.dcepgi, dualgi.core_ep_residuals)):
        x = attempt(inverse, ah)
        out.append(x)
        if not isinstance(x, Exception):
            extra = () if residuals is dualgi.penrose_residuals else (m,)
            out.append(residuals(ah, x, *extra))
    for fn in (dualgi.dual_group, dualgi.dcepgi_compact,
               dualgi.dual_core_inverse, dualgi.dual_cn_split,
               dualgi.first_order_form_report, dualgi.range_null_report,
               dualgi.rank_test):
        out.append(attempt(fn, ah))
    d = dualgi.dual_core_ep_decompose(ah)
    out += [d, d.reconstruct(),
            attempt(dualgi.dcepgi_from_decomposition, d),
            attempt(dualgi.order_law_check, ah, ah.T),
            attempt(dualgi.solve_general, ah, bh),
            attempt(dualgi.solve_unique_in_range, ah, bh)]
    if a.shape[0] <= ORACLE_MAX_N:
        out.append(dcepgi_bruteforce_oracle(ah))
    return out


def sweep():
    """(ah, bh, label) of each input of the sweep, in a fixed order; the
    label names its (n, m, cond, generator, seed, c)."""
    for n, cond, (g, generator) in itertools.product(
            (6, 20, 50), CONDS, enumerate(GENERATORS)):
        t = n // 2
        for m, s in itertools.product(range(1, min(4, n - t) + 1), range(3)):
            rng = np.random.default_rng([s, n, m, int(cond or 1), g])
            ah = generator(rng, Frame(rng, n, t, m, cond=cond))
            if ah is None:  # existing_dual_b3 found no B4
                continue
            bh = random_dual_vector(rng, n)
            for c in SCALES:
                label = (f"n={n} m={m} cond={cond} {generator.__name__} "
                         f"seed={s} c={c:g}")
                yield dualgi.DualMatrix(c * ah.std, c * ah.inf), bh, label


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--per-input", action="store_true",
                        help="also print one digest line per input")
    parser.add_argument("--ignore-signed-zeros", action="store_true",
                        help="hash each float and float array as x + 0.0")
    args = parser.parse_args(argv)
    h = hashlib.sha256()
    count = 0
    for ah, bh, label in sweep():
        inverses._last_frame = None  # a cold frame per input
        out = outputs(ah, bh)
        feed(h, out, args.ignore_signed_zeros)
        if args.per_input:
            one = hashlib.sha256()
            feed(one, out, args.ignore_signed_zeros)
            print(f"{count:4d}  {label}  {one.hexdigest()}")
        count += 1
    print(f"{count} inputs  sha256 {h.hexdigest()}")


if __name__ == "__main__":
    main()
