"""The four benchmark workloads.

Each workload function draws its inputs from the seeded generator,
wraps them in the program's types, and returns one round of
operations.  An operation is a call sequence into ``dualgi`` (``run``,
the timed part) and a check of its outputs made apart from the program
(``check``, untimed).  A run repeats whole rounds, so every run
attempts the same mix.

Calls go through module attributes (``dg.dcepgi``, ``cli.main``) at call
time, so the layer tracer sees them once it is installed.
"""

import contextlib
import io as _stdio
import json
import os

import numpy as np

import oracle as o
from inputs import (Frame, existing_dual, existing_dual_b3, mp_existing_dual,
                    random_dual, reducing_dual, small_shapes)

LARGE_N, LARGE_T = 64, 32
CLI_N, CLI_T = 32, 16
INDICES = (1, 2, 3, 4)


class Op:
    __slots__ = ("label", "input_std", "run", "check")

    def __init__(self, label, input_std, run, check):
        self.label, self.input_std, self.run, self.check = \
            label, input_std, run, check


class Workload:
    def __init__(self, ops, makeup):
        self.ops = ops
        self.makeup = makeup
        self.report_bytes = []   # filled by cli_inproc checks


def _rhs(rng, n):
    return rng.standard_normal(n), rng.standard_normal(n)


def _powers(a, b, m):
    return [o.power((a, b), k) for k in range(m + 2)]


def _check_solution(got, proj, x, bv, m, powers):
    """Solution X b (the DCEPGI times b) and, for the general solution,
    Ahat^(m+1) proj = O for its homogeneous projector ``proj``."""
    want = o.mat_vec(x, bv)
    scale = o.norm(x) * max(np.linalg.norm(bv[0]), np.linalg.norm(bv[1]))
    o.require_small(o.vector_closeness(got, want, scale),
                    "solution vs DCEPGI times b")
    if proj is not None:
        o.require_small(o.rel(o.mul(powers[m + 1], proj),
                              o.norm(powers[m + 1]) * o.norm(proj)),
                        "Ahat^(m+1) times homogeneous projector")


def _check_report(sol, x, bv, m, powers):
    """A SolutionReport from solve_general."""
    _check_solution(o.pair(sol.particular), o.pair(sol.homogeneous_projector),
                    x, bv, m, powers)


# ---------------------------------------------------------------------------
# small_pipeline
# ---------------------------------------------------------------------------

def small_pipeline(rng, dg, workdir):
    """31 shapes (n 2..6, index 1..3) x 3 constructions = 93 operations
    per round; each runs the acceptance suite's chain of calls.

    ``ddgi`` and ``solve_general`` (which certifies the DDGI) run on the
    index-1 inputs only, and the ``power_projector`` verdict is checked
    there only: at index 2 and 3 these verdicts, which rest on the
    pseudo-inverse of a computed power, are false negatives on a few
    inputs per thousand (see the README).  ``solve_unique_in_range`` needs the
    first-order form, which ``existing_dual_b3`` breaks on purpose.
    """
    plan = ((existing_dual, True), (existing_dual_b3, False),
            (reducing_dual, True))
    ops = []
    for n, t, m in small_shapes():
        for ctor, first_order in plan:
            f, a, b = ctor(rng, Frame(rng, n, t, m))
            index_one = m == 1
            if index_one and ctor is not reducing_dual:
                solver = "general"
            else:
                solver = "unique" if first_order else None
            ops.append(_pipeline_op(dg, f, a, b, _rhs(rng, n), first_order,
                                    index_one, solver,
                                    f"{ctor.__name__} n={n} t={t} m={m}"))
    return Workload(ops, "31 shapes x (existing_dual, existing_dual_b3, "
                         "reducing_dual); ddgi and solve_general at index 1, "
                         "solve_unique_in_range where the first-order form "
                         "holds")


def _pipeline_op(dg, f, a, b, bv, first_order, index_one, solver, label):
    ah, bh = dg.DualMatrix(a, b), dg.DualVector(*bv)
    m = f.m
    powers = _powers(a, b, m)
    x_ref = o.first_order_cep(f.core_ep_inverse(), b) if first_order else None
    # power_projector rests on pinv(A^m) with NumPy's default cutoff, like
    # the DDGI verdict, and has the same false negatives above index 1
    verdicts = ("first_order_form", "cep_projector") + (
        ("power_projector",) if index_one else ())

    def run():
        cert = dg.dcepgi_exists(ah)
        x = dg.dcepgi(ah)
        xd = dg.ddgi(ah) if index_one else None
        dec = dg.dual_core_ep_decompose(ah)
        report = dg.first_order_form_report(ah)
        if solver == "general":
            sol = dg.solve_general(ah, bh)
        elif solver == "unique":
            sol = dg.solve_unique_in_range(ah, bh)
        else:
            sol = None
        return cert, x, xd, dec, report, sol

    def check(out):
        cert, x, xd, dec, report, sol = out
        o.require(cert.exists, "dcepgi_exists says no DCEPGI")
        xp = o.pair(x)
        o.require_small(o.core_ep_residual((a, b), xp, m, powers),
                        "dcepgi identities")
        if x_ref is not None:
            o.require_small(o.closeness(xp, x_ref), "dcepgi vs closed form")
        if index_one:
            o.require_small(o.drazin_residual((a, b), o.pair(xd), m, powers),
                            "ddgi identities")
        o.require((dec.t, dec.m) == (f.t, f.m),
                  f"decomposition (t, m) = {(dec.t, dec.m)}, built {(f.t, f.m)}")
        uh = o.pair(dec.U_hat)
        o.require_small(o.dual_orthogonality_residual(uh),
                        "Uhat dual orthogonality")
        middle = o.block_upper(o.pair(dec.T1_hat), o.pair(dec.T2_hat),
                               o.pair(dec.N_hat))
        o.require_small(o.reconstruction_residual(uh, middle, (a, b)),
                        "decomposition reconstruction")
        for name in verdicts:
            o.require(report.conditions[name][0] == first_order,
                      f"{name} verdict {report.conditions[name][0]}, "
                      f"built {first_order}")
        x_use = x_ref if x_ref is not None else xp
        if solver == "general":
            _check_report(sol, x_use, bv, m, powers)
        elif solver == "unique":
            _check_solution(o.pair(sol), None, x_use, bv, m, powers)

    return Op(label, a, run, check)


# ---------------------------------------------------------------------------
# verdict_scan
# ---------------------------------------------------------------------------

VERDICTS = (("cep", "dcepgi_exists"), ("ddgi", "ddgi_exists"),
            ("dmpgi", "dmpgi_exists"))
STRUCTURED = (existing_dual, existing_dual_b3, reducing_dual)


def _real_inverse(kind, f, a):
    if kind == "cep":
        return f.core_ep_inverse()
    if kind == "ddgi":
        return f.drazin()
    return np.linalg.pinv(a, rtol=1e-10)


def verdict_scan(rng, dg, workdir):
    """31 shapes x 3 inputs x 3 verdict kinds, less 16 = 263 operations
    per round.  Per shape and kind, one input is built to have the
    inverse and two have an unstructured B; the built DDGI input is left
    out at index 2 and 3, where the program's DDGI verdict is a false
    negative on a few inputs per thousand."""
    ops = []
    for idx, (n, t, m) in enumerate(small_shapes()):
        for rep in range(3):
            for kind, fn in VERDICTS:
                if rep == 0 and kind == "ddgi" and m > 1:
                    continue
                f = Frame(rng, n, t, m)
                if rep == 0:
                    ctor = (mp_existing_dual if kind == "dmpgi"
                            else STRUCTURED[idx % 3])
                    f, a, b = ctor(rng, f)
                    res = o.inverse_oracle(kind, a, b, _real_inverse(kind, f, a), m)
                    if res > o.EXISTS:
                        raise RuntimeError(f"{ctor.__name__} n={n} t={t} m={m}: "
                                           f"{kind} oracle residual {res:.2e}")
                else:
                    ctor = random_dual
                    while True:   # skip the null set near existence
                        f, a, b = random_dual(rng, f)
                        res = o.inverse_oracle(kind, a, b,
                                               _real_inverse(kind, f, a), m)
                        if res >= o.ABSENT:
                            break
                ops.append(_verdict_op(dg, fn, a, b, rep == 0,
                                       f"{fn} {ctor.__name__} n={n} t={t} m={m}"))
    return Workload(ops, "31 shapes x (1 built to exist + 2 unstructured) x "
                         "(dcepgi_exists, ddgi_exists, dmpgi_exists), no "
                         "built DDGI input at index 2-3")


def _verdict_op(dg, fn, a, b, expected, label):
    ah = dg.DualMatrix(a, b)

    def run():
        return getattr(dg, fn)(ah)

    def check(cert):
        o.require(cert.exists == expected,
                  f"verdict {cert.exists}, expected {expected}")

    return Op(label, a, run, check)


# ---------------------------------------------------------------------------
# large_solve
# ---------------------------------------------------------------------------

def large_solve(rng, dg, workdir):
    """n = 64, t = 32, index 1..4, each through 4 calls: 16 operations
    per round.  Each call is its own operation, so that each is timed
    often enough for its best time to be steady."""
    ops = []
    for m in INDICES:
        f, a, b = existing_dual(rng, Frame(rng, LARGE_N, LARGE_T, m))
        ops.extend(_large_ops(dg, f, a, b, _rhs(rng, LARGE_N),
                              f"existing_dual n={LARGE_N} t={LARGE_T} m={m}"))
    return Workload(ops, f"existing_dual, n={LARGE_N}, t={LARGE_T}, "
                         f"index {INDICES} x (dcepgi, ddgi, solve_general, "
                         "solve_unique_in_range)")


def _large_ops(dg, f, a, b, bv, label):
    ah, bh = dg.DualMatrix(a, b), dg.DualVector(*bv)
    m = f.m
    powers = _powers(a, b, m)
    x_ref = o.first_order_cep(f.core_ep_inverse(), b)

    def check_dcepgi(x):
        o.require_small(o.closeness(o.pair(x), x_ref), "dcepgi vs closed form")

    def check_ddgi(xd):
        o.require_small(o.drazin_residual((a, b), o.pair(xd), m, powers),
                        "ddgi identities")

    def check_general(sol):
        _check_report(sol, x_ref, bv, m, powers)

    def check_unique(xu):
        _check_solution(o.pair(xu), None, x_ref, bv, m, powers)

    calls = (("dcepgi", lambda: dg.dcepgi(ah), check_dcepgi),
             ("ddgi", lambda: dg.ddgi(ah), check_ddgi),
             ("solve_general", lambda: dg.solve_general(ah, bh), check_general),
             ("solve_unique_in_range", lambda: dg.solve_unique_in_range(ah, bh),
              check_unique))
    return [Op(f"{name} {label}", a, run, check) for name, run, check in calls]


# ---------------------------------------------------------------------------
# cli_inproc
# ---------------------------------------------------------------------------

CLI_COMMANDS = (("inverse", "--kind", "cep"), ("decompose",),
                ("solve", "--mode", "general"),
                ("solve", "--mode", "unique-in-range"))


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _from_doc(doc, vector=False):
    std = np.asarray(doc["standard"], dtype=float)
    inf = np.asarray(doc["infinitesimal"], dtype=float)
    return (std.ravel(), inf.ravel()) if vector else (std, inf)


def cli_inproc(rng, dg, workdir):
    """n = 32, t = 16, index 1..4, each through the 4 commands: 16
    operations per round."""
    import dualgi.cli as cli
    wl = Workload([], f"existing_dual, n={CLI_N}, t={CLI_T}, index {INDICES} "
                      "x (inverse --kind cep, decompose, solve --mode general, "
                      "solve --mode unique-in-range)")
    for m in INDICES:
        f, a, b = existing_dual(rng, Frame(rng, CLI_N, CLI_T, m))
        bv = _rhs(rng, CLI_N)
        mat = os.path.join(workdir, f"matrix_m{m}.json")
        rhs = os.path.join(workdir, f"rhs_m{m}.json")
        _write_json(mat, {"name": f"m{m}", "rows": CLI_N, "cols": CLI_N,
                          "standard": a.tolist(), "infinitesimal": b.tolist()})
        _write_json(rhs, {"name": f"b{m}", "rows": CLI_N, "cols": 1,
                          "standard": bv[0].tolist(),
                          "infinitesimal": bv[1].tolist()})
        for cmd in CLI_COMMANDS:
            argv = [*cmd, mat] + ([rhs] if cmd[0] == "solve" else [])
            wl.ops.append(_cli_op(cli, wl, argv, f, a, b, bv,
                                  f"{' '.join(cmd)} n={CLI_N} m={m}"))
    return wl


def _cli_op(cli, wl, argv, f, a, b, bv, label):
    m = f.m
    powers = _powers(a, b, m)
    x_ref = o.first_order_cep(f.core_ep_inverse(), b)
    command = argv[0] if argv[0] != "solve" else argv[2]

    def run():
        buf = _stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        wl.report_bytes.append(len(text.encode()))
        o.require(code == 0, f"exit code {code}")
        try:
            check_report(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            raise o.CheckFailed(f"malformed report: {exc!r}") from exc

    def check_report(report):
        if command == "inverse":
            o.require(report["exists"] and report["certificate"]["exists"],
                      "inverse report says no DCEPGI")
            o.require_small(o.closeness(_from_doc(report["result"]), x_ref),
                            "reported DCEPGI vs closed form")
        elif command == "decompose":
            o.require((report["rank_of_power"], report["index"]) == (f.t, f.m),
                      "reported (t, m) differs from the construction")
            uh = _from_doc(report["U_hat"])
            o.require_small(o.dual_orthogonality_residual(uh),
                            "reported Uhat dual orthogonality")
            middle = o.block_upper(_from_doc(report["T1_hat"]),
                                   _from_doc(report["T2_hat"]),
                                   _from_doc(report["N_hat"]))
            o.require_small(o.reconstruction_residual(uh, middle, (a, b)),
                            "reported decomposition reconstruction")
            o.require(report["dcepgi_certificate"]["exists"],
                      "decompose report says no DCEPGI")
            core = o.mul(o.mul((a, b), x_ref), (a, b))
            o.require_small(o.closeness(_from_doc(report["core_part"]), core),
                            "reported core part vs Ahat X Ahat")
            o.require_small(o.closeness(_from_doc(report["nilpotent_part"]),
                                        o.sub((a, b), core)),
                            "reported nilpotent part")
        elif command == "general":
            _check_solution(_from_doc(report["particular"], vector=True),
                            _from_doc(report["homogeneous_projector"]),
                            x_ref, bv, m, powers)
        else:
            _check_solution(_from_doc(report["solution"], vector=True), None,
                            x_ref, bv, m, powers)

    return Op(label, a, run, check)
