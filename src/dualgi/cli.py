"""Command-line front end.

    dualgi inverse --kind cep matrix.json
    dualgi decompose matrix.json
    dualgi solve --mode general matrix.json rhs.json

Every outcome about a valid input is the command's report, one line of
compact JSON on standard output (and in the --output file), with exit
status 0 on success, 2 when the inverse provably does not exist and 3
when a theorem hypothesis fails.  A failure to produce a report is one
line on standard error: status 1 for a usage or parse error, 4 for a
numerical failure (a factorization did not converge, or a value is not
finite, which JSON cannot hold).  The default tolerance (1e-10) can be
overridden, by a finite number > 0, with --tol or the DUALGI_TOL
environment variable.
"""

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import decomposition, inverses, io, solver
from .dual import DualVector
from .errors import HypothesisError, InverseNotExistError, NumericalError
from .realkernel import DEFAULT_TOL, _count, _tolerance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_EXIST = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4

TOL_ENV_VAR = "DUALGI_TOL"

# kind -> the certificate whose witness is the inverse (raises
# InverseNotExistError when it does not exist); the MPDGI formula is
# always defined and has no certificate
_INVERSE_KINDS = {
    "mpdgi": None,
    "dmpgi": inverses._dmpgi,
    "ddgi": inverses._ddgi,
    "group": inverses._dual_group,
    "core": inverses._dual_core_inverse,
    "cep": inverses._dcepgi,
    "cep-compact": inverses._dcepgi_compact,
}


def _certificate_dict(cert):
    if cert is None:
        return None
    return {
        "exists": cert.exists,
        "residuals": {k: float(v) for k, v in cert.residuals.items()},
        "tolerance": cert.tolerance,
    }


def _option(rule, parse, name):
    """The argparse type of an option that ``parse`` reads and ``rule``
    checks as ``name``: a ValueError is a usage error naming the option."""
    def check(text):
        try:
            return rule(parse(text), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return check


def _default_tol():
    env = os.environ.get(TOL_ENV_VAR)
    try:
        return DEFAULT_TOL if env is None else _tolerance(float(env))
    except ValueError:  # a usage error
        raise ValueError(f"invalid {TOL_ENV_VAR} value: {env!r}") from None


def _emit(report, output):
    """Write ``report`` as one line of JSON (RFC 8259, which has no NaN or
    infinity): NumericalError, before anything is written, when it holds
    a value that is not finite."""
    try:
        text = json.dumps(report, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"the report is not finite: {exc}") from None
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _report(args, command, inputs, compute, **header):
    """Emit the command's report and return its exit status.  The header
    (``inputs``: path -> SHA-256 of the bytes parsed) comes first, then
    the keys ``compute(report)`` adds, or ``exists``, ``message`` and
    ``certificate`` for a missing inverse (exit 2), or ``message`` for a
    failed hypothesis (exit 3); ``elapsed_seconds`` last."""
    start = time.perf_counter()
    report = {"command": command,
              "inputs": inputs,
              "tolerance": args.tol, **header}
    code = EXIT_OK
    try:
        compute(report)
    except InverseNotExistError as exc:
        report.update(exists=False, message=str(exc),
                      certificate=_certificate_dict(exc.certificate))
        code = EXIT_NOT_EXIST
    except HypothesisError as exc:
        report["message"] = str(exc)
        code = EXIT_HYPOTHESIS
    report["elapsed_seconds"] = time.perf_counter() - start
    _emit(report, args.output)
    return code


def cmd_inverse(args):
    name, ah, digest = io._read(args.input)

    def compute(report):
        certified = _INVERSE_KINDS[args.kind]
        cert = certified(ah, args.tol) if certified else None
        report["exists"] = True
        report["result"] = io.dual_matrix_to_dict(
            cert.witness if cert else inverses.mpdgi(ah),
            name=f"{name or 'input'}_{args.kind}")
        if cert:
            report["certificate"] = _certificate_dict(cert)
    return _report(args, f"inverse {args.kind}", {args.input: digest},
                   compute)


def cmd_decompose(args):
    _, ah, digest = io._read(args.input)

    def compute(report):
        d = decomposition.dual_core_ep_decompose(ah, args.tol)
        core, nilpotent = d.core_part(), d.nilpotent_part()  # dual_cn_split
        report.update(
            rank_of_power=d.t, index=d.m, canonical=d.canonical,
            U_hat=io.dual_matrix_to_dict(d.U_hat, name="U_hat"),
            T1_hat=io.dual_matrix_to_dict(d.T1_hat, name="T1_hat"),
            T2_hat=io.dual_matrix_to_dict(d.T2_hat, name="T2_hat"),
            N_hat=io.dual_matrix_to_dict(d.N_hat, name="N_hat"),
            U3=d.U3.tolist(),
            reconstruction_residual=inverses._rel(
                (core + nilpotent - ah).norm(), ah.norm()))
        cert = inverses.dcepgi_exists(ah, args.tol)
        report["dcepgi_certificate"] = _certificate_dict(cert)
        if cert.exists:
            report["core_part"] = io.dual_matrix_to_dict(core, name="core")
            report["nilpotent_part"] = io.dual_matrix_to_dict(
                nilpotent, name="nilpotent")
    return _report(args, "decompose", {args.input: digest}, compute)


def cmd_solve(args):
    _, ah, matrix_digest = io._read(args.matrix)
    _, bhat, rhs_digest = io._read(args.rhs, vector=True)

    def compute(report):
        if args.mode == "unique-in-range":
            xhat = solver.solve_unique_in_range(ah, bhat, args.tol)
            report["solution"] = io.dual_vector_to_dict(xhat, name="solution")
            return
        sol = solver.solve_general(ah, bhat, args.tol)
        report["particular"] = io.dual_vector_to_dict(sol.particular,
                                                      name="particular")
        report["homogeneous_projector"] = io.dual_matrix_to_dict(
            sol.homogeneous_projector, name="projector")
        report["residual"] = sol.residual
        # spot-check random homogeneous shifts
        rng = np.random.default_rng(args.seed)
        shifted = [sol.solution(DualVector(rng.standard_normal(len(bhat)),
                                           rng.standard_normal(len(bhat))))
                   for _ in range(args.spot_checks)]
        report["spot_check_residuals"] = solver._surrogate_residuals(
            ah, bhat, sol.surrogate_rhs, shifted)
    inputs = {args.matrix: matrix_digest, args.rhs: rhs_digest}
    return _report(args, f"solve {args.mode}", inputs, compute, seed=args.seed)


@functools.cache
def build_parser():
    """The CLI parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="dualgi",
        description="Generalized inverses of dual-number matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=_option(_tolerance, float, "tolerance"),
                       default=None, help="residual tolerance (default "
                       f"1e-10, or {TOL_ENV_VAR})")
        p.add_argument("--output", default=None,
                       help="also write the report to this path")

    p_inv = sub.add_parser("inverse", help="compute a dual generalized inverse")
    p_inv.add_argument("--kind", required=True, choices=sorted(_INVERSE_KINDS))
    p_inv.add_argument("input", help="dual matrix JSON file")
    add_common(p_inv)
    p_inv.set_defaults(func=cmd_inverse)

    p_dec = sub.add_parser("decompose", help="dual core-EP decomposition")
    p_dec.add_argument("input", help="dual matrix JSON file")
    add_common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_sol = sub.add_parser("solve", help="solve a dual linear system")
    p_sol.add_argument("matrix", help="dual matrix JSON file")
    p_sol.add_argument("rhs", help="dual vector JSON file")
    p_sol.add_argument("--mode", choices=["general", "unique-in-range"],
                       default="general")
    p_sol.add_argument("--spot-checks", type=_option(_count, int, "count"),
                       default=5, help="random homogeneous solutions to "
                       "check (default 5)")
    p_sol.add_argument("--seed", type=_option(_count, int, "seed"), default=0,
                       help="seed for randomized spot checks")
    add_common(p_sol)
    p_sol.set_defaults(func=cmd_solve)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.tol is None:
            args.tol = _default_tol()
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError: caught here, before usage errors
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
