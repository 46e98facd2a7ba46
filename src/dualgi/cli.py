"""Command-line front end.

    dualgi inverse --kind cep matrix.json
    dualgi decompose matrix.json
    dualgi solve --mode general matrix.json rhs.json

Reports are emitted as compact one-line JSON on standard output.  Exit
statuses: 0 success, 1 usage/parse error, 2 proven nonexistence, 3
theorem hypothesis failure, 4 numerical failure (a factorization did
not converge).  The default tolerance (1e-10) can be overridden, by
a finite number > 0, with --tol or the DUALGI_TOL environment variable.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import decomposition, inverses, io, solver
from .dual import DualVector
from .errors import (DimensionError, HypothesisError, InverseNotExistError,
                     NumericalError)
from .realkernel import DEFAULT_TOL

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


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _certificate_dict(cert):
    if cert is None:
        return None
    return {
        "exists": cert.exists,
        "residuals": {k: float(v) for k, v in cert.residuals.items()},
        "tolerance": cert.tolerance,
    }


def _tolerance(text):
    """A residual tolerance, finite and > 0: a nan, zero or negative one
    would reject every input, an infinite one accept every input."""
    tol = float(text)
    if not 0 < tol < np.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number > 0, got {text!r}")
    return tol


def _count(text):
    """A number of spot checks, an integer >= 0: a negative one would
    report checks that never ran."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"count must be an integer >= 0, got {text!r}")
    return count


def _default_tol():
    env = os.environ.get(TOL_ENV_VAR)
    if env is not None:
        try:
            return _tolerance(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise SystemExit(f"invalid {TOL_ENV_VAR} value: {env!r}")
    return DEFAULT_TOL


def _emit(report, output):
    text = json.dumps(report)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_inverse(args):
    name, ah = io.read_dual_matrix(args.input)
    start = time.perf_counter()
    report = {
        "command": f"inverse {args.kind}",
        "inputs": {args.input: _digest(args.input)},
        "tolerance": args.tol,
    }
    certified = _INVERSE_KINDS[args.kind]
    try:
        cert = certified(ah, args.tol) if certified else None
    except InverseNotExistError as exc:
        report["exists"] = False
        report["message"] = str(exc)
        report["certificate"] = _certificate_dict(exc.certificate)
        code = EXIT_NOT_EXIST
    else:
        report["exists"] = True
        report["result"] = io.dual_matrix_to_dict(
            cert.witness if cert else inverses.mpdgi(ah),
            name=f"{name or 'input'}_{args.kind}")
        if cert:
            report["certificate"] = _certificate_dict(cert)
        code = EXIT_OK
    report["elapsed_seconds"] = time.perf_counter() - start
    _emit(report, args.output)
    return code


def cmd_decompose(args):
    name, ah = io.read_dual_matrix(args.input)
    start = time.perf_counter()
    df = inverses._Frame(ah, "dual_core_ep_decompose")
    d = decomposition._decompose(df, args.tol)
    recon_res = inverses._rel((d.reconstruct() - ah).norm(), ah.norm())
    report = {
        "command": "decompose",
        "inputs": {args.input: _digest(args.input)},
        "tolerance": args.tol,
        "rank_of_power": d.t,
        "index": d.m,
        "canonical": d.canonical,
        "U_hat": io.dual_matrix_to_dict(d.U_hat, name="U_hat"),
        "T1_hat": io.dual_matrix_to_dict(d.T1_hat, name="T1_hat"),
        "T2_hat": io.dual_matrix_to_dict(d.T2_hat, name="T2_hat"),
        "N_hat": io.dual_matrix_to_dict(d.N_hat, name="N_hat"),
        "U3": d.U3.tolist(),
        "reconstruction_residual": recon_res,
    }
    cert = inverses._dcepgi_certificate(df, args.tol)
    report["dcepgi_certificate"] = _certificate_dict(cert)
    if cert.exists:
        core = ah @ cert.witness @ ah
        report["core_part"] = io.dual_matrix_to_dict(core, name="core")
        report["nilpotent_part"] = io.dual_matrix_to_dict(ah - core,
                                                          name="nilpotent")
    report["elapsed_seconds"] = time.perf_counter() - start
    _emit(report, args.output)
    return EXIT_OK


def cmd_solve(args):
    name, ah = io.read_dual_matrix(args.matrix)
    _, bhat = io.read_dual_vector(args.rhs)
    start = time.perf_counter()
    report = {
        "command": f"solve {args.mode}",
        "inputs": {args.matrix: _digest(args.matrix),
                   args.rhs: _digest(args.rhs)},
        "tolerance": args.tol,
        "seed": args.seed,
    }
    if args.mode == "general":
        df = solver._checked_frame(ah, bhat)
        sol = solver._solve_general(df, bhat, args.tol)
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
            df, inverses._dcepgi_canonical(df), bhat, sol.surrogate_rhs,
            shifted)
    else:
        xhat = solver.solve_unique_in_range(ah, bhat, args.tol)
        report["solution"] = io.dual_vector_to_dict(xhat, name="solution")
    report["elapsed_seconds"] = time.perf_counter() - start
    _emit(report, args.output)
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="dualgi",
        description="Generalized inverses of dual-number matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="residual tolerance (default 1e-10, or "
                            f"{TOL_ENV_VAR})")
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
    p_sol.add_argument("--spot-checks", type=_count, default=5,
                       help="random homogeneous solutions to check "
                            "(default 5)")
    p_sol.add_argument("--seed", type=int, default=0,
                       help="seed for randomized spot checks")
    add_common(p_sol)
    p_sol.set_defaults(func=cmd_solve)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.tol is None:
        args.tol = _default_tol()
    try:
        return args.func(args)
    except InverseNotExistError as exc:
        print(json.dumps({"error": str(exc), "exists": False,
                          "certificate": _certificate_dict(exc.certificate)}))
        return EXIT_NOT_EXIST
    except HypothesisError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_HYPOTHESIS
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError: caught here, before usage errors
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, KeyError, DimensionError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
