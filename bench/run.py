"""Benchmark of dualgi, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs whole rounds of
its operations in this process until S seconds have passed, checking
every output apart from the program.  BLAS is pinned to one thread.

Each operation of a round is timed in every round, and its time is the
best of those repetitions: the inputs and the work are fixed, so the
best time measures the program, and the slower repetitions measure how
busy the shared host was.  --trace 0 prints the end-to-end metrics:
throughput of a round at those times, the median and 90th percentile of
them over the round's operations, peak resident memory, and the set-up
time (median over fresh interpreters, started between rounds across the
run, of the time to import dualgi with NumPy).  --trace 1 wraps the
program's layers and numpy.linalg (see tracing.py) and prints per-layer
metrics per operation instead; its spans go to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("small_pipeline", "verdict_scan", "large_solve", "cli_inproc")
SETUP_REPEATS = 9
SETUP_CODE = ("import time; t = time.perf_counter(); import dualgi.cli; "
              "print(time.perf_counter() - t)")
MAX_REPORTED_FAILURES = 5


def import_program():
    """Import dualgi from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dualgi", "__init__.py")):
        sys.exit(f"error: {SRC}/dualgi not found; run from a dualgi checkout")
    sys.path.insert(0, SRC)
    import dualgi
    import dualgi.cli  # noqa: F401  (the CLI workload calls it in-process)
    if os.path.dirname(os.path.dirname(os.path.abspath(dualgi.__file__))) != SRC:
        sys.exit(f"error: imported dualgi from {dualgi.__file__}, not {SRC}")
    return dualgi


def import_seconds():
    """Time to import dualgi in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def run_rounds(ops, seconds, tracer, setup_times):
    """Whole rounds of ``ops`` until ``seconds`` have passed.  Returns
    each operation's best time over the rounds, the number of operations
    attempted and the failures.

    Unless ``setup_times`` is None, SETUP_REPEATS import times are
    appended to it, spread evenly between rounds, so that their median
    samples the host over the whole run."""
    try:   # warm-up: first calls pay lazy set-up; not timed or counted
        ops[0].run()
    except Exception:
        pass
    best = [float("inf")] * len(ops)
    attempted, failures = 0, []
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(op.input_std)
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:   # the program raised: a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            best[i] = min(best[i], time.perf_counter() - t0)
            attempted += 1
            if tracer is not None:
                tracer.end_op()
            if error is None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    error = f"wrong output: {exc}"
            if error is not None:
                failures.append((op.label, error))
        elapsed = time.perf_counter() - start
        due = (SETUP_REPEATS if elapsed >= seconds
               else int(SETUP_REPEATS * elapsed / seconds) + 1)
        while setup_times is not None and len(setup_times) < due:
            setup_times.append(import_seconds())
        if elapsed >= seconds:
            return best, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dualgi = import_program()
    os.makedirs(OUT, exist_ok=True)
    rng = inputs.workload_rng(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        build_start = time.perf_counter()
        wl = getattr(workloads, args.workload)(rng, dualgi, workdir)
        build_s = time.perf_counter() - build_start
        setup_times = None if args.trace else []
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(keep_ops=len(wl.ops))
            tracer.install(dualgi)
        best, attempted, failures = run_rounds(wl.ops, args.seconds, tracer,
                                               setup_times)

    wrong = sum(1 for _, error in failures if error.startswith("wrong"))
    completed = attempted - len(failures)
    throughput = completed / attempted * len(best) / sum(best)
    for label, error in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {label}: {error}", file=sys.stderr)

    print(f"workload={args.workload} seed={args.seed} makeup: {wl.makeup}")
    print(f"ops_per_round={len(wl.ops)} rounds={attempted // len(wl.ops)} "
          f"attempted={attempted} failed={len(failures)} "
          f"input_build_s={build_s:.3f}")
    if tracer is None:
        metrics = {
            "throughput_ops_s": (throughput, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(best), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(
                best, n=10, method="inclusive")[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        report_bytes = (statistics.mean(wl.report_bytes)
                        if wl.report_bytes else 0.0)
        metrics = tracer.per_op(report_bytes)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans)
        print(f"traced throughput_ops_s={throughput:.6g} "
              f"spans={len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
