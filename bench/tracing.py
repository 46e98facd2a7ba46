"""Layer tracing from outside the program.

``Tracer.install()`` replaces, in place, every public function of each
``dualgi`` module by a timing wrapper, and does the same for the
functions of ``numpy.linalg``.  A function is replaced wherever it is
bound: in its defining module, in every other ``dualgi`` module that
imported it by name (``from .inverses import dcepgi``), in the package
namespace, and in module-level dispatch tables such as the CLI's
``_INVERSE_KINDS``.  Public methods and properties of the program's
classes are wrapped on the class; for the value types of the ``dual``
module the constructor and the arithmetic operators are wrapped too,
since that is where dual arithmetic spends its time.

``numpy.linalg`` functions are replaced both in ``numpy.linalg`` and in
the module that defines them (``numpy.linalg._linalg``), so calls that
NumPy makes internally are counted as well: the SVD inside ``pinv``,
and the SVD inside ``norm(x, 2)``.  Each call is counted under its own
name, nested or not; linalg time is the time of the outermost linalg
call.

Outside an operation (``begin_op``/``end_op``) the wrappers only pass
calls through.  Inside one, each wrapped call becomes a span (layer,
name, start, end, parent span, operation id).  A layer's self time is
its spans' duration minus the time of their child spans.  Spans are
kept in memory for the first ``keep_ops`` operations and written out
as JSON lines by ``write_spans``.
"""

import collections
import functools
import json
import time
import types

import numpy as np

MODULES = ("realkernel", "dual", "inverses", "decomposition", "relations",
           "solver", "io", "cli")
DUAL_OPERATORS = ("__init__", "__add__", "__radd__", "__sub__", "__neg__",
                  "__mul__", "__rmul__", "__matmul__")


def _key(a):
    a = np.ascontiguousarray(a, dtype=float)
    return hash((a.shape, a.tobytes()))


class Tracer:
    def __init__(self, keep_ops=0):
        self.keep_ops = keep_ops
        self.spans = []
        self.in_op = False
        self.ops = 0
        self.op_seconds = 0.0
        self.self_seconds = collections.Counter()   # layer -> s
        self.calls = collections.Counter()          # (layer, name) -> n
        self.frames = 0                 # core-EP decompositions of the input
        self.verdicts = 0               # distinct (input, kind) per op, summed
        self._op_verdicts = set()
        self._input_key = None
        self._stack = []
        self._next_span = 0
        self._wrappers = {}

    # -- operations ----------------------------------------------------
    def begin_op(self, input_std):
        self._input_key = _key(input_std)
        self._op_verdicts = set()
        self._stack = [[0.0, None]]
        self.in_op = True
        self._op_start = time.perf_counter()

    def end_op(self):
        elapsed = time.perf_counter() - self._op_start
        self.in_op = False
        self.op_seconds += elapsed
        self.verdicts += len(self._op_verdicts)
        self.ops += 1

    # -- wrapping ------------------------------------------------------
    def _wrap(self, layer, fn, name=None):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = name or fn.__name__
        hook = self._hook(layer, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.in_op:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            stack = tracer._stack
            span = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][1]
            entry = [0.0, span]
            stack.append(entry)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                tracer.self_seconds[layer] += duration - entry[0]
                tracer.calls[layer, name] += 1
                if tracer.ops < tracer.keep_ops:
                    tracer.spans.append((tracer.ops, span, parent, layer,
                                         name, start, end))

        self._wrappers[fn] = wrapper
        self._wrappers[wrapper] = wrapper
        return wrapper

    def _hook(self, layer, name):
        if layer == "realkernel" and name == "core_ep_decompose":
            def frame_hook(args):
                if args and _key(args[0]) == self._input_key:
                    self.frames += 1
            return frame_hook
        if layer == "inverses" and name.endswith("_exists"):
            def verdict_hook(args):
                if args:
                    ah = args[0]
                    self._op_verdicts.add((name, _key(ah.std), _key(ah.inf)))
            return verdict_hook
        return None

    def install(self, dualgi):
        """Wrap the program and numpy.linalg in place (for the life of
        the process)."""
        import importlib
        modules = {name: importlib.import_module(f"dualgi.{name}")
                   for name in MODULES}

        def layer_of(obj):
            mod = getattr(obj, "__module__", "") or ""
            parts = mod.split(".")
            if parts[0] == "dualgi" and len(parts) == 2 and parts[1] in MODULES:
                return parts[1]
            return None

        def public_function(obj):
            return (isinstance(obj, types.FunctionType)
                    and not obj.__name__.startswith("_")
                    and layer_of(obj) is not None)

        for namespace in [dualgi, *modules.values()]:
            for attr, val in list(vars(namespace).items()):
                if public_function(val):
                    setattr(namespace, attr, self._wrap(layer_of(val), val))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if public_function(v):
                            val[k] = self._wrap(layer_of(v), v)
                elif (isinstance(val, type) and layer_of(val) is not None
                      and not issubclass(val, BaseException)
                      and val.__module__ == namespace.__name__):
                    self._wrap_class(layer_of(val), val)

        import numpy.linalg as la
        import numpy.linalg._linalg as la_impl
        for attr in la.__all__:
            fn = getattr(la, attr)
            if isinstance(fn, type) or not callable(fn):
                continue
            wrapped = self._wrap("linalg", fn, attr)
            setattr(la, attr, wrapped)
            if getattr(la_impl, attr, None) is fn:
                setattr(la_impl, attr, wrapped)

    def _wrap_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and not (layer == "dual"
                                             and attr in DUAL_OPERATORS):
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(val, types.FunctionType):
                setattr(cls, attr, self._wrap(layer, val, label))
            elif isinstance(val, property) and val.fget is not None:
                setattr(cls, attr, property(self._wrap(layer, val.fget, label),
                                            val.fset, val.fdel, val.__doc__))
            elif isinstance(val, classmethod):
                setattr(cls, attr,
                        classmethod(self._wrap(layer, val.__func__, label)))

    # -- results -------------------------------------------------------
    def per_op(self, report_bytes):
        """Per-layer metrics, each a mean per operation."""
        ops = max(self.ops, 1)
        ms = {layer: 1e3 * s / ops for layer, s in self.self_seconds.items()}

        def count(layer, name):
            return self.calls[layer, name] / ops

        def layer_count(layer):
            return sum(n for (lay, _), n in self.calls.items() if lay == layer) / ops

        certifications = sum(n for (layer, name), n in self.calls.items()
                              if layer == "inverses" and name.endswith("_exists"))
        linalg_ms = ms.get("linalg", 0.0)
        return {
            "linalg.svd_calls": (count("linalg", "svd"), "count"),
            "linalg.pinv_calls": (count("linalg", "pinv"), "count"),
            "linalg.inv_calls": (count("linalg", "inv"), "count"),
            "linalg.lstsq_calls": (count("linalg", "lstsq"), "count"),
            "linalg.ms": (linalg_ms, "ms"),
            "realkernel.calls": (layer_count("realkernel"), "count"),
            "realkernel.self_ms": (ms.get("realkernel", 0.0), "ms"),
            "realkernel.index_calls": (count("realkernel", "index"), "count"),
            "realkernel.decompose_calls": (
                count("realkernel", "core_ep_decompose"), "count"),
            "realkernel.frames_per_input": (self.frames / ops, "ratio"),
            "inverses.certifications": (certifications / ops, "count"),
            "inverses.certs_per_verdict": (
                certifications / self.verdicts if self.verdicts else 0.0,
                "ratio"),
            "inverses.self_ms": (ms.get("inverses", 0.0), "ms"),
            "dual.calls": (layer_count("dual"), "count"),
            "dual.self_ms": (ms.get("dual", 0.0), "ms"),
            "op.outside_linalg_ms": (1e3 * self.op_seconds / ops - linalg_ms,
                                     "ms"),
            "decomposition.self_ms": (ms.get("decomposition", 0.0), "ms"),
            "relations.self_ms": (ms.get("relations", 0.0), "ms"),
            "solver.self_ms": (ms.get("solver", 0.0), "ms"),
            "io.self_ms": (ms.get("io", 0.0), "ms"),
            "cli.self_ms": (ms.get("cli", 0.0), "ms"),
            "cli.report_bytes": (report_bytes, "bytes"),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, span, parent, layer, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "span": span, "parent": parent, "layer": layer,
                    "name": name, "start_s": start, "end_s": end}) + "\n")
