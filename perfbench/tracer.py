"""Per-layer spans recorded from outside the library.

The library binds names with `from .x import f`, so a wrapper must replace
every module attribute that holds the original function (for example
`qsa.decide.find_wild_witness` as well as `qsa.covering.find_wild_witness`).
`Tracer.install` does that for the functions in `LAYERS` and `uninstall`
puts the originals back.

A span is (operation index, layer function, duration, self time), where
self time is the duration minus the time of the spans nested inside it.
Spans stay in memory; `layer_metrics` turns them into per-operation
numbers when the run ends.  Counters read only arguments and results.
"""

import functools
import importlib
import sys
from time import perf_counter

# module -> public functions wrapped as spans; `_algebra.TruncatedAlgebra` is
# a class, so its constructor is wrapped instead.
LAYERS = {
    "presentation": ("parse_presentation", "serialize_presentation", "validate",
                     "path_basis", "is_tree", "underlying_graph", "opposite",
                     "presentations_isomorphic"),
    "classify": ("classify_vertices", "is_quadratic_string", "is_gqs",
                 "special_vertices"),
    "transform": ("blow_up", "mutate_at", "reduce_step", "reduce_to_skewed_gentle",
                  "certificate_payload"),
    "_endo": ("mutate_minus",),
    "_algebra": ("TruncatedAlgebra",),
    "euler": ("cartan_matrix", "euler_matrix", "euler_eval", "is_nonnegative_form"),
    "_linalg": ("inverse", "psd_flags", "negative_vector"),
    "covering": ("truncated_cover", "graph_type", "find_wild_witness",
                 "detect_local_wild_pattern"),
    "decide": ("decide_derived_type",),
    "cli": ("run_cli",),
}

# span name -> counter(args, result) -> amount added to "<span>.<counter>"
COUNTERS = {
    "linalg.psd_flags": lambda args, res: {"dim": len(args[0])},
    "covering.graph_type": lambda args, res: {"other": res.kind == "Other"},
    "covering.find_wild_witness": lambda args, res: {"found": res is not None},
    "covering.truncated_cover": lambda args, res: {"vertices": len(res.level)},
}


def span_name(module, func):
    """Metric names start with a letter: `_linalg.inverse` -> `linalg.inverse`."""
    return module.lstrip("_") + "." + func


class Tracer:
    def __init__(self):
        self.spans = []           # (op, name, duration, self time)
        self.counts = {}
        self.op_times = []        # duration of each traced operation
        self._stack = []          # child-time accumulators of open spans
        self._op = None
        self._restore = []

    def _wrap(self, name, fn):
        stack, spans, counter = self._stack, self.spans, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:           # outside a traced operation
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                spans.append((self._op, name, dur, dur - child[0]))
            if counter is not None:
                for key, amount in counter(args, result).items():
                    key = f"{name}.{key}"
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return wrapper

    def install(self):
        homes = {module: importlib.import_module("qsa." + module) for module in LAYERS}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qsa" or key.startswith("qsa.")]
        for module, funcs in LAYERS.items():
            home = homes[module]
            for func in funcs:
                name = span_name(module, func)
                orig = getattr(home, func)
                if isinstance(orig, type):
                    init = orig.__init__
                    orig.__init__ = self._wrap(name, init)
                    self._restore.append((orig, "__init__", init))
                    continue
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def run_op(self, index, fn):
        """Run one operation as the root span; returns fn()'s result."""
        self._op = index
        root = [0.0]
        self._stack.append(root)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            self.op_times.append(dur)
            self.spans.append((index, "harness", dur, dur - root[0]))
            self._op = None


def layer_metrics(tracer, metric_names):
    """Per-operation values of the `per_layer` metrics named in BENCHMARK.json."""
    ops = len(tracer.op_times)
    op_total = sum(tracer.op_times)
    calls, self_t, total_t, layer_self = {}, {}, {}, {}
    for _, name, dur, own in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + own
        total_t[name] = total_t.get(name, 0.0) + dur
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in metric_names:
        base, _, what = metric.rpartition(".")
        if metric == "trace.overhead_frac":
            continue                       # filled in by the caller
        if what == "calls":
            value = ratio(calls.get(base, 0), ops)
        elif what == "self_ms":
            value = ratio(self_t.get(base, 0.0) * 1000, ops)
        elif what == "self_share":
            value = ratio(layer_self.get(base.split(".")[1], 0.0), op_total)
        elif what == "total_share":
            value = ratio(total_t.get(base, 0.0), op_total)
        else:
            key = {"dim_mean": "dim", "other_ratio": "other", "hit_ratio": "found",
                   "ball_vertices": "vertices"}[what]
            value = ratio(tracer.counts.get(f"{base}.{key}", 0), calls.get(base, 0))
        out[metric] = value
    return out
