"""Outside-in tracing of divlat's layers, done entirely from the benchmark.

``Tracer.install`` wraps every public function of each layer module, plus
a few hot methods, and rebinds the wrapper in every ``divlat.*`` namespace
that imported the original, so calls between layers go through it.  Each
wrapper records a span (name, start, end, parent span, op id); a span's
self time is its duration minus that of its child spans.  ``primes`` is not
wrapped: its helpers are cheap and many, so their cost lands in the
caller's self time.  Calls from worker threads pass through unrecorded.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

LAYERS = ("exactalg", "classify", "fitting", "divisibility", "numberring",
          "verifier", "supernat", "serialize", "cli", "corpus")
METHODS = ("exactalg.IntMatrix.det", "exactalg.IntMatrix.__pow__",
           "exactalg.QMatrix.inverse", "numberring.OKModule.det_as_ring_element")

# Functions whose calls and self time are reported; the list is the
# per_layer section of BENCHMARK.json.  The first block is the set each
# layer must report; the second adds the functions with the most self time
# on some workload at the commit that defined the benchmark.
FUNCTIONS = (
    "exactalg.min_poly", "exactalg.char_poly", "exactalg.snf", "exactalg.hnf",
    "exactalg.kernel_saturated", "exactalg.image_lattice", "exactalg.restrict_to_lattice",
    "exactalg.IntMatrix.det", "exactalg.IntMatrix.__pow__", "exactalg.QMatrix.inverse",
    "classify.classify_operator", "classify.jordan_chevalley", "classify.is_semisimple",
    "classify.finite_order", "classify.roots_of_unity_spectrum",
    "fitting.fitting_decompose", "fitting.clean_split",
    "divisibility.root_search", "divisibility.impossibility_certificates",
    "divisibility.coprime_root", "divisibility.realizable_orders",
    "divisibility.divisibility_spectrum",
    "numberring.unit_group", "numberring.OKModule.det_as_ring_element",
    "verifier.verify",
    "supernat.pi_S", "supernat.additive_hypothesis",
    "serialize.problem_from_json", "serialize.theorem_report_to_json",
    "serialize.outcome_to_json", "serialize.canonical_dumps",
    "cli.main",
    "corpus.gen_corpus",
    # most self time beyond the set above
    "cli.build_parser",
    "exactalg.poly_gcd", "exactalg.squarefree_part", "exactalg.cyclotomic",
    "exactalg.cyclotomics_up_to_degree", "exactalg.kernel_complement_columns",
    "exactalg.companion_matrix",
    "serialize.matrix_from_json", "serialize.matrix_to_json", "serialize.qmatrix_to_json",
    "serialize.problem_to_json", "serialize.classify_to_json", "serialize.spectrum_to_json",
    "serialize.ring_from_json",
    "corpus.conjugate", "corpus.random_unimodular",
    "numberring.embed_ok_matrix", "divisibility.zero_plus_finite_order",
)
COUNTERS = (
    "divisibility.outcome.found", "divisibility.outcome.proved_impossible",
    "divisibility.outcome.exhausted", "divisibility.outcome.exhausted_incomplete",
    "verifier.verdict.consistent", "verifier.verdict.inconclusive",
    "verifier.verdict.counterexample_candidate",
)


def _outcome(result):
    kind = type(result).__name__
    if kind == "Found":
        return "divisibility.outcome.found"
    if kind == "ProvedImpossible":
        return "divisibility.outcome.proved_impossible"
    return "divisibility.outcome." + ("exhausted" if result.complete else "exhausted_incomplete")


def _verdict(report):
    return "verifier.verdict." + report.verdict.lower().replace("-", "_")


HOOKS = {"divisibility.root_search": _outcome, "verifier.verify": _verdict}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent span index or -1, op id)
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.op = "setup"
        self._stack = []  # [span index, child time in ns]
        self._undo = []
        self._main = threading.get_ident()

    def _wrap(self, name, fn):
        spans, stack, calls, self_ns, counts = self.spans, self._stack, self.calls, self.self_ns, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        main = self._main
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = -1
                if stack:
                    stack[-1][1] += end - start
                    parent = stack[-1][0]
                spans[frame[0]] = (name, start, end, parent, tracer.op)
                calls[name] += 1
                self_ns[name] += end - start - frame[1]
            if hook is not None:
                counts[hook(result)] += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap the layers of the divlat package currently imported."""
        wrappers = {}
        for short in LAYERS:
            mod = sys.modules[f"divlat.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for path in METHODS:
            short, cls_name, meth = path.split(".")
            cls = getattr(sys.modules[f"divlat.{short}"], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(path, original))
            self._undo.append((cls, meth, original))
        for name, mod in list(sys.modules.items()):
            if name != "divlat" and not name.startswith("divlat."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def metrics(self):
        """Every per-layer metric, by name, with its unit."""
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self.self_ns[name] / 1e6, "unit": "ms"}
        for name in COUNTERS:
            out[name] = {"value": self.counts[name], "unit": "count"}
        return out

    def top(self, limit=25):
        """(name, calls, self ms) for the functions with the most self time."""
        ranked = sorted(self.self_ns.items(), key=lambda kv: -kv[1])[:limit]
        return [(name, self.calls[name], ns / 1e6) for name, ns in ranked]
