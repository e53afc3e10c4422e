"""Run one descentsum CLI job with every library layer traced.

    python3 benchmark/shim.py SPANS.json ARG...

wraps the public functions of descentsum.linalg, .spectral, .expfun and
.exact, calls descentsum.cli.main(ARG...), and writes the recorded spans to
SPANS.json when the job ends, whether it succeeded or raised.  A name
imported with ``from .x import y`` is a separate binding in the importing
module, so every module's binding of a wrapped function is replaced;
otherwise internal calls (det_P -> gamma -> mat_exp, or cli -> dp_alpha)
would slip past the wrappers.  No file of the program changes.

``layer_metrics`` turns the spans of a pass into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("linalg", "spectral", "expfun", "exact")
SEQUENCE_FUNCTIONS = {
    "exact.section6_recursion",
    "exact.genfun_coeffs",
    "exact.nearest_integer_formula",
    "exact.verify_genfun_equation",
    "exact.derangements",
}

# per-layer metrics: (name, unit); layer_metrics fills every one
METRICS = [
    ("linalg.self_s", "s"),
    ("linalg.mat_exp.calls", "count"),
    ("linalg.gamma.calls", "count"),
    ("linalg.det.calls", "count"),
    ("linalg.mat_exp.dim3", "count"),
    ("spectral.self_s", "s"),
    ("spectral.det_P.calls", "count"),
    ("spectral.find_real_roots.s", "s"),
    ("spectral.find_complex_roots.s", "s"),
    ("spectral.roots_returned", "count"),
    ("spectral.det_P_per_root", "ratio"),
    ("expfun.eigenfunction_pieces.s", "s"),
    ("expfun.inner_products.s", "s"),
    ("expfun.polytope_integral.calls", "count"),
    ("expfun.exppoly_terms", "count"),
    ("expfun.apply_operator.calls", "count"),
    ("expfun.alpha_by_operator_iteration.s", "s"),
    ("expfun.self_s", "s"),
    ("exact.self_s", "s"),
    ("exact.dp_alpha.calls", "count"),
    ("exact.dp_alpha.s", "s"),
    ("exact.brute_force_alpha.s", "s"),
    ("exact.sequence.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans (name index, start, end, parent index) and extra counts, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.counts = {"linalg.mat_exp.dim3": 0, "spectral.roots_returned": 0,
                       "expfun.exppoly_terms": 0}

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        count = _EXTRA_COUNTS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[pos] = (idx, start, end, stack[-1])
            if count is not None:
                key, amount = count(args, result)
                counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"descentsum.{name}")
                   for name in (*LAYERS, "cli")}
        modules["package"] = importlib.import_module("descentsum")
        replaced = {}
        for layer in LAYERS:
            module = modules[layer]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replaced[fn] = self.wrap(f"{layer}.{fname}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


_EXTRA_COUNTS = {
    # sum of d^3 over mat_exp inputs: the dense work, labelled as computed
    "linalg.mat_exp": lambda args, result: ("linalg.mat_exp.dim3", len(args[0]) ** 3),
    "spectral.find_real_roots": lambda args, result: ("spectral.roots_returned", len(result)),
    "spectral.find_complex_roots": lambda args, result: ("spectral.roots_returned", len(result)),
    "expfun.eigenfunction_pieces": lambda args, result: (
        "expfun.exppoly_terms", sum(len(p.terms) for p in result.pieces.values())),
}


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced jobs of one pass.

    A span's self time is its duration minus its direct children's; a
    layer's self time sums that over the layer's spans.  ``cli.self_s`` is
    the cli.main span's self time: the job's in-process time that no traced
    library call covers.  trace.overhead_s is left for the caller.
    """
    out = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in METRICS}
    for doc in traces:
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for idx, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for pos, (idx, start, end, parent) in enumerate(spans):
            name = names[idx]
            dur = end - start
            layer = name.split(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + dur - child[pos]
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if f"{name}.s" in out:
                out[f"{name}.s"] += dur
            if name in SEQUENCE_FUNCTIONS and (
                parent < 0 or names[spans[parent][0]] not in SEQUENCE_FUNCTIONS
            ):
                out["exact.sequence.s"] += dur
        for key, value in doc["counts"].items():
            out[key] += value
    roots = out["spectral.roots_returned"]
    out["spectral.det_P_per_root"] = out["spectral.det_P.calls"] / roots if roots else 0.0
    return {name: out[name] for name, _ in METRICS}


def main(argv: list[str]) -> int:
    spans_path, job_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["descentsum.cli"]
    main_fn = tracer.wrap("cli.main", cli.main)
    try:
        return main_fn(job_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
