"""Span and counter tracing of pcqm's public functions, from outside the program.

``install`` replaces each traced function with a wrapper in every pcqm module
that binds it, because callers look names up in their own module (``so4``
imports ``multiply`` by name, so patching ``operators.multiply`` alone would
miss its calls).  Scalar dunder methods are only counted, by replacing the
class attribute.  Spans (name, start, end, parent, request id) are kept in
memory and written out by ``Tracer.dump`` when the traced process ends.

Run as a script, it executes one CLI request in process through
``pcqm.cli.run`` with tracing on:

    python3 perfbench/tracer.py --summary S.json --spans S.jsonl --request 1 -- verify
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); attribute "Class.method" patches a class.
SPANS = (
    ("cli", "run", "cli.run"),
    ("operators", "multiply", "operators.multiply"),
    ("operators", "normal_form", "operators.normal_form"),
    ("operators", "commutator", "operators.commutator"),
    ("operators", "verify_canonical_relations", "operators.verify_canonical_relations"),
    ("operators", "verify_induced_relations", "operators.verify_induced_relations"),
    ("operators", "NcPolynomial.render", "expr.render"),
    ("so4", "verify_so4_relations", "so4.verify_so4_relations"),
    ("so4", "verify_recomposition", "so4.verify_recomposition"),
    ("so4", "verify_component_closure", "so4.verify_component_closure"),
    ("so4", "verify_casimir_commutes", "so4.verify_casimir_commutes"),
    ("so4", "casimir_expansion", "so4.casimir_expansion"),
    ("so4", "express_in_span", "so4.express_in_span"),
    ("so4", "branch_generator", "so4.builder"),
    ("so4", "pc_generator_poly", "so4.builder"),
    ("so4", "component", "so4.builder"),
    ("so4", "vector_operators", "so4.builder"),
    ("reports", "IdentityReport.to_dict", "reports.to_dict"),
    ("expr", "parse", "expr.parse"),
    ("expr", "evaluate", "expr.evaluate"),
    ("irrep", "build_irrep", "irrep.build_irrep"),
    ("irrep", "casimir_eigenvalue", "irrep.casimir_eigenvalue"),
    ("hydrogen", "corrected_spectrum", "hydrogen.corrected_spectrum"),
    ("hydrogen", "length_bound", "hydrogen.length_bound"),
    ("units", "convert", "units.convert"),
)

COUNTED = (
    ("scalars", "PcScalar.__mul__", "scalars.pc_mul.calls"),
    ("scalars", "PcScalar.__add__", "scalars.pc_add.calls"),
    ("scalars", "BaseScalar.__init__", "scalars.base_scalar.constructed"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.request_id = 0

    def span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request_id)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "a") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, busy_s (outermost spans only) and self_s."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[idx]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.busy_s"] += dur
        out.update(self.counters)
        return dict(out)


def _observe_normal_form(counters, args, result) -> None:
    terms = args[0].terms()
    counters["operators.normal_form.terms_in"] += len(terms)
    counters["operators.normal_form.terms_out"] += len(result.terms())
    longest = max((len(w) for w in terms), default=0)
    if longest > counters["operators.peak_word_len"]:
        counters["operators.peak_word_len"] = longest


def _observe_to_dict(counters, args, result) -> None:
    counters["reports.checks"] += len(args[0].checks)


def _observe_build_irrep(counters, args, result) -> None:
    # Computed from the dimension, not measured: six dense complex D x D
    # products (8 D^3 flops each) for the Casimir, and the 13 D x D complex
    # matrices (6 operators, 6 squares, 1 sum) it materializes.
    d = result.dim
    counters["irrep.flops_computed"] += 6 * 8 * d ** 3
    counters["irrep.matrix_bytes_computed"] += 13 * 16 * d * d


OBSERVERS = {
    "operators.normal_form": _observe_normal_form,
    "reports.to_dict": _observe_to_dict,
    "irrep.build_irrep": _observe_build_irrep,
}


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "pcqm" or name.startswith("pcqm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    import importlib

    import pcqm  # noqa: F401  (loads every submodule)

    def patch(module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"pcqm.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(vars(cls)[meth]))
        else:
            original = getattr(module, attr)
            _rebind(original, make(original))

    for module_name, attr, name in SPANS:
        patch(module_name, attr, lambda fn, n=name: tracer.span(n, fn, OBSERVERS.get(n)))
    for module_name, attr, name in COUNTED:
        patch(module_name, attr, lambda fn, n=name: tracer.count(n, fn))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    tracer = Tracer()
    tracer.request_id = int(opts["--request"])
    install(tracer)
    from pcqm import cli

    code, output = cli.run(cli.config_from_args(argv[split + 1:]))
    print(output)
    tracer.dump(opts["--spans"])
    with open(opts["--summary"], "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
