"""Outside-in tracing of the library's public layer functions.

``Tracer.install`` replaces each traced function by a wrapper in every
module that binds it (``weyl_mul`` is imported by name into
``automorphisms`` and the package, ``nullspace``/``rank`` into
``invariants``, ...) and each traced method on its class.  The wrapper
records a span (op id, layer name, parent span, start and end in ns) and
the layer's work counters.  Spans stay in memory; ``restore`` puts every
original binding back, and ``layer_metrics`` folds the spans into the
per-layer metrics.  Nothing in the library itself is edited.

A span's self time is its duration minus the durations of its child spans.
Inclusive time counts only the outermost span of each name, so a layer that
calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns


def _weyl_mul(args, result, c):
    a, b = args[0], args[1]
    c["term_pairs"] += len(a.terms) * len(b.terms)
    c["peak_degree"] = max(c["peak_degree"], result.total_degree())


def _carrier_mul(args, result, c):
    c["term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _derive(args, result, c):
    c["nonzero"] += not result.is_zero()
    c["peak_terms"] = max(c["peak_terms"], len(result.terms))


def _phi(args, result, c):
    c["peak_terms"] = max(c["peak_terms"], len(result.terms))


def _elim(args, result, c):
    rows = args[0]
    width = args[1] if len(args) > 1 else (len(rows[0]) if rows else 0)
    c["cells"] += len(rows) * width
    c["nonzeros"] += sum(1 for row in rows for v in row if v)


def _is_element_product(args):
    """Products of two carrier elements; scalar multiples are not traced."""
    return hasattr(args[1], "terms")


# (span name, module, function or "Class.method", counter, call filter)
TARGETS = [
    ("weyl.mul", "lndcalc.weyl", "weyl_mul", _weyl_mul, None),
    ("commpoly.mul", "lndcalc.commpoly", "CommPoly.__mul__", _carrier_mul,
     _is_element_product),
    ("freealg.mul", "lndcalc.freealg", "FreeElement.__mul__", _carrier_mul,
     _is_element_product),
    ("projections.system_init", "lndcalc.projections", "LndSystem.__init__", None, None),
    ("projections.derive", "lndcalc.projections", "LndSystem.derive", _derive, None),
    ("projections.phi", "lndcalc.projections", "LndSystem.phi", _phi, None),
    ("projections.taylor_decompose", "lndcalc.projections", "LndSystem.taylor_decompose",
     None, None),
    ("automorphisms.invert", "lndcalc.automorphisms", "invert", None, None),
    ("automorphisms.twisted_partials", "lndcalc.automorphisms", "twisted_partials",
     None, None),
    ("automorphisms.aut_verify", "lndcalc.automorphisms", "aut_verify", None, None),
    ("automorphisms.apply", "lndcalc.automorphisms", "Automorphism.apply", None, None),
    ("linalg.elim", "lndcalc.linalg", "nullspace", _elim, None),
    ("linalg.elim", "lndcalc.linalg", "rank", _elim, None),
    ("invariants.kernel_oracle", "lndcalc.invariants", "graded_kernel_oracle", None, None),
    ("invariants.enumerate", "lndcalc.invariants", "enumerate_generators", None, None),
    ("invariants.subalgebra_dim", "lndcalc.invariants", "subalgebra_graded_dimension",
     None, None),
    ("parsing.parse", "lndcalc.parsing", "parse_element", None, None),
    ("parsing.parse", "lndcalc.parsing", "parse_images", None, None),
    ("formatting.render", "lndcalc.formatting", "render_terms", None, None),
    ("cli.main", "lndcalc.cli", "main", None, None),
]

# Per-layer metrics, in report order: (metric, span name, field).
METRICS = [
    ("weyl.mul.calls", "weyl.mul", "calls"),
    ("weyl.mul.self_ms", "weyl.mul", "self_ms"),
    ("weyl.mul.term_pairs", "weyl.mul", "term_pairs"),
    ("weyl.mul.peak_degree", "weyl.mul", "peak_degree"),
    ("commpoly.mul.calls", "commpoly.mul", "calls"),
    ("commpoly.mul.self_ms", "commpoly.mul", "self_ms"),
    ("commpoly.mul.term_pairs", "commpoly.mul", "term_pairs"),
    ("freealg.mul.calls", "freealg.mul", "calls"),
    ("freealg.mul.self_ms", "freealg.mul", "self_ms"),
    ("freealg.mul.term_pairs", "freealg.mul", "term_pairs"),
    ("projections.system_init.calls", "projections.system_init", "calls"),
    ("projections.system_init.incl_ms", "projections.system_init", "incl_ms"),
    ("projections.derive.calls", "projections.derive", "calls"),
    ("projections.derive.self_ms", "projections.derive", "self_ms"),
    ("projections.derive.nonzero_ratio", "projections.derive", "nonzero_ratio"),
    ("projections.phi.calls", "projections.phi", "calls"),
    ("projections.phi.self_ms", "projections.phi", "self_ms"),
    ("projections.phi.incl_ms", "projections.phi", "incl_ms"),
    ("projections.taylor_decompose.calls", "projections.taylor_decompose", "calls"),
    ("projections.taylor_decompose.incl_ms", "projections.taylor_decompose", "incl_ms"),
    ("projections.peak_terms", "projections", "peak_terms"),
    ("automorphisms.invert.incl_ms", "automorphisms.invert", "incl_ms"),
    ("automorphisms.twisted_partials.incl_ms", "automorphisms.twisted_partials", "incl_ms"),
    ("automorphisms.aut_verify.incl_ms", "automorphisms.aut_verify", "incl_ms"),
    ("automorphisms.apply.calls", "automorphisms.apply", "calls"),
    ("automorphisms.apply.incl_ms", "automorphisms.apply", "incl_ms"),
    ("linalg.elim.calls", "linalg.elim", "calls"),
    ("linalg.elim.self_ms", "linalg.elim", "self_ms"),
    ("linalg.elim.cells", "linalg.elim", "cells"),
    ("linalg.elim.density", "linalg.elim", "density"),
    ("invariants.kernel_oracle.self_ms", "invariants.kernel_oracle", "self_ms"),
    ("invariants.enumerate.incl_ms", "invariants.enumerate", "incl_ms"),
    ("invariants.subalgebra_dim.incl_ms", "invariants.subalgebra_dim", "incl_ms"),
    ("parsing.parse.calls", "parsing.parse", "calls"),
    ("parsing.parse.self_ms", "parsing.parse", "self_ms"),
    ("formatting.render.calls", "formatting.render", "calls"),
    ("formatting.render.self_ms", "formatting.render", "self_ms"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
]

UNITS = {"calls": "count", "self_ms": "ms", "incl_ms": "ms", "term_pairs": "count",
         "peak_degree": "count", "peak_terms": "count", "cells": "count",
         "nonzero_ratio": "ratio", "density": "ratio"}


class Tracer:
    """Spans and counters of one traced run; see the module docstring.

    The binding sites are found when the tracer is made, so every library
    module must be imported by then.  ``install`` and ``restore`` only swap
    the bindings, so a run can trace some ops and not others."""

    def __init__(self):
        # one record per span: [op id, name, parent index, start ns, end ns, outermost]
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._sites: list[tuple[object, str, object, object]] = []
        for name, module, attr, counter, accept in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._sites.append((cls, meth, original,
                                    self._wrap(name, original, counter, accept)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter, accept)
            for mod in list(sys.modules.values()):
                for key, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        self._sites.append((mod, key, original, wrapper))

    def begin_op(self) -> None:
        self.op += 1

    def install(self) -> None:
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)

    def _wrap(self, name, fn, counter, accept):
        spans, stack, active = self.spans, self._stack, self._active
        counts = self.counters.setdefault(name, {})
        for key in ("calls", "term_pairs", "peak_degree", "nonzero", "peak_terms",
                    "cells", "nonzeros"):
            counts.setdefault(key, 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if accept is not None and not accept(args):
                return fn(*args, **kwargs)
            depth = active.get(name, 0)
            record = [tracer.op, name, stack[-1] if stack else -1, 0, 0, depth == 0]
            stack.append(len(spans))
            spans.append(record)
            active[name] = depth + 1
            record[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter_ns()
                stack.pop()
                active[name] = depth
            counts["calls"] += 1
            if counter is not None:
                counter(args, result, counts)
            return result

        return wrapper

    # -- folding spans into metrics ------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: self and inclusive milliseconds."""
        child = [0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (_, name, _, start, end, outermost) in enumerate(self.spans):
            t = out.setdefault(name, {"self_ms": 0.0, "incl_ms": 0.0})
            t["self_ms"] += (end - start - child[i]) / 1e6
            if outermost:
                t["incl_ms"] += (end - start) / 1e6
        return out

    def layer_metrics(self) -> dict[str, float]:
        times = self.layer_times()
        fields = {name: {**counts, **times.get(name, {"self_ms": 0.0, "incl_ms": 0.0})}
                  for name, counts in self.counters.items()}
        for f in fields.values():
            f["nonzero_ratio"] = f["nonzero"] / f["calls"] if f["calls"] else 0.0
            f["density"] = f["nonzeros"] / f["cells"] if f["cells"] else 0.0
        fields["projections"] = {"peak_terms": max(
            fields[n]["peak_terms"] for n in ("projections.derive", "projections.phi"))}
        return {metric: {"value": fields[name][field], "unit": UNITS[field]}
                for metric, name, field in METRICS}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: op, name, parent, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, parent, start, end, _ in self.spans:
                fh.write(f"{op}\t{name}\t{parent}\t{start}\t{end}\n")
