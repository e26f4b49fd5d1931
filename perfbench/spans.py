"""Spans and counters recorded from outside the program.

`install(tracer)` replaces the public functions named in SPANNED and COUNTED
with wrappers.  A caller that did `from .forward import reach_exactly` holds
its own binding, so every module namespace that binds the original object is
patched, not only the defining module; `RealAlg` methods are patched on the
class.  Nothing is installed unless a traced run asks for it.

A span is (name, start, end, parent index, request id).  Spans stay in memory
and are written out when the run ends; a layer's self time is its spans'
duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name; calls, time and self time are recorded
SPANNED = {
    ("ltireach.driver", "decide"): "driver.decide",
    ("ltireach.driver", "audit"): "driver.audit",
    ("ltireach.preprocess", "check_simple"): "preprocess.check_simple",
    ("ltireach.preprocess", "to_simple_form"): "preprocess.to_simple_form",
    ("ltireach.linalg", "spectral_decompose"): "linalg.spectral_decompose",
    ("ltireach.linalg", "expand_inner_product"): "linalg.expand_inner_product",
    ("ltireach.geometry", "lp_solve"): "geometry.lp_solve",
    ("ltireach.geometry", "facet_normals"): "geometry.facet_normals",
    ("ltireach.geometry", "minkowski_sum"): "geometry.minkowski_sum",
    ("ltireach.forward", "reach_exactly"): "forward.reach_exactly",
    ("ltireach.forward", "verify_witness"): "forward.verify_witness",
    ("ltireach.certify", "verify_separator"): "certify.verify_separator",
    ("ltireach.certify", "eventual_maximizer"): "certify.eventual_maximizer",
    ("ltireach.certify", "classify_sequence"): "certify.classify_sequence",
    ("ltireach.certify", "sup_in_direction"): "certify.sup_in_direction",
    ("ltireach.certify", "recompute_sup_from_certificate"): "certify.recompute_sup",
    ("ltireach.exactnum", "factor_int_poly"): "exactnum.factor",
    ("ltireach.instances", "parse_instance"): "instances.parse_instance",
    ("ltireach.instances", "verdict_to_json"): "instances.verdict_to_json",
    ("ltireach.gadgets", "markov_to_lti"): "gadgets.build",
    ("ltireach.gadgets", "skolem_to_lti"): "gadgets.build",
    ("ltireach.gadgets", "vector_reach_to_lti"): "gadgets.build",
    ("ltireach.gadgets", "powering_to_vector_reach"): "gadgets.build",
}

# generators: each next() is a span, each yielded item a counted candidate
GENERATORS = {
    ("ltireach.certify", "extremal_candidates"): "certify.candidates.extremal",
    ("ltireach.certify", "enumerate_algebraic_vectors"): "certify.candidates.enumerated",
}

# hot functions: call counts only, a span per call would dwarf the work
COUNTED = {
    ("ltireach.exactnum", "sturm_chain"): "exactnum.sturm_chain.calls",
}
COUNTED_METHODS = {
    "from_rational": "exactnum.from_rational.calls",
    "__add__": "exactnum.realalg_arith.calls",
    "__radd__": "exactnum.realalg_arith.calls",
    "__sub__": "exactnum.realalg_arith.calls",
    "__rsub__": "exactnum.realalg_arith.calls",
    "__mul__": "exactnum.realalg_arith.calls",
    "__rmul__": "exactnum.realalg_arith.calls",
    "compare": "exactnum.compare.calls",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, request)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.request = None
        self.lp_cells = 0

    def span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out


def _rebind(original, replacement, modules) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer, extra_modules=()) -> None:
    """Patch every binding of the traced functions in ltireach's modules and
    in `extra_modules` (the benchmark's own generators)."""
    import ltireach.certify  # noqa: F401  (load every traced module)
    import ltireach.driver  # noqa: F401
    import ltireach.gadgets  # noqa: F401
    import ltireach.instances  # noqa: F401
    from ltireach.exactnum import RealAlg

    modules = [m for n, m in sys.modules.items() if n.startswith("ltireach")] + list(extra_modules)

    def spanned(name, fn):
        if name == "geometry.lp_solve":
            @functools.wraps(fn)
            def wrapper(objective, constraints, num_vars, *args, **kwargs):
                tracer.lp_cells += len(constraints) * num_vars
                return tracer.span(name, fn, (objective, constraints, num_vars) + args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, args, kwargs)
        return wrapper

    def generator(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.span("certify.candidate_gen", next, (it,), {})
                except StopIteration:
                    return
                tracer.counts[name] += 1
                yield item
        return wrapper

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for table, make in ((SPANNED, spanned), (GENERATORS, generator), (COUNTED, counted)):
        for (mod_name, attr), name in table.items():
            original = getattr(sys.modules[mod_name], attr)
            _rebind(original, make(name, original), modules)

    for attr, name in COUNTED_METHODS.items():
        raw = RealAlg.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(RealAlg, attr, staticmethod(counted(name, raw.__func__)))
        else:
            setattr(RealAlg, attr, counted(name, raw))
