"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds gerbe's public layer functions to wrappers that
record a span (name, start, end, parent span, item id) around every call.
A name imported with ``from ... import`` is looked up in the importing
module, so each function is rebound in every gerbe module that holds it.
Spans stay in memory until ``write``; ``self_times`` turns them into self
times (span duration minus the time covered by its child spans), and
``counts`` holds the per-layer work counters fed from call results, both
per item.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _adds(key, amount):
    """Counter callback adding amount(result) to key."""
    def feed(tracer, result):
        tracer.add(key, amount(result))
    return feed


def _count_roots(tracer, roots):
    tracer.add("exactpoly.roots.rational", sum(r.exact is not None for r in roots))
    tracer.add("exactpoly.roots.irrational", sum(r.exact is None for r in roots))


def _lead_bits(tracer, chi):
    bits = abs(chi.coeffs[-1]).bit_length() if chi.coeffs else 0
    tracer.maxima["exactpoly.chi.lead_bits_max"] = max(
        bits, tracer.maxima.get("exactpoly.chi.lead_bits_max", 0))


def _sweep(tracer, result):
    total, failures = result
    tracer.add("kernels.linking_sweep.graphs", total)
    tracer.add("kernels.linking_sweep.passing", total - failures)


# (module, function, span name, counter fed from the result).  The layers
# are the package modules; "kernels" is whichever backend _backend chose.
LAYER_FUNCTIONS = (
    ("gerbe.graph", "parse_graph", "graph.parse_graph", None),
    ("gerbe.graph", "epsilon_matrix", "graph.epsilon_matrix", None),
    ("gerbe.graph", "graph_automorphisms", "graph.graph_automorphisms",
     _adds("graph.graph_automorphisms.found", len)),
    ("gerbe.exactpoly", "char_poly", "exactpoly.char_poly", _lead_bits),
    ("gerbe.exactpoly", "squarefree_decomposition",
     "exactpoly.squarefree_decomposition", None),
    ("gerbe.exactpoly", "real_roots_with_multiplicity",
     "exactpoly.real_roots_with_multiplicity", _count_roots),
    ("gerbe.quadspace", "jacobi_eigh", "quadspace.jacobi_eigh", None),
    ("gerbe.quadspace", "rank", "quadspace.rank", None),
    ("gerbe.quadspace", "gram_factorize", "quadspace.gram_factorize", None),
    ("gerbe.quadspace", "isometry_between", "quadspace.isometry_between", None),
    ("gerbe.sheaf", "line_classes", "sheaf.line_classes", None),
    ("gerbe.sheaf", "partition_from_sign_matrix",
     "sheaf.partition_from_sign_matrix", None),
    ("gerbe.sheaf", "restrict_to_Y", "sheaf.restrict_to_Y", None),
    ("gerbe.sheaf", "check_class_linking", "sheaf.check_class_linking", None),
    ("gerbe.autgroup", "enumerate_group", "autgroup.enumerate_group",
     _adds("autgroup.elements", lambda grp: grp.order)),
    ("gerbe.autgroup", "orbits_on_lines", "autgroup.orbits_on_lines", None),
    ("gerbe.autgroup", "realize_isometry", "autgroup.realize_isometry", None),
    # per-graph linking_check is deliberately left alone: 67k calls a pass
    ("gerbe._backend", "signed_stabilizer", "kernels.signed_stabilizer",
     _adds("kernels.signed_stabilizer.solutions", len)),
    ("gerbe._backend", "linking_sweep", "kernels.linking_sweep", _sweep),
)


class Tracer:
    """Spans and counters for one traced run.  Set ``item`` to the id of
    the item about to run; spans and counts are kept per item."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, item id]
        self._stack = []
        self.item = None
        self.counts = defaultdict(int)  # (item id, counter name) -> total
        self.maxima = {}

    def add(self, key, amount):
        self.counts[(self.item, key)] += amount

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Rebind every layer function in every gerbe module that holds it,
        and restore the originals on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gerbe" or name.startswith("gerbe."))]
        saved = []
        try:
            for mod_name, attr, span_name, on_result in LAYER_FUNCTIONS:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self.wrap(span_name, original, on_result)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, value in reversed(saved):
                setattr(mod, key, value)

    def self_times(self):
        """{(item id, span name): [summed self seconds, calls]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for k, (name, start, end, _, item) in enumerate(self.spans):
            out[(item, name)][0] += end - start - child[k]
            out[(item, name)][1] += 1
        return dict(out)

    def write(self, path):
        """Spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
