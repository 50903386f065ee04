"""Outside-in tracing of the fermatgroups layers, installed from the benchmark.

`install` wraps each module's public functions and hot methods and rebinds
every wrapper in every `fermatgroups` module namespace that imported the
original (for example `search` and `cli` import `height` and the format
helpers by name), so no file under `src/` changes.

Each op is one trace.  Calls inside it are aggregated per call path: a node
is keyed by (parent node, function), and keeps its call count, total time
and the time its children covered.  A node is one span of the trace (parent
ids shared within the op); repeated calls along one path, such as the
thousands of `rational_kth_root` or `CyclotomicNumber.__init__` calls under
one parent, add to one node instead of one span each, so memory is bounded
by the number of distinct call paths, not by the number of calls.  A node's
self time is its total minus its children's; summed per layer, with the op
root counted as the `cli` layer, the self times add up to the op time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["LAYERS", "Tracer"]

# Layer (module) -> wrapped public functions and hot methods ("Class.method").
LAYERS = {
    "rationals": (
        "height", "parse_rational", "parse_projective", "parse_point", "format_rational",
        "format_projective", "format_point", "projective_ratio", "as_projective", "pr_neg",
        "Mat2.__post_init__", "Mat2.__mul__", "Mat2.__neg__", "Mat2.__pow__", "Mat2.det",
        "Mat2.apply", "Mat2.identity",
    ),
    "cyclotomic": (
        "euler_phi", "CyclotomicNumber.__init__", "CyclotomicNumber.__mul__",
        "CyclotomicNumber.__rmul__", "CyclotomicNumber.__add__", "CyclotomicNumber.__radd__",
        "CyclotomicNumber.__sub__", "CyclotomicNumber.__neg__", "CyclotomicNumber.__pow__",
        "CyclotomicNumber.__eq__", "CyclotomicNumber.__hash__", "CyclotomicNumber.root_of_unity",
        "CyclotomicNumber.from_rational", "CyclotomicNumber.is_rational", "CyclotomicNumber.as_dict",
    ),
    "monomial": (
        "enumerate_group", "orbit", "stabilizer", "rational_elements", "orbit_rational_points",
        "cyclo_vector", "form_value", "group_order", "MonomialMatrix.__mul__",
        "MonomialMatrix.apply", "MonomialMatrix.inverse", "MonomialMatrix.as_dict",
    ),
    "search": (
        "reduced_fractions", "rational_kth_root", "search_n", "search_solutions",
        "n_counterexample", "verify_orbit_coverage", "hyperbola_points", "circle_points",
    ),
    "circle": (
        "compose_delta", "rotation_matrix", "chart", "solve_delta", "delta_identity_audit",
        "primitive_triples", "on_circle", "require_on_circle", "CircleElement.act",
        "CircleElement.compose", "CircleElement.to_matrix", "CircleElement.inverse",
    ),
    "hyperbola": (
        "compose_delta", "rotation_matrix", "chart", "solve_delta", "delta_identity_audit",
        "on_hyperbola", "require_on_hyperbola", "require_valid_delta", "HyperbolicElement.act",
        "HyperbolicElement.compose", "HyperbolicElement.to_matrix", "HyperbolicElement.inverse",
    ),
    "stroboscope": ("iterate", "power_parameter", "period_check", "height_profile"),
    "audit": (
        "run_audit_suite", "circle_law_sample", "monomial_law_sample", "circle_identity_sweep",
        "hyperbola_identity_sweep", "rational_subgroup_audit", "orbit_cardinality_audit",
        "render_identity_audit",
    ),
}


def _digits(text):
    num, _, den = text.partition("/")
    return max(len(num.lstrip("-")), len(den))


# Result hooks: counters that need the value a call returned.
def _on_result(tracer, name, result):
    counts = tracer.counts
    if name == "search.reduced_fractions":
        counts["search.candidates"] += len(result)
    elif name.startswith("search.search_n"):
        counts["search.solutions"] += len(result.solutions)
    elif name == "monomial.enumerate_group":
        counts["monomial.elements"] += len(result)
    elif name == "monomial.rational_elements":
        counts["monomial.elements"] += result.order
    elif name == "monomial.orbit":
        counts["monomial.orbit_points"] += len(result)
    elif name == "stroboscope.iterate":
        counts["stroboscope.steps"] += len(result.points)
    elif name == "rationals.format_rational":
        tracer.max_digits = max(tracer.max_digits, _digits(result))


_HOOKED = {
    "search.reduced_fractions", "search.search_n", "monomial.enumerate_group",
    "monomial.rational_elements", "monomial.orbit", "stroboscope.iterate",
    "rationals.format_rational",
}


def _search_n_label(args, kwargs):
    n = kwargs["n"] if "n" in kwargs else args[1]
    return f"search.search_n[n={n}]"


class _Node:
    __slots__ = ("name", "layer", "children", "calls", "total", "child")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Call-path aggregating tracer; one root node per op."""

    def __init__(self):
        self.stack = []  # frames: [node, time covered by children]
        self.ops = []  # (argv, root node)
        self.counts = Counter()
        self.max_digits = 0

    def wrap(self, fn, layer, name):
        stack = self.stack
        label = _search_n_label if name == "search.search_n" else None
        hooked = name in _HOOKED
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            key = name if label is None else label(args, kwargs)
            node = parent[0].children.get(key)
            if node is None:
                node = parent[0].children[key] = _Node(key, layer)
            frame = [node, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                node.calls += 1
                node.total += elapsed
                node.child += frame[1]
                parent[1] += elapsed
            if hooked:
                _on_result(tracer, name, result)
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS and rebind it across the package."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fermatgroups" or n.startswith("fermatgroups.")]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"fermatgroups.{layer}")
            for qualname in names:
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    owner_name, attr = qualname.split(".")
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self.wrap(raw.__func__, layer, name)))
                    else:
                        setattr(owner, attr, self.wrap(raw, layer, name))
                    continue
                original = getattr(module, qualname)
                traced = self.wrap(original, layer, name)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, traced)

    def begin_op(self, argv):
        root = _Node("op", "cli")
        self.ops.append((argv, root))
        self.stack.append([root, 0.0])

    def end_op(self, elapsed):
        """Close the op; its root node gets the op time the caller measured."""
        root, child = self.stack.pop()
        root.calls, root.total, root.child = 1, elapsed, child

    # ------------------------------------------------------------ summaries --

    def _walk(self):
        """Yield (node, names on the path above it) over every op tree."""
        for _, root in self.ops:
            todo = [(root, frozenset())]
            while todo:
                node, above = todo.pop()
                yield node, above
                inner = above | {node.name}
                todo.extend((child, inner) for child in node.children.values())

    def summary(self):
        """Per-layer self time, per-function totals and calls, and counters."""
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = Counter()
        op_s = 0.0
        for node, above in self._walk():
            self_s[node.layer] += node.total - node.child
            calls[node.name] += node.calls
            if node.name == "op":
                op_s += node.total
            elif node.name not in above:  # outermost call only, so recursion counts once
                total_s[node.name] += node.total
        return {
            "op_s": op_s,
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "max_digits": self.max_digits,
        }

    def dump(self, path):
        """Write every op's spans as JSON lines, one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            next_id = 0
            for trace_id, (argv, root) in enumerate(self.ops):
                todo = [(root, None)]
                while todo:
                    node, parent = todo.pop()
                    span_id, next_id = next_id, next_id + 1
                    record = {
                        "trace": trace_id,
                        "span": span_id,
                        "parent": parent,
                        "name": " ".join(argv) if node.name == "op" else node.name,
                        "layer": node.layer,
                        "calls": node.calls,
                        "total_s": node.total,
                        "self_s": node.total - node.child,
                    }
                    handle.write(json.dumps(record) + "\n")
                    todo.extend((child, span_id) for child in node.children.values())
