"""Spans around the calls into each layer of ``rieszmv``, from outside the package.

:meth:`Tracer.install` replaces each public function at every module
attribute through which the package (or the benchmark) calls it with a
wrapper that records a span: name, start, end, parent span, query id and the
sizes of its arguments and result.  The ``k_*`` kernel operations that
``formula.evaluate`` calls are counted, not timed.

Bookkeeping (size counting, span records) runs on a paused clock: span times
are ``perf_counter()`` minus all bookkeeping time so far, so the tracer's own
work shows in no span.  Spans stay in memory and are written out by
:meth:`Tracer.write`; :func:`layer_metrics` turns them into per-layer self
times and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter


def _pieces(f):
    return sum(len(g) for g in f.groups)


def _children(node):
    for name in ("child", "left", "right"):
        sub = getattr(node, name, None)
        if sub is not None:
            yield sub


def dag_and_tree_size(root):
    """(distinct nodes, nodes of the printed tree) of a formula, iteratively."""
    tree = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in tree:
            stack.pop()
            continue
        pending = [c for c in _children(node) if id(c) not in tree]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        tree[id(node)] = 1 + sum(tree[id(c)] for c in _children(node))
    return len(tree), tree[id(root)]


# span name -> (attributes the wrapper is installed at, size counter).
# A counter maps (args, result) to a tuple of named counts.
LAYERS = {
    "cli.main": (["cli.main"], None),
    "formula.parse": (["cli.parse", "coherence.parse"], lambda a, r: (("chars", len(a[0])),)),
    "formula.evaluate": (["cli.evaluate", "geometry.evaluate", "coherence.evaluate"], None),
    "formula.format": (
        ["cli.format_formula", "coherence.format_formula"],
        lambda a, r: (("chars", len(r)),),
    ),
    "pwl.term_pwl": (
        ["cli.term_pwl", "geometry.term_pwl", "coherence.term_pwl"],
        lambda a, r: (("pieces", _pieces(r)),),
    ),
    "pwl.prune": (["pwl.prune"], lambda a, r: (("pieces_in", _pieces(a[0])), ("pieces_out", _pieces(r)))),
    "pwl.maxmin_eval": (["synthesis.maxmin_eval"], None),
    "pwl.linear_combination": (["coherence.linear_combination"], None),
    "geometry.vertices": (
        ["geometry.vertices_from_components", "coherence.vertices_from_components"],
        lambda a, r: (("pieces", len(a[1])), ("found", len(r))),
    ),
    "geometry.extremum": (["geometry.minimum", "geometry.maximum"], None),
    "lp.solve_lp": (["coherence.solve_lp"], lambda a, r: (("rows", len(a[0])), ("columns", len(a[2])))),
    "synthesis.synth_pwl": (
        ["synthesis.synth_pwl", "coherence.synth_pwl"],
        lambda a, r: tuple(zip(("dag_nodes", "tree_nodes"), dag_and_tree_size(r))),
    ),
    "synthesis.synth_trunc_affine": (["synthesis.synth_trunc_affine"], None),
    "coherence.event_image": (["coherence.event_image"], lambda a, r: (("points", len(r)),)),
    "coherence.check_coherent": (["coherence.check_coherent"], None),
    "coherence.verify_certificate": (["coherence.verify_certificate"], None),
    "coherence.span_combination": (["coherence.span_combination"], None),
}
KERNEL_OPS = ["formula.k_neg", "formula.k_implies", "formula.k_oplus", "formula.k_odot", "formula.k_join", "formula.k_meet"]


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, query id, counts)
        self.kernel_ops = 0
        self.query = None
        self._paused = 0.0
        self._stack = []
        self._installed = []
        self._dag_sizes = {}  # id(formula) -> (formula, distinct nodes)

    def _clock(self):
        return perf_counter() - self._paused

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b0 = perf_counter()
            sid = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            tracer._paused += perf_counter() - b0
            start = tracer._clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer._clock()
                b0 = perf_counter()
                tracer._stack.pop()
                # a call that raised has no result to measure
                counts = counter(args, result) if counter is not None and result is not None else ()
                tracer.spans.append((sid, name, start, end, parent, tracer.query, counts))
                tracer._paused += perf_counter() - b0

        return wrapper

    def start_query(self, qid):
        self.query = qid
        self._dag_sizes.clear()

    def _evaluate_counts(self, args, result):
        # DAG size of the evaluated formula, cached per query: evaluate is
        # called on one formula at many points
        phi = args[0]
        hit = self._dag_sizes.get(id(phi))
        if hit is None or hit[0] is not phi:
            hit = (phi, dag_and_tree_size(phi)[0])
            self._dag_sizes[id(phi)] = hit
        return (("nodes", hit[1]),)

    def _count_kernel(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            tracer.kernel_ops += 1
            return fn(*args)

        return wrapper

    def install(self):
        """Wrap every traced attribute (undone by :meth:`uninstall`)."""
        for name, (attributes, counter) in LAYERS.items():
            if name == "formula.evaluate":
                counter = self._evaluate_counts
            for attr in attributes:
                self._patch(attr, lambda fn, name=name, counter=counter: self._wrap(name, fn, counter))
        for attr in KERNEL_OPS:
            self._patch(attr, self._count_kernel)

    def _patch(self, attr, make):
        module_name, fn_name = attr.split(".")
        module = importlib.import_module("rieszmv." + module_name)
        original = getattr(module, fn_name)
        setattr(module, fn_name, make(original))
        self._installed.append((module, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._installed):
            setattr(module, fn_name, original)
        self._installed.clear()

    def write(self, path):
        """Spans as JSON lines, then one line with the kernel op count."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, query, counts in sorted(self.spans):
                out.write(json.dumps([sid, name, start, end, parent, query, dict(counts)]) + "\n")
            out.write(json.dumps({"kernel.ops": self.kernel_ops}) + "\n")


# metric name -> (span name, what): "self" sums self seconds, "calls"
# counts spans, any other word sums that count over the spans
METRICS = {
    "cli.main_self_s": ("cli.main", "self"),
    "formula.parse_s": ("formula.parse", "self"),
    "formula.parse_calls": ("formula.parse", "calls"),
    "formula.parse_chars": ("formula.parse", "chars"),
    "formula.evaluate_s": ("formula.evaluate", "self"),
    "formula.evaluate_calls": ("formula.evaluate", "calls"),
    "formula.evaluate_nodes": ("formula.evaluate", "nodes"),
    "formula.format_s": ("formula.format", "self"),
    "formula.format_chars": ("formula.format", "chars"),
    "pwl.term_pwl_s": ("pwl.term_pwl", "self"),
    "pwl.term_pwl_calls": ("pwl.term_pwl", "calls"),
    "pwl.term_pieces": ("pwl.term_pwl", "pieces"),
    "pwl.prune_s": ("pwl.prune", "self"),
    "pwl.prune_calls": ("pwl.prune", "calls"),
    "pwl.prune_pieces_in": ("pwl.prune", "pieces_in"),
    "pwl.prune_pieces_out": ("pwl.prune", "pieces_out"),
    "pwl.maxmin_eval_s": ("pwl.maxmin_eval", "self"),
    "pwl.maxmin_eval_calls": ("pwl.maxmin_eval", "calls"),
    "pwl.linear_combination_s": ("pwl.linear_combination", "self"),
    "geometry.vertices_s": ("geometry.vertices", "self"),
    "geometry.vertices_calls": ("geometry.vertices", "calls"),
    "geometry.vertex_pieces": ("geometry.vertices", "pieces"),
    "geometry.vertices_found": ("geometry.vertices", "found"),
    "geometry.extremum_s": ("geometry.extremum", "self"),
    "lp.solve_lp_s": ("lp.solve_lp", "self"),
    "lp.solve_lp_calls": ("lp.solve_lp", "calls"),
    "lp.rows": ("lp.solve_lp", "rows"),
    "lp.columns": ("lp.solve_lp", "columns"),
    "synthesis.synth_pwl_s": ("synthesis.synth_pwl", "self"),
    "synthesis.synth_trunc_affine_s": ("synthesis.synth_trunc_affine", "self"),
    "synthesis.synth_trunc_affine_calls": ("synthesis.synth_trunc_affine", "calls"),
    "synthesis.dag_nodes": ("synthesis.synth_pwl", "dag_nodes"),
    "synthesis.tree_nodes": ("synthesis.synth_pwl", "tree_nodes"),
    "coherence.event_image_s": ("coherence.event_image", "self"),
    "coherence.image_points": ("coherence.event_image", "points"),
    "coherence.check_coherent_s": ("coherence.check_coherent", "self"),
    "coherence.verify_certificate_s": ("coherence.verify_certificate", "self"),
    "coherence.span_combination_s": ("coherence.span_combination", "self"),
}
KERNEL_METRIC = "kernel.ops"


def unit_of(metric):
    return "s" if metric.endswith("_s") else "count"


def layer_metrics(path):
    """Per-layer metrics of one traced run, read back from its span file."""
    spans = []
    kernel_ops = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if isinstance(row, dict):
                kernel_ops = row[KERNEL_METRIC]
            else:
                spans.append(row)
    child_time = {}
    for sid, name, start, end, parent, query, counts in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for sid, name, start, end, parent, query, counts in spans:
        agg = totals.setdefault(name, {"self": 0.0, "calls": 0})
        agg["self"] += (end - start) - child_time.get(sid, 0.0)
        agg["calls"] += 1
        for key, value in counts.items():
            agg[key] = agg.get(key, 0) + value
    out = {}
    for metric, (span, what) in METRICS.items():
        out[metric] = totals.get(span, {}).get(what, 0.0 if what == "self" else 0)
    out[KERNEL_METRIC] = kernel_ops
    return out
