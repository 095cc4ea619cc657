"""Outside-in layer tracer for the orthonet package.

The tracer wraps functions from the benchmark process only; nothing in the
package changes. A layer is an ``orthonet`` module (``scalar_fields``,
``chart_calculus``, ``nets``, ...), ``linalg`` for the ``numpy.linalg`` and
``scipy.linalg`` entry points, or ``bench`` for the benchmark's own code.

What is wrapped:

* every public module-level function of every ``orthonet`` module, rebound
  in each ``orthonet`` namespace that imported it (the package
  ``__init__`` too);
* ``MetricField.christoffel_entries``, ``inverse_entries`` and ``det``;
* the public functions of ``numpy.linalg`` and ``scipy.linalg``;
* ``Expr.__init__``, for the count of nodes built only.

Each wrapped function belongs to a group ``<layer>.<name>``. A call opens a
frame only when it enters its layer from another layer, or when it is one of
the ``_OWN_GROUP`` entry points and the caller is in another group of the
same layer. Every other call, such as the recursion inside ``diff``, passes
straight through after one comparison. A frame's self time is its duration
minus the time of the frames opened inside it, so the self times of all
layers add up to the traced wall time.

Frames of ``_HOT`` groups are only aggregated, as a count and total time per
(group, parent layer). Every other frame is also kept as a span (id, parent
id, group, start, end) and written out by ``write_spans``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LINALG = "linalg"
BENCH = "bench"

# chart_calculus groups; every other chart_calculus function is "numeric"
_CC_BUILD = {
    "det_expr", "inverse_exprs", "cov_deriv_exprs", "grad_exprs", "inner_exprs",
    "lie_bracket_exprs", "christoffel_entries", "inverse_entries", "det",
}
# scalar_fields smart constructors, counted on every call
_CONSTRUCTORS = {
    "const", "var", "add", "sub", "mul", "div", "neg", "powc", "apply_unary",
    "exp", "log", "sin", "cos", "sqrt",
}
# entry points timed on their own even when called from their own layer
_OWN_GROUP = {
    "chart_calculus.build", "chart_calculus.metric_at", "codazzi.eigen_two",
    "codazzi.codazzi_residual", "product_metrics.build_metric", "cli.load_manifest",
    "cli.run", "cli.emit",
}
# groups called per point or per node: aggregated, never kept as spans
_HOT = {
    "scalar_fields.evaluate", "scalar_fields.diff", "scalar_fields.build",
    "scalar_fields.free_vars", "scalar_fields.substitute",
    "scalar_fields.is_const_one", "chart_calculus.metric_at",
    "chart_calculus.numeric", "chart_calculus.build", "codazzi.eigen_two",
    "codazzi.codazzi_residual", "codazzi.self_adjoint_defect", LINALG,
}
SPAN_CAP = 200_000


def _group(layer: str, name: str) -> str:
    if layer == "scalar_fields" and name in _CONSTRUCTORS:
        return "scalar_fields.build"
    if layer == "chart_calculus":
        if name in _CC_BUILD:
            return "chart_calculus.build"
        return "chart_calculus.metric_at" if name == "metric_at" else "chart_calculus.numeric"
    if layer == LINALG:
        return LINALG
    return f"{layer}.{name}"


class _Frame:
    __slots__ = ("layer", "group", "span_id", "child")

    def __init__(self, layer, group, span_id):
        self.layer = layer
        self.group = group
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Installs wrappers, accumulates frame statistics, removes wrappers."""

    def __init__(self):
        # group -> [calls, total_s, self_s, errors]
        self.groups = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # group -> parent layer -> [calls, total_s]
        self.by_parent = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.wall_s = 0.0
        self._next_id = 1
        self._stack = [_Frame(BENCH, BENCH, 0)]
        self._patches: list[tuple] = []
        self._posts = {
            "sampling.sample_points": self._count_points,
            "cli.emit": self._count_bytes,
        }

    # --- frames -----------------------------------------------------------------

    def _count_points(self, result):
        self.counts["sampling.points"] += len(result)

    def _count_bytes(self, result):
        self.counts["cli.emit.bytes"] += len(result.encode("utf-8"))

    def call(self, fn, layer: str, group: str, args=(), kwargs=None):
        """Run fn inside a new frame of the given layer and group."""
        return self._enter(fn, layer, group, self.groups[group],
                           self.by_parent[group], args, kwargs or {})

    def _enter(self, fn, layer, group, stats, parents, args, kwargs):
        parent = self._stack[-1]
        span_id = self._next_id
        self._next_id += 1
        frame = _Frame(layer, group, span_id)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stats[3] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dt = t1 - t0
            own = dt - frame.child
            parent.child += dt
            stats[0] += 1
            stats[1] += dt
            stats[2] += own
            self.layer_self[layer] += own
            agg = parents[parent.layer]
            agg[0] += 1
            agg[1] += dt
            if group not in _HOT:
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent.span_id, group, t0, t1))
                else:
                    self.spans_dropped += 1
        post = self._posts.get(group)
        if post is not None:
            post(result)
        return result

    def run(self, fn):
        """Run fn as traced benchmark code and add its wall time to wall_s."""
        root = self._stack[0]
        before = root.child
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            self.wall_s += dt
            self.layer_self[BENCH] += dt - (root.child - before)

    # --- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, layer: str, group: str):
        stack = self._stack
        enter = self._enter
        counts = self.counts
        stats = self.groups[group]
        parents = self.by_parent[group]
        own_group = group in _OWN_GROUP
        count_every_call = group == "scalar_fields.build"

        def wrapper(*args, **kwargs):
            if count_every_call:
                counts[group] += 1
            top = stack[-1]
            if top.layer == layer and (not own_group or top.group == group):
                return fn(*args, **kwargs)
            return enter(fn, layer, group, stats, parents, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, callers=()):
        """Wrap the package in this process; undo with uninstall().

        ``callers`` are modules outside the package, such as the benchmark's
        own, whose imported package functions are rebound too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.linalg
        import scipy.linalg

        from orthonet.chart_calculus import MetricField
        from orthonet.scalar_fields import Expr

        modules = [
            m for name, m in sorted(sys.modules.items())
            if (name == "orthonet" or name.startswith("orthonet.")) and m is not None
        ]
        wrapped = {}  # id(original) -> wrapper
        for m in modules:
            layer = m.__name__.rpartition(".")[2]
            for name, obj in list(vars(m).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == m.__name__
                    and not name.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(obj, layer, _group(layer, name))
        for m in [*modules, *callers]:
            for name, obj in list(vars(m).items()):
                w = wrapped.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._patch(m, name, w)

        for name in ("christoffel_entries", "inverse_entries", "det"):
            fn = vars(MetricField)[name]
            group = _group("chart_calculus", name)
            self._patch(MetricField, name, self._wrap(fn, "chart_calculus", group))

        for mod in (numpy.linalg, scipy.linalg):
            for name in mod.__all__:
                obj = getattr(mod, name, None)
                if callable(obj) and not inspect.isclass(obj) and not inspect.ismodule(obj):
                    self._patch(mod, name, self._wrap(obj, LINALG, LINALG))

        init = Expr.__init__
        counts = self.counts

        def counted_init(node, *args, **kwargs):
            counts["nodes_built"] += 1
            init(node, *args, **kwargs)

        self._patch(Expr, "__init__", counted_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- output -----------------------------------------------------------------

    def write_spans(self, path):
        """Write the kept spans as JSON lines, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, group, t0, t1 in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": group,
                     "start": t0, "end": t1}
                ) + "\n")

