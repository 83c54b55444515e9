"""Spans around calls into the package's public functions.

``Tracer.install`` replaces each traced function, wherever the package
holds a reference to it (module globals and class attributes), by a
wrapper that records one span per call: name, start, end, parent span
and op id.  Calls the benchmark makes and calls one traced function makes
to another therefore both nest, which is what self time needs.  Spans
are kept in flat arrays in memory and written out once, when the run
ends.  Untraced runs never install the wrappers, so they pay nothing.
Span stamps are wall time; the summaries convert each span's duration to
reference seconds with the factor of the op it belongs to (see
``clock.py``), once the runner has set ``op_factors``.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter

# (module, attribute) pairs; "Class.method" patches the class attribute.
TRACED = (
    ("triangulation", "glue"),
    ("triangulation", "boundary_surfaces"),
    ("triangulation", "handle_structure"),
    ("triangulation", "dihedral_report"),
    ("triangulation", "render_scheme"),
    ("triangulation", "parse_scheme"),
    ("construction", "family_scheme"),
    ("construction", "verify_family"),
    ("construction", "family_stats"),
    ("freegroups", "stallings_graph"),
    ("freegroups", "SubgroupGraph.from_adjacency"),
    ("freegroups", "SubgroupGraph.contains"),
    ("freegroups", "SubgroupGraph.coset_representative"),
    ("freegroups", "SubgroupGraph.index"),
    ("freegroups", "SubgroupGraph.schreier_rank_check"),
    ("doubling", "Double.normal_form"),
    ("doubling", "Double.is_fixed"),
    ("doubling", "Double.project"),
    ("isometries", "commute"),
    ("isometries", "commuting_criterion"),
    ("isometries", "classify"),
    ("isometries", "fixed_points"),
    ("presentations", "presentation_from_complex"),
    ("presentations", "abelianization"),
    ("presentations", "smith_normal_form"),
    ("presentations", "tietze_simplify"),
    ("presentations", "rank_audit"),
)


def span_name(module: str, attr: str) -> str:
    """Metric name of a traced function: the class name is dropped."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def cli_span_name(argv) -> str:
    """``cli.<subcommand>``, e.g. ``cli.family_verify`` or ``cli.audit_sweep``."""
    words = [a.lstrip("-") for a in argv if a != "--machine"][:2]
    return "cli." + "_".join(words).replace("-", "_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.current_op = -1
        self.op_factors: list[float] = []

    def duration(self, i: int) -> float:
        """Span ``i`` in reference seconds."""
        op = self.op[i]
        factor = self.op_factors[op] if 0 <= op < len(self.op_factors) else 1.0
        return (self.end[i] - self.start[i]) * factor

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def unwind(self, span: int) -> None:
        """Close ``span`` and any span an interrupt left open inside it.

        An alarm can also land between the appends in ``open``; the arrays
        are then cut back to the last complete span."""
        arrays = (self.name, self.parent, self.op, self.start, self.end)
        complete = min(map(len, arrays))
        for a in arrays:
            del a[complete:]
        now = perf_counter()
        for idx in range(span, complete):
            if not self.end[idx]:
                self.end[idx] = now
        while self.stack[-1] >= 0 and self.stack.pop() != span:
            pass

    def innermost(self) -> str:
        top = self.stack[-1]
        return self.names[self.name[top]] if top >= 0 else "none"

    def wrap(self, fn, name: str | None = None, namer=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name if namer is None else namer(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def install(self, pkg):
        """Wrap every traced function; returns a callable that undoes it."""
        undo = []
        modules = [getattr(pkg, m) for m in pkg.MODULES]

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for module_name, attr in TRACED:
            module = getattr(pkg, module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patch(cls, meth, classmethod(self.wrap(raw.__func__, name)))
                else:
                    patch(cls, meth, self.wrap(raw, name))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    patch(m, attr, wrapper)
        patch(pkg.cli, "main", self.wrap(pkg.cli.main, namer=cli_span_name))

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return uninstall

    # -- summaries ---------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for i in range(len(self.start)):
            out.setdefault(self.names[self.name[i]], []).append(self.duration(i))
        return out

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """Per layer (module, or ``op`` for the benchmark's own op spans):
        calls, busy time, counting nested spans of the same layer once, and
        self time, each span's duration minus the part its children cover."""
        n = len(self.start)
        layer = [self.names[self.name[i]].split(".", 1)[0] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.duration(i)
        out: dict[str, list] = {}
        for i in range(n):
            dur = self.duration(i)
            totals = out.setdefault(layer[i], [0, 0.0, 0.0])
            totals[0] += 1
            p = self.parent[i]
            if p < 0 or layer[p] != layer[i]:
                totals[1] += dur
            totals[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def scaling_ms(self, name: str, op_kinds: dict[int, tuple[str, int]],
                   kind: str) -> dict[int, float]:
        """Median span duration of ``name`` per sweep size, over ops of ``kind``."""
        nid = self._ids.get(name)
        per_size: dict[int, list[float]] = {}
        if nid is None:
            return {}
        for i in range(len(self.start)):
            if self.name[i] == nid:
                op_kind, size = op_kinds.get(self.op[i], ("", 0))
                if op_kind == kind:
                    per_size.setdefault(size, []).append(self.duration(i))
        return {s: 1000 * statistics.median(v) for s, v in per_size.items()}

    def write(self, path) -> None:
        """One JSON array per span and line: [name, start s, end s, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], round(self.start[i], 7),
                                     round(self.end[i], 7), self.parent[i], self.op[i]]))
                fh.write("\n")
