"""In-memory span tracer for the traced benchmark run.

``instrument`` wraps ramid's public functions from outside, without touching
the package: each module-level function is rebound in every ``ramid`` module
namespace that holds it (``construct.squarefree_decompose``,
``enumeration.verify_tuple``, ``families.build_tuple`` ...), and methods are
rebound on their class (``Surd.__init__`` counts normalizations).  Each call
records a span: name, start, end, parent span and the op it belongs to.  A
name's self time is its spans' time minus the time of their direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

# (span name, module, attribute, optional (tally name, result -> number)).
FUNCTIONS = (
    ("exact.squarefree_decompose", "ramid.exact", "squarefree_decompose", None),
    ("exact.is_prime", "ramid.exact", "is_prime", None),
    ("identity.verify_tuple", "ramid.identity", "verify_tuple", None),
    ("identity.classify", "ramid.identity", "classify", None),
    ("identity.verify_variation", "ramid.identity", "verify_variation", None),
    ("construct.build_tuple", "ramid.construct", "build_tuple", None),
    (
        "construct.solve_roots",
        "ramid.construct",
        "solve_roots",
        ("construct.solve_roots.surd", lambda roots: roots.kind == "surd"),
    ),
    (
        "enumeration.enumerate_super_perfect",
        "ramid.enumeration",
        "enumerate_super_perfect",
        ("enumeration.candidates", lambda report: report.candidates_examined),
    ),
    (
        "enumeration.enumerate_perfect",
        "ramid.enumeration",
        "enumerate_perfect",
        ("enumeration.candidates", lambda report: report.candidates_examined),
    ),
    (
        "enumeration.solve_z",
        "ramid.enumeration",
        "solve_z",
        ("enumeration.solve_z.hits", lambda z: z is not None),
    ),
    (
        "families.discover",
        "ramid.families",
        "discover",
        ("families.discover.hits", len),
    ),
    ("families.generate", "ramid.families", "generate", None),
    ("render.render_latex", "ramid.render", "render_latex", None),
    ("render.render_text", "ramid.render", "render_text", None),
)

# (span name, module, class, method); both from_json methods are one span name.
METHODS = (
    ("exact.Surd.init", "ramid.exact", "Surd", "__init__"),
    ("identity.parse", "ramid.identity", "IdentityTuple", "from_json"),
    ("identity.parse", "ramid.identity", "VariationIdentity", "from_json"),
    ("enumeration.write_jsonl", "ramid.enumeration", "EnumerationReport", "write_jsonl"),
)


class Tracer:
    """Spans kept in flat arrays, one entry per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tallies: dict[str, float] = defaultdict(float)
        self.current_op = 0
        self._open: list[int] = []

    def wrap(self, span: str, func: Callable, tally=None) -> Callable:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._ids[span]
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            open_spans.append(index)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = clock()
                open_spans.pop()
            if tally is not None:
                self.tallies[tally[0]] += tally[1](result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time in ms for every span name."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(start)):
            duration = end[i] - start[i]
            calls[name[i]] += 1
            self_ns[name[i]] += duration
            if parent[i] >= 0:
                self_ns[name[parent[i]]] -= duration
        return {n: (calls[i], self_ns[i] / 1e6) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Gzipped, one tab-separated line per span: index, op, name, parent,
        start and end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\top\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.parent[i]}\t{self.start[i]}\t{self.end[i]}\n"
                )


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function and method; return the function that undoes it."""
    modules = [m for n, m in sys.modules.items() if n == "ramid" or n.startswith("ramid.")]
    undo: list[tuple[object, str, object]] = []
    for span, module, attr, tally in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        traced = tracer.wrap(span, original, tally)
        for namespace in modules:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    undo.append((namespace, key, original))
                    setattr(namespace, key, traced)
    for span, module, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            traced = classmethod(tracer.wrap(span, original.__func__))
        else:
            traced = tracer.wrap(span, original)
        undo.append((cls, attr, original))
        setattr(cls, attr, traced)

    def restore() -> None:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore
