"""Spans and counters recorded around calls into vergne's public functions.

The tracer lives outside the program: ``instrument`` replaces each traced
function by a timing wrapper in every ``vergne`` module that holds it (so
``vergne.gf2.rank`` and ``vergne.cohomology.rank`` are both traced), and
patches the two traced methods on their classes.  Per-monomial helpers such
as ``Derivation.apply_mask`` are never wrapped: they run millions of times
and the wrapper would swamp what it measures.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the job runs and written out once at the end.  A span's self time is its
duration minus the time its child spans cover; the process is single
threaded, so children are disjoint and their durations simply add up.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.method" attributes are patched on the class.
TARGETS = [
    ("gf2", "rank", "gf2.rank"),
    ("gf2", "solve_affine", "gf2.solve_affine"),
    ("exterior", "matrix_of", "exterior.matrix_of"),
    ("exterior", "graded_masks", "exterior.graded_masks"),
    ("exterior", "Derivation.__call__", "exterior.derivation_call"),
    ("core", "VergneAlgebra.__init__", "core.algebra_init"),
    ("core", "from_row", "core.from_row"),
    ("core", "involution", "core.involution"),
    ("cohomology", "betti", "cohomology.betti"),
    ("cohomology", "verify_commuting_square", "cohomology.verify_commuting_square"),
    ("extensions", "partner", "extensions.partner"),
    ("extensions", "decompose", "extensions.decompose"),
    ("extensions", "reduce", "extensions.reduce"),
    ("extensions", "central_extension", "extensions.central_extension"),
    ("extensions", "admissible_cocycles", "extensions.admissible_cocycles"),
    ("classify", "enumerate_algebras", "classify.enumerate_algebras"),
    ("classify", "extension_tree", "classify.extension_tree"),
    ("classify", "enumerate_by_extension", "classify.enumerate_by_extension"),
    ("cli", "main", "cli.main"),
]


class Tracer:
    """Records spans and counts for one job; ``restore`` undoes ``instrument``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Wrap ``fn`` so that every call records one span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path: Path) -> None:
        """One JSON header line (names, span count), then the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], list[tuple[int, float, float, int]]]:
    """Inverse of ``Tracer.write``: names and (name id, start, end, parent) rows."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, n)
            cols.append(arr)
    name_id, parent, start, end = cols
    return header["names"], list(zip(name_id, start, end, parent))


def instrument(tracer: Tracer) -> None:
    """Wrap every target in ``TARGETS`` and add the counting shims."""
    import vergne
    from vergne import cli, classify, cohomology, core, exterior, extensions, gf2

    modules = [vergne, gf2, exterior, core, cohomology, extensions, classify, cli]
    home = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    counts = tracer.counts
    for mod_name, attr, name in TARGETS:
        owner = home[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            tracer._patch(cls, meth, tracer.span(name, getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        wrapped = _with_counts(name, tracer.span(name, original), counts)
        for m in modules:
            if getattr(m, attr, None) is original:
                tracer._patch(m, attr, wrapped)


def _with_counts(name: str, traced, counts: Counter):
    """Add the work counters a few spans carry; counted outside the span."""
    if name == "gf2.rank":
        def rank(m):
            r = traced(m)
            cells = m.rows * m.cols
            counts["gf2.rank.cells"] += cells
            counts["gf2.rank.max_cells"] = max(counts["gf2.rank.max_cells"], cells)
            counts["gf2.rank.sum"] += r
            return r
        return rank
    if name == "exterior.matrix_of":
        def matrix_of(op, domain, codomain):
            mat = traced(op, domain, codomain)
            counts["exterior.matrix_of.nnz"] += sum(row.bit_count() for row in mat.data)
            return mat
        return matrix_of
    if name == "core.from_row":
        def from_row(row):
            g = traced(row)
            counts["core.from_row.accepted"] += 1
            return g
        return from_row
    if name == "cohomology.betti":
        def betti(g):
            if g._betti is not None:
                counts["cohomology.betti.hits"] += 1
            return traced(g)
        return betti
    return traced
