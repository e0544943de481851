"""Enumeration per dimension, labels, and the extension tree.

Every algebra of dimension n > 5 is a one-step central extension of its
truncation, so enumeration is a forward search from the two dimension-5
models through ``extensions._children``; the proof that each child is
valid is in ``extensions._child_rows``.  The brute-force walk over all
2^(n-4) e_2 rows is a test oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cohomology import betti_tables
from .core import (
    MIN_DIMENSION,
    RowVector,
    VergneAlgebra,
    _check_dimension,
    _m2_rows,
    _not_an_algebra,
    m0,
    m2,
)
from .extensions import _children

__all__ = [
    "ExtensionTree",
    "enumerate_algebras",
    "extension_tree",
    "label",
    "to_dot",
    "dimension_json_dict",
]

# Classification labels for dimensions 7..12, keyed by (dimension, e_2 row).
# g(n,i) and h(n,i) carry the same Betti numbers; the all-zero and the
# m2 rows are labelled m0(n)/m2(n) directly by label().
_LABELS: dict[tuple[int, tuple[int, ...]], str] = {
    (7, (0, 0, 0, 1, 0, 0)): "g(7,1)",
    (8, (0, 0, 0, 1, 0, 0, 0)): "g(8,1)",
    (9, (0, 0, 0, 1, 0, 0, 0, 0)): "g(9,1)",
    (9, (0, 0, 0, 0, 0, 1, 0, 0)): "g(9,2)",
    (10, (0, 0, 0, 1, 0, 0, 1, 0, 0)): "g(10,1)",
    (10, (0, 0, 0, 0, 0, 1, 1, 0, 0)): "g(10,2)",
    (11, (0, 0, 0, 1, 0, 0, 1, 0, 0, 0)): "g(11,1)",
    (11, (0, 0, 0, 0, 0, 1, 1, 0, 0, 0)): "g(11,2)",
    (11, (0, 0, 0, 1, 0, 0, 1, 1, 0, 0)): "g(11,3)",
    (11, (0, 0, 0, 0, 0, 0, 0, 1, 0, 0)): "g(11,4)",
    (12, (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0)): "g(12,1)",
    (12, (0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0)): "g(12,2)",
    (12, (0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0)): "g(12,3)",
    (12, (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)): "g(12,4)",
    (7, (0, 1, 1, 0, 0, 0)): "h(7,1)",
    (8, (0, 1, 1, 0, 1, 0, 0)): "h(8,1)",
    (9, (0, 1, 1, 0, 1, 1, 0, 0)): "h(9,1)",
    (9, (0, 1, 1, 1, 1, 0, 0, 0)): "h(9,2)",
    (10, (0, 1, 1, 0, 1, 1, 0, 0, 0)): "h(10,1)",
    (10, (0, 1, 1, 1, 1, 0, 0, 0, 0)): "h(10,2)",
    (11, (0, 1, 1, 0, 1, 1, 0, 1, 0, 0)): "h(11,1)",
    (11, (0, 1, 1, 1, 1, 0, 0, 1, 0, 0)): "h(11,2)",
    (11, (0, 1, 1, 0, 1, 1, 0, 0, 0, 0)): "h(11,3)",
    (11, (0, 1, 1, 1, 1, 1, 1, 0, 0, 0)): "h(11,4)",
    (12, (0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0)): "h(12,1)",
    (12, (0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0)): "h(12,2)",
    (12, (0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0)): "h(12,3)",
    (12, (0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0)): "h(12,4)",
}


@lru_cache(maxsize=None, typed=True)  # typed, so 7.0 misses the entry of 7 and is refused
def enumerate_algebras(n: int) -> tuple[VergneAlgebra, ...]:
    """All Vergne-type algebras of dimension n, rows ascending.

    The two models at dimension 5; above it, the children of every
    algebra of dimension n-1, as ``extensions._children`` builds, checks
    and stores them, sorted by e_2 row.
    """
    _check_dimension(n)
    if n == MIN_DIMENSION:
        return (m0(n), m2(n))
    level = [h for g in enumerate_algebras(n - 1) for h in _children(g)]
    return tuple(sorted(level, key=lambda h: h.row().bits))


# Former name of the forward search, kept while perfbench/ calls it (ROADMAP item 1).
enumerate_by_extension = enumerate_algebras


def label(g: VergneAlgebra) -> str:
    """m0(n)/m2(n), a table label for dimensions 7..12, else the row string.

    Read off g's dimension and e_2 row int; a g that is not a
    ``VergneAlgebra`` is refused (TypeError naming it)."""
    try:
        n, r = g.n, g.rows[2]
    except AttributeError:
        raise _not_an_algebra(g) from None
    return _row_label(n, r)


@lru_cache(maxsize=None)
def _row_label(n: int, r: int) -> str:
    # Keyed by (n, e_2 row int), not the algebra, so the cache keeps no
    # algebra (and its cached Betti table) alive; each label string is built
    # once, and a RowVector only for a row the table does not label.
    if r == 0:
        return f"m0({n})"
    if r == _m2_rows(n)[2]:
        return f"m2({n})"
    bits = tuple([r >> j & 1 for j in range(2, n + 1)])
    return _LABELS.get((n, bits)) or str(RowVector(bits))


class ExtensionTree(NamedTuple):
    """All algebras of dimension 5..n_max linked by one-step truncation.

    ``nodes`` maps (dimension, row bits) to a node id; ``edges`` holds
    (child id, parent id) pairs where the parent is the child's
    truncation; the two dimension-5 models are the only roots.
    """

    nodes: dict[tuple[int, tuple[int, ...]], int]
    edges: tuple[tuple[int, int], ...]
    labels: dict[int, str]


def extension_tree(n_max: int) -> ExtensionTree:
    """The extension tree of the enumerated algebras of dimension 5..n_max.

    The parent of g (dimension n > 5) is keyed by g's own row, building
    nothing, as (n - 1, g.row().bits[:-3] + (0, 0)): the truncation at n-1
    keeps c_{2,j} for j <= n-3, and positions n-2 and n-1 become padding.
    """
    _check_dimension(n_max, "n_max")
    nodes: dict[tuple[int, tuple[int, ...]], int] = {}
    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for n in range(MIN_DIMENSION, n_max + 1):
        for g in enumerate_algebras(n):
            node_id = len(nodes)
            nodes[(n, g.row().bits)] = node_id
            labels[node_id] = label(g)
            if n > MIN_DIMENSION:
                edges.append((node_id, nodes[(n - 1, g.row().bits[:-3] + (0, 0))]))
    return ExtensionTree(nodes=nodes, edges=tuple(edges), labels=labels)


def to_dot(tree: ExtensionTree) -> str:
    """Deterministic DOT digraph; edges run parent -> child."""
    lines = ["digraph vergne_extensions {"]
    for key in sorted(tree.nodes):
        lines.append(f'  "{tree.labels[tree.nodes[key]]}";')
    for child, parent in sorted(tree.edges):
        lines.append(f'  "{tree.labels[parent]}" -> "{tree.labels[child]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dimension_json_dict(n: int) -> dict:
    """JSON-ready listing of one dimension: rows, labels, Betti vectors."""
    algebras = enumerate_algebras(n)
    return {
        "dimension": n,
        "algebras": [
            {
                "row": str(g.row()),
                "label": label(g),
                "betti": list(table.b),
            }
            for g, table in zip(algebras, betti_tables(algebras))
        ],
    }
