"""Enumeration, labels, extension tree, DOT output."""

import ast
import hashlib
import re
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from vergne import classify, core, extensions
from vergne.classify import (
    _LABELS,
    dimension_json_dict,
    enumerate_algebras,
    enumerate_by_extension,
    extension_tree,
    label,
    to_dot,
)
from vergne.core import JacobiViolation, RowVector, from_row, m0, m2
from vergne.exterior import MAX_AMBIENT, Form, _indices
from vergne.extensions import (
    _child_rows,
    _children,
    admissible_cocycles,
    central_extension,
    partner,
    reduce,
)

from helpers import parse_dot
from oracles import enumerate_rows, label_by_row

COUNTS = {5: 2, 6: 2, 7: 4, 8: 4, 9: 6, 10: 6, 11: 10, 12: 10}

# The number of algebras at each n = 5..64, and the digest of every one of
# them as repr([(g.n, g.rows), ...]) in enumeration order.
COUNTS_TO_64 = (2, 2, 4, 4, 6, 6, 10, 10, 16, 14, 20, 18, 26, 20, 32, 28, 36, 32, 44, 40,
                56, 46, 56, 54, 74, 60, 82, 64, 84, 68, 86, 74, 100, 84, 106, 92, 114, 98,
                126, 104, 126, 112, 138, 122, 156, 134, 152, 140, 170, 142, 172, 152, 194,
                176, 188, 170, 222, 196, 232, 184)
ROWS_TO_64 = "b818d95463b533a5ee1b59debd2a8d10227394d12bdab636f90c207ab994a437"


def rows_of(algebras):
    return [str(g.row()) for g in algebras]


def test_enumerate_dimension_five():
    assert rows_of(enumerate_algebras(5)) == ["[0, 0, 0, 0]", "[0, 1, 0, 0]"]
    assert enumerate_algebras(5) == (m0(5), m2(5))


def test_enumerate_dimension_seven_against_brute_force():
    assert rows_of(enumerate_algebras(7)) == [
        "[0, 0, 0, 0, 0, 0]",
        "[0, 0, 0, 1, 0, 0]",
        "[0, 1, 1, 0, 0, 0]",
        "[0, 1, 1, 1, 0, 0]",
    ]
    # oracle: run from_row over all 8 candidate rows directly
    accepted = []
    for free in product((0, 1), repeat=3):
        try:
            accepted.append(from_row(RowVector((0,) + free + (0, 0))))
        except JacobiViolation:
            pass
    assert list(enumerate_algebras(7)) == accepted


def test_enumerate_counts():
    for n, count in COUNTS.items():
        assert len(enumerate_algebras(n)) == count, n
    family = [g for n in range(5, 65) for g in enumerate_algebras(n)]
    assert tuple(len(enumerate_algebras(n)) for n in range(5, 65)) == COUNTS_TO_64
    assert len(family) == sum(COUNTS_TO_64) == 5276
    digest = hashlib.sha256(repr([(g.n, g.rows) for g in family]).encode()).hexdigest()
    assert digest == ROWS_TO_64


def test_every_enumerated_algebra_passes_full_validation():
    # oracle for the unchecked store: every child with n <= 40, rebuilt
    # through the full d(d(e^k)) = 0 validation, has the same rows
    checked = 0
    for n in range(5, 41):
        for g in enumerate_algebras(n):
            assert core._from_rows(g.n, g.rows).rows == g.rows, g
            checked += 1
    assert checked == 1556


def test_enumeration_stores_its_children_without_validating_them(monkeypatch):
    # a fresh cache for the search, so it really runs (the monkeypatch puts
    # the cached one back): n = 6..20 store 216 children, with no _fill call
    # and no Form built
    want = enumerate_algebras(20)
    fresh = lru_cache(maxsize=None, typed=True)(classify.enumerate_algebras.__wrapped__)
    monkeypatch.setattr(classify, "enumerate_algebras", fresh)
    fresh(5)
    fills, stores, forms = [], [], []
    fill, store, form = core._fill, extensions._store, Form.__init__
    monkeypatch.setattr(core, "_fill", lambda g, n, rows: fills.append(n) or fill(g, n, rows))
    monkeypatch.setattr(extensions, "_store", lambda n, rows: stores.append(n) or store(n, rows))
    monkeypatch.setattr(Form, "__init__", lambda f, *args: forms.append(args) or form(f, *args))
    assert fresh(20) == want
    assert fills == [] and forms == [] and len(stores) == sum(COUNTS_TO_64[1:16]) == 216


def test_the_unchecked_store_has_one_caller():
    src = Path(core.__file__).parent
    callers = {(path.name, fn.name) for path in sorted(src.glob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_store"}
    assert callers == {("extensions.py", "_children")}


def test_classify_leaves_building_and_storing_to_extensions():
    # enumeration only orders the children: it imports neither the store
    # nor the cocycle list, and writes no c-table row
    tree = ast.parse(Path(classify.__file__).read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert imported.isdisjoint({"_store", "_set_slots", "admissible_cocycles"})
    assert "_children" in imported
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)]


def test_children_are_the_public_extensions_by_the_admissible_cocycles():
    # every enumerated g with n <= 40: the stored children are exactly the
    # validated central extensions by the forms admissible_cocycles lists
    checked = 0
    for n in range(5, 41):
        for g in enumerate_algebras(n):
            kids = _children(g)
            built = [central_extension(g, omega) for omega in admissible_cocycles(g)]
            assert sorted(kids, key=lambda h: h.rows) == sorted(built, key=lambda h: h.rows), g
            checked += 1
    assert checked == 1556
    # at the representation limit the children would have dimension 65,
    # which central_extension refuses and no algebra holds; their rows are
    # g's with each form's pairs
    for g in (m0(MAX_AMBIENT), m2(MAX_AMBIENT)):
        kids, forms = _child_rows(g), admissible_cocycles(g)
        assert len(kids) == len(forms) == 2
        want = []
        for omega in forms:
            with pytest.raises(ValueError, match=r"5\.\.64, got 65"):
                central_extension(g, omega)
            rows = [*g.rows, 0]
            for i, j in (_indices(t) for t in omega.terms):
                if i > 1:
                    rows[i] |= 1 << j
            want.append(tuple(rows))
        assert sorted(map(tuple, kids)) == sorted(want), g


def test_enumerate_contains_models():
    for n in range(5, 13):
        algebras = enumerate_algebras(n)
        assert m0(n) in algebras
        assert m2(n) in algebras


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_algebras(4)
    with pytest.raises(ValueError):
        enumerate_algebras(MAX_AMBIENT + 1)


def test_listed_rows_all_enumerated():
    for (n, bits), name in _LABELS.items():
        algebras = enumerate_algebras(n)
        assert any(g.row().bits == bits for g in algebras), name


def test_labels():
    assert label(from_row("[0, 0, 0, 1, 0, 0, 0]")) == "g(8,1)"
    assert label(from_row("[0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0]")) == "h(12,4)"
    assert label(m0(9)) == "m0(9)"
    assert label(m2(11)) == "m2(11)"
    for n in range(5, 65):
        assert (label(m0(n)), label(m2(n))) == (f"m0({n})", f"m2({n})")
    labels = [label(g) for n in range(5, 25) for g in enumerate_algebras(n)]
    m2_labels = [s for s in labels if s.startswith("m2(")]
    assert m2_labels == [f"m2({n})" for n in range(5, 25)]
    # beyond the table the label falls back to the row string
    g13 = from_row("[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]")
    assert label(g13) == "[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]"


def test_label_agrees_with_the_row_oracle():
    # label reads (n, e_2 row int); the oracle reads the RowVector's bits
    classify._row_label.cache_clear()
    for n in range(5, 41):
        for g in enumerate_algebras(n):
            assert label(g) == label_by_row(g.row()), g
    for n in range(5, MAX_AMBIENT + 1):
        for g in (m0(n), m2(n)):
            assert label(g) == label_by_row(g.row()), g


def test_label_refuses_a_non_algebra_by_name():
    for junk in (None, "6", m2(7).row()):
        with pytest.raises(TypeError, match=f"not a VergneAlgebra: {re.escape(repr(junk))}"):
            label(junk)


def test_forward_search_matches_row_enumeration():
    # oracle: the brute-force walk over all 2^(n-4) rows, as ordered tuples
    for n in range(5, 15):
        assert enumerate_algebras(n) == enumerate_rows(n), n
    assert enumerate_by_extension is enumerate_algebras


def test_truncations_are_enumerated_and_extensions_close():
    for n in range(6, 10):
        prev = {g.row().bits: g for g in enumerate_algebras(n - 1)}
        for g in enumerate_algebras(n):
            base, omega = reduce(g)
            assert base.row().bits in prev
            assert omega in admissible_cocycles(base)
            assert central_extension(base, omega) == g


def test_partner_closure():
    for n in range(5, 11):
        rows = {g.row().bits for g in enumerate_algebras(n)}
        assert {partner(g).row().bits for g in enumerate_algebras(n)} == rows


def test_tree_small():
    t = extension_tree(7)
    assert len(t.nodes) == 8
    assert len(t.edges) == 6
    by_label = {v: k for k, v in t.labels.items()}
    parents = {child: parent for child, parent in t.edges}
    assert parents[by_label["g(7,1)"]] == by_label["m0(6)"]
    assert parents[by_label["h(7,1)"]] == by_label["m2(6)"]


def test_tree_roots_only():
    t = extension_tree(5)
    assert len(t.nodes) == 2
    assert t.edges == ()


def test_tree_every_nonroot_has_one_parent():
    t = extension_tree(9)
    children = [c for c, _ in t.edges]
    assert len(children) == len(set(children))
    roots = [i for i in t.labels if i not in children]
    assert sorted(t.labels[i] for i in roots) == ["m0(5)", "m2(5)"]


def test_tree_edges_are_truncations():
    t = extension_tree(20)
    algebras = {
        t.nodes[(g.n, g.row().bits)]: g
        for n in range(5, 21) for g in enumerate_algebras(n)
    }
    for child_id, parent_id in t.edges:
        child, parent = algebras[child_id], algebras[parent_id]
        assert parent.n == child.n - 1
        assert parent.c == {(i, j) for (i, j) in child.c if i + j < child.n}


def test_tree_builds_no_algebra(monkeypatch):
    # each parent is read off the child's own e_2 row; with the enumeration
    # cached, no algebra is built or validated
    for n in range(5, 41):
        enumerate_algebras(n)
    builds = []
    fill = core._fill

    def counted(g, n, rows):
        builds.append(n)
        return fill(g, n, rows)

    monkeypatch.setattr(core, "_fill", counted)
    for n_max in (20, 40):
        tree = extension_tree(n_max)
        assert builds == [] and len(tree.edges) == len(tree.nodes) - 2


def test_tree_counts_through_twelve():
    t = extension_tree(12)
    assert len(t.nodes) == sum(COUNTS.values()) == 44
    assert len(t.edges) == 44 - 2


def test_dot_round_trip():
    t = extension_tree(7)
    text = to_dot(t)
    nodes, edges = parse_dot(text)
    assert len(nodes) == 8
    assert ("m0(6)", "g(7,1)") in edges
    assert ("m2(6)", "h(7,1)") in edges
    assert to_dot(extension_tree(7)) == text  # deterministic


def test_dot_isolated_roots():
    nodes, edges = parse_dot(to_dot(extension_tree(5)))
    assert nodes == ["m0(5)", "m2(5)"]
    assert edges == []


def test_dimension_json_shape():
    payload = dimension_json_dict(7)
    assert payload["dimension"] == 7
    assert len(payload["algebras"]) == 4
    first = payload["algebras"][0]
    assert set(first) == {"row", "label", "betti"}
    assert first["label"] == "m0(7)"
    assert first["betti"][0] == 1
