"""Enumeration, labels, extension tree, DOT output."""

from itertools import product

import pytest

from vergne import core
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
from vergne.exterior import MAX_AMBIENT
from vergne.extensions import admissible_cocycles, central_extension, partner, reduce

from helpers import parse_dot
from oracles import enumerate_rows

COUNTS = {5: 2, 6: 2, 7: 4, 8: 4, 9: 6, 10: 6, 11: 10, 12: 10}


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
