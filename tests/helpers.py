"""Shared test utilities: the Form-level exterior toolkit the library does
not need (masks and monomials from indices, wedge, the text syntax, the
lowering derivations), random generators, a mini DOT parser and a counter
of ``extensions.reduce`` calls."""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from vergne.exterior import AmbientMismatch, Derivation, Form, Monomial


def _mask_from_indices(indices: Iterable[int], ambient: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= ambient:
            raise ValueError(f"generator index {i} outside 1..{ambient}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


def from_indices(indices: Iterable[int], n: int) -> Monomial:
    """The monomial e^{i1}^...^e^{ik} on e^1..e^n; ValueError on an index
    outside 1..n or a repeated one."""
    return Monomial(_mask_from_indices(indices, n), n)


def wedge(a: Form, b: Form) -> Form:
    """Exterior product, bilinear over GF(2); x^x = 0, no signs in char 2."""
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"{a.ambient} != {b.ambient}")
    return Form(a.ambient, [x | y for x in a.terms for y in b.terms if not x & y])


def parse_form(text: str, n: int) -> Form:
    """Parse the textual syntax ``e1^e6 + e3^e4`` (also ``0`` and ``1``).

    Caret is the wedge, plus the GF(2) sum; term order and whitespace are
    irrelevant.  Round-trips with ``str(form)``.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty form expression")
    masks: list[int] = []
    for term in compact.split("+"):
        if not term:
            raise ValueError(f"empty term in {text!r}")
        if term == "0":
            continue
        indices = []
        if term != "1":
            for factor in term.split("^"):
                if not factor.startswith("e") or not factor[1:].isdigit():
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                indices.append(int(factor[1:]))
        masks.append(_mask_from_indices(indices, n))
    return Form(n, masks)


def lowering_operator(n: int, step: int = 1) -> Derivation:
    """The derivation sending e^i to e^{i-step}, zero for i <= 2*step.

    step=1 and step=2 assemble the model differentials:
    d_{m0} = e^1 ^ D_1 and d_{m2} = e^1 ^ D_1 + e^2 ^ D_2.
    """
    return Derivation(n, {i: {1 << (i - step - 1)} for i in range(2 * step + 1, n + 1)})


@lru_cache(maxsize=None)
def monomials(n: int, k: int, m: int | None = None) -> tuple[Monomial, ...]:
    """The k-monomials on e^1..e^n, lexicographic in their index tuples;
    only those of degree (index sum) m when m is given.

    Built from ``itertools.combinations``, independently of the library's
    ``graded_masks``.  Empty when k is outside 0..n.
    """
    return tuple(
        from_indices(c, n)
        for c in combinations(range(1, n + 1), k)
        if m is None or sum(c) == m
    )


def random_matrix(rng, max_rows: int, max_cols: int) -> tuple[list[int], int]:
    """A random GF(2) matrix as (row vectors, column count).

    Bit c of row vector r is the entry (r, c).
    """
    rows = rng.randrange(max_rows + 1)
    cols = rng.randrange(max_cols + 1)
    return [rng.getrandbits(cols) if cols else 0 for _ in range(rows)], cols


def transpose(vectors: list[int], width: int) -> list[int]:
    """The ``width`` column vectors of the matrix whose rows are ``vectors``."""
    return [
        sum(((v >> c) & 1) << r for r, v in enumerate(vectors)) for c in range(width)
    ]


def matvec(rows: list[int], v: int) -> int:
    """M v over GF(2) for M given by its row vectors; v is a bitmask over
    columns, the result a bitmask over rows."""
    out = 0
    for r, row in enumerate(rows):
        if (row & v).bit_count() & 1:
            out |= 1 << r
    return out


def rebuilds(f: Form) -> bool:
    """Whether ``Form.__init__`` accepts f's own fields and builds f again.

    A form built past the constructor could hold a mask outside its
    ambient; rebuilding it then raises instead of returning False."""
    return type(f) is Form and Form(f.ambient, f.terms) == f


def random_form(rng, n: int, max_terms: int = 6) -> Form:
    """A random form with mixed topological degrees."""
    return Form(n, [rng.getrandbits(n) for _ in range(rng.randrange(max_terms + 1))])


def random_homogeneous_form(rng, n: int, k: int, max_terms: int = 5) -> Form:
    """A random form whose terms all have topological degree k."""
    pool = list(combinations(range(1, n + 1), k))
    count = rng.randrange(1, max_terms + 1)
    masks = set()
    for _ in range(count):
        combo = rng.choice(pool)
        mask = 0
        for i in combo:
            mask |= 1 << (i - 1)
        masks.symmetric_difference_update({mask})
    return Form(n, masks)


_DOT_HEADER = re.compile(r"^digraph\s+\w+\s*\{$")
_DOT_NODE = re.compile(r'^\s*"([^"]+)"\s*;$')
_DOT_EDGE = re.compile(r'^\s*"([^"]+)"\s*->\s*"([^"]+)"\s*;$')


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Parse the minimal DOT dialect the package emits.

    Raises ValueError on anything outside the grammar: a header line,
    quoted node statements, quoted edge statements, a closing brace.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not _DOT_HEADER.match(lines[0].strip()):
        raise ValueError("missing digraph header")
    if lines[-1].strip() != "}":
        raise ValueError("missing closing brace")
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    for ln in lines[1:-1]:
        m = _DOT_EDGE.match(ln)
        if m:
            edges.append((m.group(1), m.group(2)))
            continue
        m = _DOT_NODE.match(ln)
        if m:
            nodes.append(m.group(1))
            continue
        raise ValueError(f"unparseable DOT line: {ln!r}")
    return nodes, edges


def count_reduce_calls(monkeypatch) -> list[int]:
    """Count every ``extensions.reduce`` call for the rest of the test.

    Patches the name in ``extensions`` and in ``classify`` or ``cli`` when
    either holds it, so a module that imported ``reduce`` directly is
    counted too.  The returned list
    gets the dimension of each reduced algebra.
    """
    from vergne import classify, cli, extensions

    calls: list[int] = []
    original = extensions.reduce

    def counted(g):
        calls.append(g.n)
        return original(g)

    for module in (extensions, classify, cli):
        if getattr(module, "reduce", None) is original:
            monkeypatch.setattr(module, "reduce", counted)
    return calls


def count_batches(monkeypatch) -> list[tuple]:
    """Record, for the rest of the test, the algebras of each batch that
    ``cohomology.betti_tables`` ranks (each call of ``cohomology._rank``)."""
    from vergne import cohomology

    batches: list[tuple] = []
    original = cohomology._rank

    def counted(batch):
        batches.append(batch)
        return original(batch)

    monkeypatch.setattr(cohomology, "_rank", counted)
    return batches
