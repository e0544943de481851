"""Algebra construction, Jacobi completion, model operators, involution."""

import random
import re
from itertools import product

import pytest

from vergne import core
from vergne.classify import enumerate_algebras, extension_tree
from vergne.core import (
    JacobiViolation,
    RowVector,
    VergneAlgebra,
    _complete_row,
    differential,
    from_row,
    involution,
    m0,
    m2,
    parse_row,
)
from vergne.extensions import _truncation, admissible_cocycles, central_extension, partner
from vergne.exterior import MAX_AMBIENT, Derivation, Form, Monomial, graded_masks

from helpers import (
    lowering_operator,
    monomials,
    parse_form,
    random_form,
    random_homogeneous_form,
    rebuilds,
    wedge,
)
from oracles import (
    all_rows,
    complete_row_pairs,
    involution_from_definition,
    jacobi_failure,
    jacobi_holds,
    partner_by_decomposition,
    raw_differential,
    tail_operator,
)


def F(text, n):
    return parse_form(text, n)


# ---------------------------------------------------------------- models


def test_m0_rows():
    assert str(m0(5).row()) == "[0, 0, 0, 0]"
    assert str(m0(9).row()) == "[0, 0, 0, 0, 0, 0, 0, 0]"


def test_m2_rows():
    assert str(m2(5).row()) == "[0, 1, 0, 0]"
    assert str(m2(6).row()) == "[0, 1, 1, 0, 0]"
    assert str(m2(8).row()) == "[0, 1, 1, 1, 1, 0, 0]"


def test_minimum_dimension():
    with pytest.raises(ValueError):
        m0(4)
    with pytest.raises(ValueError):
        VergneAlgebra(3, ())


def test_dimension_cap():
    assert m0(MAX_AMBIENT).n == MAX_AMBIENT
    with pytest.raises(ValueError, match="dimension must be in"):
        VergneAlgebra(MAX_AMBIENT + 1, ())


@pytest.mark.parametrize("call, good, bad", [
    pytest.param(m0, (5,), (5.5,), id="m0-float"),
    pytest.param(m0, (5,), (True,), id="m0-bool"),
    pytest.param(m2, (5,), (5.5,), id="m2-float"),
    pytest.param(VergneAlgebra, (7, []), (7.0, []), id="VergneAlgebra-float"),
    pytest.param(VergneAlgebra, (7, []), ("7", []), id="VergneAlgebra-str"),
    pytest.param(enumerate_algebras, (7,), (7.0,), id="enumerate_algebras-float"),
    pytest.param(extension_tree, (7,), (7.0,), id="extension_tree-float"),
    pytest.param(graded_masks, (6, 2), (6.0, 2), id="graded_masks-float"),
    pytest.param(Form, (1, [1]), (True, [1]), id="Form-bool"),
    pytest.param(Derivation, (6, {}), (6.0, {}), id="Derivation-float"),
    pytest.param(Monomial, (1, 1), (1, True), id="Monomial-bool"),
])
def test_a_non_int_dimension_is_refused_by_name(call, good, bad):
    # the int call comes first, so a cache keyed by 7 cannot answer for 7.0
    call(*good)
    value = next(b for a, b in zip(good, bad) if type(a) is not type(b))
    with pytest.raises(TypeError, match=re.escape(f"must be an int, got {value!r}")):
        call(*bad)


def test_oversized_row_is_refused_before_completion(monkeypatch):
    # RowVector refuses both ends itself, so from_row never completes a row
    # the algebra would reject
    def work(*args):
        raise AssertionError("row completion started")

    monkeypatch.setattr(core, "_complete_row", work)
    with pytest.raises(ValueError, match="5..64"):
        from_row(RowVector([0] * 99))
    with pytest.raises(ValueError, match="5..64"):
        RowVector([0] * 3)
    assert RowVector([0] * (MAX_AMBIENT - 1)).n == MAX_AMBIENT


def test_pair_range_validation():
    with pytest.raises(ValueError):
        VergneAlgebra(6, [(1, 3)])
    with pytest.raises(ValueError):
        VergneAlgebra(6, [(2, 5)])  # 2 + 5 > 6


# ---------------------------------------------------------------- rows


def test_row_padding_violations():
    with pytest.raises(JacobiViolation):
        RowVector((1, 0, 0, 0))
    with pytest.raises(JacobiViolation):
        RowVector((0, 1, 1, 0))  # position n-1
    with pytest.raises(JacobiViolation):
        parse_row("[0, 1, 1, 0]")


def test_row_refuses_entries_other_than_zero_and_one():
    # int() would truncate these to a valid row; they must be refused first
    for bad in ([0, 0.5, 0, 1.9, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="0 or 1"):
            RowVector(bad)
    bits = RowVector([0, True, 1.0, 0, 0, 0]).bits
    assert bits == (0, 1, 1, 0, 0, 0) and all(type(b) is int for b in bits)


def test_row_parsing():
    row = parse_row("  [ 0,1 , 1,0, 0 ,0 ]  ")
    assert row == parse_row("0,1,1,0,0,0")
    assert str(row) == "[0, 1, 1, 0, 0, 0]"
    assert row.n == 7
    with pytest.raises(ValueError):
        parse_row("[0, 2, 0, 0]")
    with pytest.raises(ValueError):
        parse_row("[0, 1")
    with pytest.raises(ValueError):
        parse_row("")
    with pytest.raises(ValueError):
        parse_row("[0, 0, 0]")  # dimension 4


def test_from_row_example_c_table():
    g = from_row("[0, 0, 0, 1, 0, 0, 0]")
    assert sorted(g.c) == [(2, 5), (3, 4), (3, 5)]
    assert g.structure_constant(5, 2) == 1  # symmetric lookup
    assert g.structure_constant(4, 4) == 0
    assert g.structure_constant(2, 9) == 0


def test_from_row_jacobi_violation():
    with pytest.raises(JacobiViolation) as exc:
        from_row("[0, 1, 0, 0, 0, 0]")
    assert exc.value.index == 3
    # oracle: the raw differential of the completed table fails d o d = 0
    row = RowVector((0, 1, 0, 0, 0, 0))
    d = raw_differential(7, complete_row_pairs(row))
    assert any(
        d.apply_masks(d.apply_mask(1 << (k - 1))) for k in range(3, 8)
    )


def test_from_row_dimension_five():
    assert from_row("[0, 1, 0, 0]") == m2(5)
    assert from_row(parse_row("[0, 0, 0, 0]")) == m0(5)


def test_row_of_round_trips():
    row = parse_row("[0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0]")
    assert from_row(row).row() == row
    assert str(m2(6).row()) == "[0, 1, 1, 0, 0]"
    for n in range(5, 10):
        for g in (m0(n), m2(n)):
            assert from_row(g.row()) == g


def test_row_is_computed_once_per_algebra():
    # the first call fills the slot; later calls hand out the same row
    g = from_row("[0, 0, 0, 1, 0, 0, 0, 0]")
    assert g._row is None
    row = g.row()
    assert g.row() is row is g._row
    with pytest.raises(AttributeError):
        g._row = None
    for n in range(5, 15):
        for g in enumerate_algebras(n):
            built = RowVector([g.structure_constant(2, j) for j in range(2, n + 1)])
            assert g.row() is g.row() and g.row() == built, g


# ---------------------------------------------------------------- differential


def test_differential_examples():
    assert differential(m0(5))(F("e5", 5)) == F("e1^e4", 5)
    assert differential(m2(6))(F("e5", 6)) == F("e1^e4 + e2^e3", 6)
    g81 = from_row("[0, 0, 0, 1, 0, 0, 0]")
    assert differential(g81)(F("e7", 8)) == F("e1^e6 + e2^e5 + e3^e4", 8)
    assert differential(m0(5))(F("e1", 5)) == Form(5)
    assert differential(m0(5))(F("e2", 5)) == Form(5)


def test_differential_squares_to_zero_on_basis():
    for n in range(5, 10):
        for g in (m0(n), m2(n)):
            d = differential(g)
            for k in range(n + 1):
                for mono in monomials(n, k):
                    assert not d.apply_masks(d.apply_mask(mono.mask)), (g, mono)


def test_differential_preserves_grading():
    for g in (m0(8), m2(8), from_row("[0, 0, 0, 1, 0, 0, 0]")):
        d = differential(g)
        for k in range(g.n + 1):
            for mono in monomials(g.n, k):
                for t in d.apply_mask(mono.mask):
                    img = Monomial(t, g.n)
                    assert img.degree == mono.degree
                    assert t.bit_count() == mono.mask.bit_count() + 1


# ---------------------------------------------------------------- operators


def test_lowering_operator_definitions():
    n = 9
    d1 = lowering_operator(n, 1)
    d2 = lowering_operator(n, 2)
    for i in range(1, n + 1):
        e_i = F(f"e{i}", n)
        assert d1(e_i) == (F(f"e{i-1}", n) if i >= 3 else Form(n))
        assert d2(e_i) == (F(f"e{i-2}", n) if i >= 5 else Form(n))


def test_model_differentials_factor_through_lowerings():
    # d_{m0} = e^1 ^ D_1 and d_{m2} = e^1 ^ D_1 + e^2 ^ D_2 on every monomial
    for n in range(5, 10):
        d0, dm2 = differential(m0(n)), differential(m2(n))
        d1, d2 = lowering_operator(n, 1), lowering_operator(n, 2)
        e1, e2 = F("e1", n), F("e2", n)
        for k in range(n + 1):
            for mono in monomials(n, k):
                h = Form(n, [mono])
                assert d0(h) == wedge(e1, d1(h))
                assert dm2(h) == wedge(e1, d1(h)) + wedge(e2, d2(h))


def test_lowering_shift_identity_on_random_forms():
    # e^2 ^ D_2(w) = e^2 ^ D_1(D_1(w)) for every form w
    rng = random.Random(2718)
    count = 0
    while count < 500:
        n = rng.randrange(4, 11)
        w = random_form(rng, n)
        e2 = F("e2", n)
        d1 = lowering_operator(n, 1)
        d2 = lowering_operator(n, 2)
        assert wedge(e2, d2(w)) == wedge(e2, d1(d1(w)))
        count += 1


def test_tail_operator_values():
    g = m2(7)
    r = tail_operator(g)
    assert r(F("e5", 7)) == F("e2^e3", 7)
    for i in (1, 2, 3, 4):
        assert r(F(f"e{i}", 7)) == Form(7)
    assert tail_operator(m0(9)).images == {}


def test_tail_operator_is_differential_plus_leading_part():
    for g in (m2(8), from_row("[0, 0, 0, 1, 0, 0, 0]")):
        n = g.n
        r = tail_operator(g)
        d = differential(g)
        d1 = lowering_operator(n, 1)
        e1 = F("e1", n)
        for k in range(n + 1):
            for mono in monomials(n, k):
                h = Form(n, [mono])
                assert r(h) == d(h) + wedge(e1, d1(h))
                if not (mono.mask & 1):
                    # on arguments free of e^1 the image stays free of e^1
                    assert all(not (t & 1) for t in r(h).terms)


# ---------------------------------------------------------------- involution


def test_involution_worked_example():
    h = F("e1^e6 + e2^e5 + e3^e4", 7)
    assert involution(h) == F("e1^e6 + e3^e4", 7)


def test_involution_fixes_forms_without_e1():
    h = F("e3^e4", 7)
    assert involution(h) == h


def test_involution_is_involutive_random():
    rng = random.Random(404)
    count = 0
    while count < 500:
        n = rng.randrange(5, 11)
        k = rng.randrange(2, n + 1)
        h = random_homogeneous_form(rng, n, k)
        if not h:
            continue
        f_h = involution(h)
        assert {m.bit_count() for m in f_h.terms} <= {k}
        assert {Monomial(m, n).degree for m in f_h.terms} <= {
            Monomial(m, n).degree for m in h.terms
        }
        assert involution(f_h) == h
        count += 1


def test_involution_matches_its_definition():
    # the mask-level f against the Form-level definition in the oracles.
    # Odd trials draw a few k-monomials anywhere; even trials draw several
    # e^1-terms of one degree, whose corrections e^2^D(x) often share a
    # term that then cancels mod 2.
    rng = random.Random(8128)
    checked = cancelled = 0
    for trial in range(2400):
        n = rng.randrange(5, 17)
        k = rng.randrange(2, n + 1)
        if trial % 2:
            terms = [sum(1 << i for i in rng.sample(range(n), k))
                     for _ in range(rng.randrange(1, 6))]
        else:
            buckets = list(graded_masks(n, k).values())
            pool = [mask for mask in rng.choice(buckets) if mask & 3 == 1]
            terms = rng.sample(pool, min(len(pool), rng.randrange(2, 7)))
        h = Form(n, terms)
        assert involution(h) == involution_from_definition(h), h
        checked += 1
        separate = sum(len(involution_from_definition(Form(n, [t])) + Form(n, [t]))
                       for t in h.terms)
        cancelled += separate > len(involution_from_definition(h) + h)
    assert checked >= 2000 and cancelled >= 200, (checked, cancelled)


def test_lowering_is_stated_up_to_the_representation_limit():
    assert core._LOWERING.ambient == MAX_AMBIENT
    assert core._LOWERING.images == {i: {1 << (i - 2)} for i in range(3, MAX_AMBIENT + 1)}


def test_involution_matches_its_definition_at_the_representation_limit():
    # every term holds e^1 and one of the two top generators, which only a
    # lowering stated up to n reaches.  Odd trials draw a few such terms;
    # even trials draw a pair e^1^t^S^e^{a+1}^e^b and e^1^t^S^e^a^e^{b+1},
    # whose corrections share e^2^t^S^e^a^e^b, which then cancels mod 2.
    rng = random.Random(6064)
    cancelled = 0
    for trial in range(300):
        n = rng.randrange(60, MAX_AMBIENT + 1)
        top = rng.choice((n - 1, n))
        if trial % 2:
            k = rng.randrange(2, 7)
            picks = [[top, *rng.sample([i for i in range(2, n + 1) if i != top], k - 2)]
                     for _ in range(rng.randrange(1, 6))]
        else:
            a, b = sorted(rng.sample(range(3, n - 2), 2))
            if b == a + 1:
                continue
            pool = [i for i in range(2, n - 1) if i not in (a, a + 1, b, b + 1)]
            rest = [top, *rng.sample(pool, rng.randrange(3))]
            picks = [rest + [a + 1, b], rest + [a, b + 1]]
        h = Form(n, [sum(1 << (i - 1) for i in (1, *pick)) for pick in picks])
        assert involution(h) == involution_from_definition(h), h
        assert involution(involution(h)) == h, h
        separate = sum(len(involution(Form(n, [t])) + Form(n, [t])) for t in h.terms)
        cancelled += separate > len(involution(h) + h)
    assert cancelled > 100, cancelled


def test_involution_hands_out_forms_the_constructor_accepts():
    rng = random.Random(1729)
    for _ in range(300):
        n = rng.randrange(5, 17)
        h = random_homogeneous_form(rng, n, rng.randrange(2, n + 1))
        assert rebuilds(involution(h)), h
    # at n = 60..64 every term holds e^1, so f lowers each one, and e^n,
    # the highest index it lowers
    for n in range(60, MAX_AMBIENT + 1):
        for _ in range(40):
            k = rng.randrange(2, 7)
            h = Form(n, [1 | sum(1 << (i - 1) for i in (n, *rng.sample(range(2, n), k - 2)))
                         for _ in range(rng.randrange(1, 6))])
            assert rebuilds(involution(h)), h


def test_partner_at_the_representation_limit():
    for n in range(60, MAX_AMBIENT + 1):
        for g in (m0(n), m2(n)):
            p = partner(g)
            assert p == partner_by_decomposition(g), g
            assert partner(p) == g, g


def test_involution_rejects_bad_degrees():
    assert involution(Form(7)) == Form(7)
    with pytest.raises(ValueError):
        involution(F("e1", 7))  # topological degree 1
    with pytest.raises(ValueError):
        involution(F("e1 + e2^e3", 7))  # mixed degrees


# ---------------------------------------------------------------- jacobi


def test_jacobi_holds_models():
    for n in (5, 8, 12):
        assert jacobi_holds({p: 1 for p in m0(n).c}, n)
        assert jacobi_holds({p: 1 for p in m2(n).c}, n)
    assert jacobi_holds({}, 12)


def test_jacobi_holds_rejects_bad_tables():
    row = RowVector((0, 1, 0, 1, 0, 0))
    assert not jacobi_holds(dict.fromkeys(complete_row_pairs(row), 1), 7)
    assert not jacobi_holds({(3, 3): 1}, 7)
    with pytest.raises(ValueError):
        jacobi_holds({(2, 6): 1}, 7)  # out of range with nonzero value
    with pytest.raises(ValueError):
        jacobi_holds({(2, 3): 2}, 7)


def test_jacobi_holds_matches_differential_square():
    # equivalence of the table constraints and d o d = 0, all rows, n <= 10
    for n in range(5, 11):
        for free in product((0, 1), repeat=n - 4):
            row = RowVector((0,) + free + (0, 0))
            table = complete_row_pairs(row)
            d = raw_differential(n, table)
            d_squares = all(
                not d.apply_masks(d.apply_mask(1 << (k - 1))) for k in range(3, n + 1)
            )
            assert jacobi_holds(dict.fromkeys(table, 1), n) == d_squares, row


def _kind(exc):
    if exc.index is not None:
        return "index"
    return "completion" if exc.triple[0] == 1 else "triple"


def _same_violation(got, want):
    """Both None, or the same kind, diagnostic and message."""
    if got is None or want is None:
        return got is want
    return (type(got), got.index, got.triple, str(got)) == (
        type(want), want.index, want.triple, str(want))


def test_validation_matches_oracle_on_every_row():
    # the single d o d = 0 check accepts exactly the rows the one-identity-at-
    # a-time oracle accepts, and reports the oracle's first failure
    kinds = set()
    for n in range(5, 15):
        for row in all_rows(n):
            try:
                from_row(row)
                got = None
            except JacobiViolation as exc:
                got = exc
                kinds.add(_kind(exc))
            want = jacobi_failure(dict.fromkeys(complete_row_pairs(row), 1), n)
            assert _same_violation(got, want), (row, got, want)
    assert kinds == {"index", "triple"}


def test_bitwise_completion_matches_pair_by_pair_oracle():
    # core._complete_row fills each row by one bitwise step from the row
    # before; every row with n <= 14, the ones that then fail included, must
    # give the oracle's pairs and the same algebra or the same violation
    failed = 0
    for n in range(5, 15):
        for row in all_rows(n):
            rows = _complete_row(row)
            pairs = complete_row_pairs(row)
            assert len(rows) == n + 1, row
            assert {(i, j) for i, r in enumerate(rows) for j in range(r.bit_length())
                    if r >> j & 1} == pairs, row
            outcomes = []
            for build in (lambda: from_row(row), lambda: VergneAlgebra(n, pairs)):
                try:
                    outcomes.append(build())
                except JacobiViolation as exc:
                    outcomes.append((exc.index, exc.triple, str(exc)))
            assert outcomes[0] == outcomes[1], (row, outcomes)
            failed += isinstance(outcomes[0], tuple)
    assert failed == sum(2 ** (n - 4) for n in range(5, 15)) - sum(
        len(enumerate_algebras(n)) for n in range(5, 15))


def _pair_structure_constant(c, i, j):
    # the lookup on the frozenset of pairs that the algebra used to keep
    if i == j:
        return 0
    if i > j:
        i, j = j, i
    return 1 if (i, j) in c else 0


def _pair_bracket_index(c, n, i, j):
    if i == j:
        return (0, 0)
    if i > j:
        i, j = j, i
    if i == 1:
        return (1, j + 1) if 2 <= j <= n - 1 else (0, 0)
    if i + j <= n and (i, j) in c:
        return (1, i + j)
    return (0, 0)


def test_rows_answer_as_the_pair_table_did():
    # lookups range-check before they index rows: a negative index must not
    # wrap around to a real row
    g = m2(9)
    assert g.structure_constant(2, 3) == 1 and g.rows[-8] == g.rows[2]
    assert g.bracket_index(-8, 3) == (0, 0)
    assert g.structure_constant(-8, 3) == 0 and g.structure_constant(3, -7) == 0
    for n in range(5, 13):
        for g in enumerate_algebras(n):
            c = g.c
            for i in range(-n, 2 * n + 1):
                for j in range(-n, 2 * n + 1):
                    assert g.structure_constant(i, j) == _pair_structure_constant(c, i, j), (g, i, j)
                    assert g.bracket_index(i, j) == _pair_bracket_index(c, n, i, j), (g, i, j)
    for n in range(5, 15):
        for g in enumerate_algebras(n):
            assert type(g.c) is frozenset and g.c == complete_row_pairs(g.row()), g
            assert type(g.rows) is tuple and len(g.rows) == n + 1, g
            same = VergneAlgebra(g.n, g.c)
            assert same == g and hash(same) == hash(g) and same.rows == g.rows, g
            assert from_row(g.row()) == g, g


def test_validation_expands_each_image_term_once(monkeypatch):
    # d(d(e^k)) is d applied to the stored image d(e^k): one Leibniz
    # expansion per image term, and none of the lone generator e^k
    rows = [enumerate_algebras(n)[-1].row() for n in (10, 12, 14)]
    base = enumerate_algebras(11)[-1]
    omega = admissible_cocycles(base)[0]
    cut = enumerate_algebras(14)[-1]
    terms = 0
    expand = Derivation.apply_masks

    def counted(self, masks):
        nonlocal terms
        masks = list(masks)
        terms += len(masks)
        return expand(self, masks)

    monkeypatch.setattr(Derivation, "apply_masks", counted)
    builds = [lambda: m2(12)]
    builds += [lambda row=row: from_row(row) for row in rows]
    builds += [lambda: central_extension(base, omega), lambda: _truncation(cut, 10)]
    counts = []
    for build in builds:
        terms = 0
        g = build()
        images = differential(g).images
        assert sorted(images) == list(range(3, g.n + 1))
        assert terms == sum(map(len, images.values())), g
        counts.append(terms)
    assert counts[0] == 18  # m2(12): two terms for k = 5..12, one for k = 3, 4


def test_validation_matches_oracle_on_random_tables():
    # arbitrary tables also break the completion identities, which completed
    # rows satisfy by construction
    rng = random.Random(77)
    kinds = set()
    for _ in range(3000):
        n = rng.randrange(5, 12)
        pool = [(i, j) for i in range(2, n) for j in range(i + 1, n - i + 1)]
        pairs = [p for p in pool if rng.random() < 0.3]
        try:
            VergneAlgebra(n, pairs)
            got = None
        except JacobiViolation as exc:
            got = exc
            kinds.add(_kind(exc))
        want = jacobi_failure({p: 1 for p in pairs}, n)
        assert _same_violation(got, want), (n, sorted(pairs), got, want)
    assert "completion" in kinds


# ---------------------------------------------------------------- value semantics


def test_equality_and_hash():
    assert m0(6) == m0(6)
    assert m0(6) != m2(6)
    assert m0(6) != m0(7)
    assert len({m0(6), m0(6), m2(6)}) == 2
    assert repr(m2(6)) == "VergneAlgebra(n=6, row=[0, 1, 1, 0, 0])"


def test_algebra_immutable():
    g = m0(6)
    with pytest.raises(AttributeError):
        g.n = 7


def test_bracket_index():
    g = m2(6)
    assert g.bracket_index(1, 3) == (1, 4)
    assert g.bracket_index(3, 1) == (1, 4)
    assert g.bracket_index(1, 6) == (0, 0)
    assert g.bracket_index(2, 3) == (1, 5)
    assert g.bracket_index(3, 4) == (0, 0)  # c_{3,4} = 0 in m2(6)
    assert g.bracket_index(4, 4) == (0, 0)
