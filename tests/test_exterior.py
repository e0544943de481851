"""Exterior algebra: wedge, grading, derivations, matrices, text syntax."""

import random
from math import comb

import pytest

from vergne.core import differential, lowering_operator, m0
from vergne.exterior import (
    AmbientMismatch,
    Derivation,
    Form,
    ImageOutsideCodomain,
    Monomial,
    block_pivots,
    graded_masks,
    matrix_of,
    parse_form,
    wedge,
)

from helpers import monomials, random_form


def F(text, n):
    return parse_form(text, n)


def test_wedge_repeated_generator_is_zero():
    assert wedge(F("e1", 5), F("e1^e5", 5)) == Form(5)


def test_wedge_basic_product():
    w = wedge(F("e2", 5), F("e5", 5))
    assert w == F("e2^e5", 5)
    (mono,) = w.monomials()
    assert mono.degree == 7
    assert mono.top_degree == 2


def test_wedge_square_is_zero():
    a = F("e1 + e2", 5)
    assert wedge(a, a) == Form(5)


def test_wedge_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        wedge(F("e1", 5), F("e1", 6))
    with pytest.raises(AmbientMismatch):
        F("e1", 5) + F("e1", 6)


def test_form_refuses_monomial_of_other_ambient():
    with pytest.raises(AmbientMismatch):
        Form(6, [Monomial(0b11, 10)])
    with pytest.raises(AmbientMismatch):
        Form(6, [0b101, Monomial(0b11, 5)])
    assert Form(6, [Monomial(0b11, 6), 0b11]) == Form(6)


def test_wedge_bilinear_and_associative():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randrange(3, 11)
        a, b, c = (random_form(rng, n) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
        assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)
        assert wedge(a, b) == wedge(b, a)  # char 2: no signs


def test_degrees():
    m = Monomial.from_indices((1, 6), 7)
    assert (m.degree, m.top_degree) == (7, 2)
    scalar = Monomial.from_indices((), 7)
    assert (scalar.degree, scalar.top_degree) == (0, 0)
    m = Monomial.from_indices((2, 3, 4), 7)
    assert (m.degree, m.top_degree) == (9, 3)


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial.from_indices((0,), 5)
    with pytest.raises(ValueError):
        Monomial.from_indices((6,), 5)
    with pytest.raises(ValueError):
        Monomial.from_indices((2, 2), 5)


def test_basis_small():
    strs = [str(Monomial(mask, 3)) for v in graded_masks(3, 2).values() for mask in v]
    assert strs == ["e1^e2", "e1^e3", "e2^e3"]
    assert [str(Monomial(mask, 5)) for mask in graded_masks(5, 2)[7]] == ["e2^e5", "e3^e4"]
    assert {m: list(v) for m, v in graded_masks(4, 0).items()} == {0: [0]}


def test_basis_counts():
    for n in range(1, 13):
        for k in range(n + 1):
            assert sum(len(v) for v in graded_masks(n, k).values()) == comb(n, k)


def test_basis_graded_partition_and_range():
    for n in range(1, 11):
        for k in range(n + 1):
            lo = k * (k + 1) // 2
            hi = k * n - k * (k - 1) // 2
            sizes = {
                m: len(graded_masks(n, k).get(m, ())) for m in range(lo - 2, hi + 3)
            }
            assert sum(sizes.values()) == comb(n, k)
            for m, size in sizes.items():
                assert (size > 0) == (lo <= m <= hi)


def test_graded_masks_are_plain_ints_bucketing_basis():
    for n in range(0, 11):
        for k in range(n + 1):
            want = {}
            for mono in monomials(n, k):
                want.setdefault(mono.degree, []).append(mono.mask)
            got = graded_masks(n, k)
            assert list(got) == sorted(want)
            assert {m: list(v) for m, v in got.items()} == want
            assert all(type(mask) is int for v in got.values() for mask in v)
            assert all(type(v.obj) is bytes for v in got.values())
    with pytest.raises(TypeError):
        graded_masks(5, 2)[7] = ()
    bucket = graded_masks(6, 3)[9]
    before = list(bucket)
    with pytest.raises(TypeError):
        bucket[0] = 0
    assert list(graded_masks(6, 3)[9]) == before


def test_basis_validation():
    with pytest.raises(ValueError):
        graded_masks(5, 6)
    with pytest.raises(ValueError):
        graded_masks(5, -1)


def test_derivation_leibniz_expansion():
    d1 = lowering_operator(6, 1)
    assert d1(F("e3^e4", 6)) == F("e2^e4", 6)  # the e3^e3 term vanishes


def test_derivation_kills_scalars():
    d1 = lowering_operator(6, 1)
    assert d1(F("1", 6)) == Form(6)
    assert Derivation(6, {})(F("e1^e2 + e5", 6)) == Form(6)


def test_derivation_leibniz_property_random():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randrange(4, 11)
        d = lowering_operator(n, rng.choice((1, 2)))
        a, b = random_form(rng, n), random_form(rng, n)
        assert d(wedge(a, b)) == wedge(d(a), b) + wedge(a, d(b))


def test_square_of_derivation_is_derivation():
    # the composition D o D of an index-lowering derivation obeys Leibniz too
    rng = random.Random(31)
    n = 8
    d1 = lowering_operator(n, 1)

    def dd(form):
        return d1(d1(form))

    assert dd(F("e5^e6", n)) == F("e3^e6 + e5^e4", n)
    for _ in range(100):
        a, b = random_form(rng, n), random_form(rng, n)
        assert dd(wedge(a, b)) == wedge(dd(a), b) + wedge(a, dd(b))


def test_matrix_of_zero_operator():
    zero = Derivation(4, {})
    assert matrix_of(zero, monomials(4, 2), monomials(4, 3)) == [0] * 6


def test_matrix_of_identity_on_generators():
    ident = Derivation(3, {i: F(f"e{i}", 3).terms for i in (1, 2, 3)})
    assert matrix_of(ident, monomials(3, 1), monomials(3, 1)) == [0b001, 0b010, 0b100]


def test_matrix_of_graded_slice():
    d = differential(m0(5))
    assert matrix_of(d, monomials(5, 1, 4), monomials(5, 2, 4)) == [0b1]


def test_matrix_of_image_outside_codomain():
    d = differential(m0(5))
    with pytest.raises(ImageOutsideCodomain):
        matrix_of(d, monomials(5, 1, 4), monomials(5, 2, 5))


def test_block_pivots_image_outside_codomain():
    # e^4 -> e^1^e^2 lowers the degree, so the image of e^4 (degree 4) is
    # not in the degree-4 slice of 2-forms
    op = Derivation(5, {4: F("e1^e2", 5).terms})
    domain, codomain = graded_masks(5, 1)[4], graded_masks(5, 2)[4]
    with pytest.raises(ImageOutsideCodomain, match="e1\\^e2 of e4"):
        block_pivots(op, domain, codomain)
    d = differential(m0(5))
    # d(e^4) = e^1^e^3, the one 2-form of degree 4: its pivot is position 0
    assert block_pivots(d, domain, codomain) == 0b1


def test_form_addition_is_gf2():
    a = F("e1^e2 + e3", 5)
    assert a + a == Form(5)
    assert a + Form(5) == a
    assert F("e1 + e2", 5) + F("e2 + e3", 5) == F("e1 + e3", 5)


def test_form_text_round_trip_fixed():
    for text in ("0", "1", "e5", "e1^e6 + e3^e4", "1 + e1^e2"):
        form = parse_form(text, 7)
        assert str(form) == text
        assert parse_form(str(form), 7) == form


def test_form_text_round_trip_random():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randrange(1, 13)
        form = random_form(rng, n)
        assert parse_form(str(form), n) == form


def test_parse_is_order_and_whitespace_insensitive():
    n = 7
    assert parse_form("e3^e4+e1^e6", n) == parse_form(" e1 ^ e6  +  e3 ^ e4 ", n)
    assert parse_form("e4^e3", n) == parse_form("e3^e4", n)
    assert parse_form("e5 + e5", n) == Form(n)  # GF(2) fold


def test_parse_errors():
    for bad in ("", "e0", "e8", "x3", "e1^^e2", "e1^e1", "+", "e1 +"):
        with pytest.raises(ValueError):
            parse_form(bad, 7)


def test_form_immutable():
    a = F("e1", 5)
    with pytest.raises(AttributeError):
        a.ambient = 6
