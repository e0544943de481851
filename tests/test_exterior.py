"""Exterior algebra: wedge, grading, derivations, matrices, text syntax."""

import random
import tracemalloc
from math import comb

import pytest

from vergne.classify import enumerate_algebras
from vergne.core import differential, m0
from vergne.exterior import (
    AmbientMismatch,
    Derivation,
    Form,
    ImageOutsideCodomain,
    Monomial,
    graded_masks,
    matrix_of,
)

from helpers import (
    from_indices,
    lowering_operator,
    monomials,
    parse_form,
    random_form,
    rebuilds,
    wedge,
)
from oracles import graded_masks_brute, leibniz_by_factors


def F(text, n):
    return parse_form(text, n)


def test_wedge_repeated_generator_is_zero():
    assert wedge(F("e1", 5), F("e1^e5", 5)) == Form(5)


def test_wedge_basic_product():
    w = wedge(F("e2", 5), F("e5", 5))
    assert w == F("e2^e5", 5)
    (mono,) = w.monomials()
    assert mono.degree == 7
    assert mono.mask.bit_count() == 2


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
    m = from_indices((1, 6), 7)
    assert (m.degree, m.mask.bit_count()) == (7, 2)
    scalar = from_indices((), 7)
    assert (scalar.degree, scalar.mask.bit_count()) == (0, 0)
    m = from_indices((2, 3, 4), 7)
    assert (m.degree, m.mask.bit_count()) == (9, 3)


def test_monomial_validation():
    with pytest.raises(ValueError):
        from_indices((0,), 5)
    with pytest.raises(ValueError):
        from_indices((6,), 5)
    with pytest.raises(ValueError):
        from_indices((2, 2), 5)


def test_monomial_refuses_a_mask_outside_its_ambient():
    # e6 at ambient 5 would print as e6 and report degree 6
    for mask, n in ((1 << 5, 5), (0b1100100, 5), (-1, 5), (1, 0), (1 << 64, 64)):
        with pytest.raises(ValueError, match=f"monomial {mask:#x} outside ambient dimension {n}"):
            Monomial(mask, n)
    with pytest.raises(ValueError, match="ambient dimension must be in 0..64"):
        Monomial(1, 65)
    for forged in (lambda: Monomial._make((1 << 5, 5)), lambda: Monomial(1, 5)._replace(mask=32)):
        with pytest.raises(ValueError, match="monomial 0x20 outside ambient dimension 5"):
            forged()
    top = Monomial(1 << 4, 5)
    assert (str(top), top.degree, top.indices) == ("e5", 5, (5,))
    assert str(Monomial(0, 0)) == "1"
    assert Monomial((1 << 64) - 1, 64).indices == tuple(range(1, 65))


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


def test_graded_masks_equal_brute_force_byte_for_byte():
    cases = [(n, k) for n in range(17) for k in range(n + 1)]
    # at n = 64 the shift sets bit 63 of a lane
    cases += [(n, k) for n in (63, 64) for k in (0, 1, 2, n - 2, n - 1, n)]
    for n, k in cases:
        got, want = graded_masks(n, k), graded_masks_brute(n, k)
        assert list(got) == list(want), (n, k)
        for m, bucket in got.items():
            assert type(bucket.obj) is bytes and bucket.readonly
            assert bucket.obj == want[m].obj, (n, k, m)
            with pytest.raises(TypeError):
                bucket[0] = 0


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


def random_derivation(rng, n):
    """Images of mixed degree from a small pool of masks y: e^i maps to some
    e^i^y and some y.  Two factors e^a, e^b with images e^a^y and e^b^y
    give the same Leibniz term, so terms cancel.  An image lists its first
    mask three times, which sums to once mod 2, and may be empty."""
    pool = [sum(1 << b for b in rng.sample(range(n), rng.randrange(3))) for _ in range(3)]
    images = {}
    for i in rng.sample(range(1, n + 1), rng.randrange(n // 2, n + 1)):
        masks = [y | 1 << (i - 1) for y in rng.sample(pool, rng.randrange(3))]
        masks += rng.sample(pool, rng.randrange(2)) + masks[:1] * 2
        images[i] = masks
    return Derivation(n, images)


def leibniz_terms(d, mask):
    """How many Leibniz terms of D(mask) survive before they are summed."""
    return sum(not img & mask & ~(1 << (i - 1)) for i in Monomial(mask, d.ambient).indices
               for img in d.images.get(i, ()))


def test_derivation_expands_any_images_by_the_leibniz_rule():
    rng = random.Random(41)
    within = across = 0
    for _ in range(300):
        n = rng.randrange(3, 10)
        d = random_derivation(rng, n)
        masks = [rng.getrandbits(n) for _ in range(rng.randrange(1, 6))]
        masks += rng.sample(masks, len(masks) // 2)
        want = Form(n)
        for mask in masks:
            one = leibniz_by_factors(d, mask)
            assert d.apply_mask(mask) == one.terms, (d, mask)
            assert d(Monomial(mask, n)) == one, (d, mask)
            want = want + one
        assert d.apply_masks(masks) == want.terms, (d, masks)
        assert d(Form(n, masks)) == want, (d, masks)
        within += any(len(leibniz_by_factors(d, m)) < leibniz_terms(d, m) for m in masks)
        across += len(want) < sum(len(leibniz_by_factors(d, m)) for m in masks)
    # terms cancel both between the factors of one monomial and between monomials
    assert within > 50 and across > 100, (within, across)


def test_derivation_call_refuses_a_monomial_outside_its_ambient():
    d = differential(m0(5))
    # e3^e6^e7 and e6 at ambient 5: Form(5, ...) refuses both masks, and
    # so does the derivation, rather than expanding or dropping them
    for mask in (0b1100100, 1 << 5):
        with pytest.raises(ValueError, match=f"monomial {mask:#x} outside ambient dimension 5"):
            Form(5, [mask])
        with pytest.raises(ValueError, match=f"monomial {mask:#x} outside ambient dimension 5"):
            d(Monomial(mask, 5))
    with pytest.raises(AmbientMismatch, match="6 != 5"):
        d(Monomial(1, 6))
    assert d(Monomial(0b10000, 5)) == F("e1^e4", 5)


def test_derivation_calls_and_sums_hand_out_forms_the_constructor_accepts():
    rng = random.Random(1105)
    for _ in range(200):
        n = rng.randrange(3, 10)
        d = random_derivation(rng, n)
        a, b = random_form(rng, n), random_form(rng, n)
        for f in (d(a), d(Monomial(rng.getrandbits(n), n)), a + b, d(a) + d(b)):
            assert rebuilds(f), f


def test_differentials_expand_two_forms_by_the_leibniz_rule():
    for n in range(5, 11):
        for g in enumerate_algebras(n):
            d = differential(g)
            for mono in monomials(n, 2):
                want = leibniz_by_factors(d, mono.mask)
                assert d.apply_mask(mono.mask) == want.terms, (g, mono)
                assert d.apply_masks([mono.mask]) == want.terms, (g, mono)
                assert d(mono) == want, (g, mono)


def test_derivation_images_are_its_nonzero_images_as_frozensets():
    # each image is the sum of its masks mod 2, as a Form folds them, so a
    # repeated mask cancels and an image that cancels to 0 has no entry
    assert Derivation(5, {3: [1, 1]}).images == {}
    assert Derivation(5, {3: [1, 2, 1], 4: (4, 4, 4)}).images == {3: {2}, 4: {4}}
    assert Derivation(5, {3: iter([1, 2, 1])}).images == {3: {2}}
    rng = random.Random(43)
    repeated = 0
    for _ in range(200):
        n = rng.randrange(1, 10)
        imgs = {i: [rng.getrandbits(n) for _ in range(rng.randrange(4))] * rng.randrange(1, 4)
                for i in rng.sample(range(1, n + 1), rng.randrange(n + 1))}
        want = {i: Form(n, v).terms for i, v in imgs.items() if Form(n, v)}
        assert Derivation(n, imgs).images == want
        assert Derivation(n, {i: iter(v) for i, v in imgs.items()}).images == want
        assert all(type(v) is frozenset for v in Derivation(n, imgs).images.values())
        repeated += any(len(set(v)) < len(v) for v in imgs.values())
    assert repeated > 50, repeated


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
    # a message may name the top generator e^n
    op = Derivation(5, {5: F("e1^e2", 5).terms})
    with pytest.raises(ImageOutsideCodomain, match="image term e1\\^e2 of e5 not in codomain"):
        matrix_of(op, monomials(5, 1, 5), monomials(5, 2, 5))


def test_form_addition_is_gf2():
    a = F("e1^e2 + e3", 5)
    assert a + a == Form(5)
    with pytest.raises(TypeError):
        a + a.terms
    assert a + Form(5) == a
    assert F("e1 + e2", 5) + F("e2 + e3", 5) == F("e1 + e3", 5)


def test_building_derivations_leaves_no_tuples_behind():
    # a Derivation keeps one dict and builds no tuple of its generator
    # pairs; such a tuple, built from a generator, resizes, and the freed
    # tuples pile up in CPython's per-size free lists (about 0.56 MB here,
    # 3.6 MB of peak RSS over the benchmark's classify run)
    tracemalloc.start()
    try:
        for _ in range(300):
            for n in range(5, 21):
                Derivation(n, {i: {1} for i in range(3, n + 1)})
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 100_000


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
