"""Central extensions, decomposition, the Betti partner, ideal witness."""

import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from vergne import exterior, extensions
from vergne.classify import enumerate_algebras
from vergne.cohomology import betti
from vergne.core import differential, from_row, m0, m2
from vergne.exterior import AmbientMismatch, Form
from vergne.extensions import (
    ExtensionStep,
    MissingLeadingTerm,
    NotACocycle,
    NotHomogeneousTopDegree,
    admissible_cocycles,
    central_extension,
    decompose,
    has_codim1_abelian_ideal,
    partner,
    partners,
    reduce,
)

import oracles
from helpers import count_reduce_calls, parse_form, rebuilds
from oracles import (
    admissible_by_expansion,
    admissible_by_solve,
    cocycle_candidates,
    codim1_abelian_ideal_brute,
    decompose_by_reduce,
    partner_by_decomposition,
)


def F(text, n):
    return parse_form(text, n)


def replay(dec):
    """Fold central_extension over the steps of a decomposition, checking
    that each step extends the algebra the steps below it built."""
    g = dec.root
    for step in dec.steps:
        assert step.base == g
        g = central_extension(g, step.omega)
    return g


# ---------------------------------------------------------- central_extension


def test_central_extension_examples():
    g71 = central_extension(m0(6), F("e1^e6 + e2^e5 + e3^e4", 6))
    assert g71 == from_row("[0, 0, 0, 1, 0, 0]")
    h71 = central_extension(m2(6), F("e1^e6 + e3^e4", 6))
    assert h71 == from_row("[0, 1, 1, 0, 0, 0]")


def test_central_extension_missing_leading_term():
    with pytest.raises(MissingLeadingTerm):
        central_extension(m0(6), F("e2^e5", 6))


def test_central_extension_not_a_cocycle():
    # e1^e6 + e2^e5 alone is not closed for m0(6)
    with pytest.raises(NotACocycle):
        central_extension(m0(6), F("e1^e6 + e2^e5", 6))


def test_central_extension_homogeneity_errors():
    with pytest.raises(NotHomogeneousTopDegree):
        central_extension(m0(6), F("e1^e6 + e5", 6))
    with pytest.raises(NotHomogeneousTopDegree):
        central_extension(m0(6), F("e1^e6 + e1^e2^e4", 6))
    with pytest.raises(NotHomogeneousTopDegree):
        central_extension(m0(6), F("e1^e6 + e1^e4", 6))  # degree 5 term
    with pytest.raises(NotHomogeneousTopDegree, match="term e5\\^e6 has degree != 7"):
        central_extension(m0(6), F("e1^e6 + e5^e6", 6))  # names e^n
    with pytest.raises(AmbientMismatch):
        central_extension(m0(6), F("e1^e6", 7))


def test_central_extension_checks_in_order():
    # the ambient first, then the e^1^e^n term, then each term's shape and degree
    with pytest.raises(AmbientMismatch):
        central_extension(m0(6), F("e2^e3^e4", 7))
    with pytest.raises(MissingLeadingTerm):
        central_extension(m0(6), F("e2^e3^e4", 6))  # also not a 2-form
    with pytest.raises(MissingLeadingTerm):
        central_extension(m0(6), F("e2^e3", 6))  # also of degree 5
    with pytest.raises(NotHomogeneousTopDegree, match="e5 is not a 2-form"):
        central_extension(m0(6), F("e1^e6 + e5", 6))  # also of degree 5


def test_not_a_cocycle_exactly_off_the_admissible_cocycles():
    # every omega = e^1^e^n + S, S any set of the other degree-(n+1)
    # 2-monomials, on every base with n <= 12: the extension's own
    # validation refuses exactly the forms admissible_cocycles leaves out
    refused = accepted = 0
    for n in range(5, 13):
        others = [1 << (i - 1) | 1 << (n - i) for i in range(2, n // 2 + 1)]
        for g in enumerate_algebras(n):
            admissible = set(admissible_cocycles(g))
            for pick in range(1 << len(others)):
                picked = [m for t, m in enumerate(others) if pick >> t & 1]
                omega = Form(n, [1 | 1 << (n - 1)] + picked)
                if omega in admissible:
                    assert central_extension(g, omega).n == n + 1
                    accepted += 1
                    continue
                with pytest.raises(NotACocycle) as info:
                    central_extension(g, omega)
                assert str(info.value) == f"d({omega}) != 0"
                refused += 1
    # each algebra of dimension 6..13 extends exactly one base by one omega
    assert accepted == sum(len(enumerate_algebras(n)) for n in range(6, 14)) == 58
    assert refused == 626


def test_partners_make_no_derivation_calls(monkeypatch):
    # the cocycle is decided inside the extension's validation, so the
    # library never applies a Derivation to a Form
    def no_call(self, x):
        raise AssertionError("Derivation.__call__ reached")

    monkeypatch.setattr(exterior.Derivation, "__call__", no_call)
    family = [g for n in range(5, 13) for g in enumerate_algebras(n)]
    found = partners(family)
    for g in family:
        flip = m2(g.n).row().bits
        assert found[g].row().bits == tuple(a ^ b for a, b in zip(g.row().bits, flip)), g


# ------------------------------------------------------- admissible_cocycles


def brute_force_admissible(g):
    """Oracle: try every subset of the non-leading degree-(n+1) 2-monomials."""
    n = g.n
    d = differential(g)
    lead = F(f"e1^e{n}", n)
    tail = [
        Form(n, [(1 << (i - 1)) | (1 << (j - 1))])
        for i, j in combinations(range(1, n + 1), 2)
        if i + j == n + 1 and (i, j) != (1, n)
    ]
    found = []
    for pick in range(1 << len(tail)):
        omega = lead
        for t, form in enumerate(tail):
            if (pick >> t) & 1:
                omega = omega + form
        if not d(omega):
            found.append(omega)
    return found


def test_admissible_cocycles_m0_6():
    got = admissible_cocycles(m0(6))
    assert [str(w) for w in got] == ["e1^e6", "e1^e6 + e2^e5 + e3^e4"]
    assert set(got) == set(brute_force_admissible(m0(6)))


def test_degree_breaking_differential_is_refused_by_the_expansion_oracle(monkeypatch):
    # a Leibniz term of the wrong degree is a nonzero term of d(omega), so the
    # full expansion refuses each candidate that reaches it and raises nothing;
    # e1^e6 holds no e^4, so the bad image of e^4 never reaches it
    images = dict(differential(m0(6)).images)
    for i, bad, kept in ((6, "e2^e3", []), (4, "e1^e2", ["e1^e6"])):
        op = exterior.Derivation(6, {**images, i: images[i] | parse_form(bad, 6).terms})
        monkeypatch.setattr(oracles, "differential", lambda g: op)
        assert [str(w) for w in admissible_by_expansion(m0(6))] == kept


def test_admissible_cocycles_build_no_derivation(monkeypatch):
    # d_g(omega) is read off g.rows, so the search never builds a differential
    def no_build(self, *args):
        raise AssertionError("Derivation built")

    family = [g for n in range(5, 21) for g in enumerate_algebras(n)]
    children = sum(len(enumerate_algebras(n)) for n in range(6, 22))
    monkeypatch.setattr(exterior.Derivation, "__init__", no_build)
    assert sum(len(admissible_cocycles(g)) for g in family) == children == 252


def test_each_candidate_is_kept_exactly_when_its_extension_validates():
    # the read of d_g(omega) against the extension's own full validation: on
    # every algebra with n <= 40, each free-bit candidate is kept exactly when
    # central_extension accepts it, and is otherwise refused as NotACocycle
    kept = refused = 0
    for n in range(5, 41):
        children = set(enumerate_algebras(n + 1))
        for g in enumerate_algebras(n):
            admissible = admissible_cocycles(g)
            for omega in cocycle_candidates(g):
                if omega in admissible:
                    assert central_extension(g, omega) in children, (g, omega)
                    kept += 1
                    continue
                with pytest.raises(NotACocycle) as info:
                    central_extension(g, omega)
                assert str(info.value) == f"d({omega}) != 0"
                refused += 1
    assert kept == sum(len(enumerate_algebras(n)) for n in range(6, 42))
    assert kept + refused == 2 * 1556


def test_admissible_cocycles_m0_8():
    assert len(admissible_cocycles(m0(8))) == 2


def test_admissible_cocycles_match_brute_force():
    checked = 0
    for n in range(5, 17):
        for g in enumerate_algebras(n):
            assert set(admissible_cocycles(g)) == set(brute_force_admissible(g)), g
            checked += 1
    assert checked == 112


def test_admissible_cocycles_equal_the_affine_solve():
    # the same forms in the same order as the solve over the whole slice and
    # as the Leibniz expansion of each candidate, also at the representation
    # limit, where the forms are read off child rows of dimension 65
    family = [g for n in range(5, 41) for g in enumerate_algebras(n)] + [m0(64), m2(64)]
    for g in family:
        assert admissible_cocycles(g) == admissible_by_solve(g) == admissible_by_expansion(g), g
    assert len(family) == 1558
    assert [len(admissible_cocycles(g)) for g in family[-2:]] == [2, 2]


def test_admissible_cocycles_at_the_limit_store_no_algebra(monkeypatch):
    # the forms at n = 64 come from child rows of dimension 65, past the
    # representation limit, so no algebra is stored for them
    stores = []
    monkeypatch.setattr(extensions, "_store", lambda n, rows: stores.append(n))
    for g in (m0(64), m2(64)):
        assert admissible_cocycles(g) == admissible_by_expansion(g), g
    assert stores == []


def test_admissible_cocycles_satisfy_step_invariants():
    for g in enumerate_algebras(7):
        d = differential(g)
        for omega in admissible_cocycles(g):
            assert not d(omega)
            assert all(m.bit_count() == 2 for m in omega.terms)
            assert all(mo.degree == g.n + 1 for mo in omega.monomials())
            assert (1 | (1 << (g.n - 1))) in omega.terms
            central_extension(g, omega)  # must not raise


# ---------------------------------------------------------------- reduce


def test_cocycles_are_forms_the_constructor_accepts():
    for n in range(5, 13):
        for g in enumerate_algebras(n):
            assert all(rebuilds(omega) for omega in admissible_cocycles(g)), g
            if n > 5:
                assert rebuilds(reduce(g)[1]), g
            assert all(rebuilds(step.omega) for step in decompose(g).steps), g


def test_reduce_example():
    base, omega = reduce(from_row("[0, 0, 0, 1, 0, 0, 0]"))
    assert base == from_row("[0, 0, 0, 1, 0, 0]")
    assert omega == F("e1^e7 + e3^e5", 7)


def test_reduce_model():
    for n in range(6, 10):
        base, omega = reduce(m0(n))
        assert base == m0(n - 1)
        assert omega == F(f"e1^e{n-1}", n - 1)


def test_reduce_minimum_dimension():
    with pytest.raises(ValueError):
        reduce(m0(5))


def test_reduce_round_trips():
    # reduce o central_extension and central_extension o reduce are inverse
    for n in range(5, 10):
        for g in enumerate_algebras(n):
            for omega in admissible_cocycles(g):
                assert reduce(central_extension(g, omega)) == (g, omega)
            if n >= 6:
                base, omega = reduce(g)
                assert central_extension(base, omega) == g


# ---------------------------------------------------------------- decompose


def test_reduce_and_decompose_rebuild_every_algebra():
    for n in range(6, 13):
        for g in enumerate_algebras(n):
            assert central_extension(*reduce(g)) == g
            assert replay(decompose(g)) == g


def test_decompose_model():
    dec = decompose(m0(9))
    assert dec.root == m0(5)
    assert [str(s.omega) for s in dec.steps] == [
        "e1^e5",
        "e1^e6",
        "e1^e7",
        "e1^e8",
    ]
    assert replay(dec) == m0(9)


def test_decompose_g71():
    # a dimension-7 algebra peels off exactly two cocycles on the way to
    # dimension 5; only the top one is nontrivial for g(7,1)
    dec = decompose(from_row("[0, 0, 0, 1, 0, 0]"))
    assert dec.root == m0(5)
    assert len(dec.steps) == 2
    assert dec.steps[0].omega == F("e1^e5", 5)
    assert dec.steps[1].omega == F("e1^e6 + e2^e5 + e3^e4", 6)


def test_decompose_reaches_m2_root():
    dec = decompose(from_row("[0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0]"))
    assert dec.root == m2(5)
    assert replay(dec) == from_row("[0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0]")


def test_decompose_of_root_is_trivial():
    dec = decompose(m2(5))
    assert dec.root == m2(5)
    assert dec.steps == ()


def test_decompose_equals_the_reduce_walk():
    # the truncations and their cocycles d_g(e^{m+1}) are the chain that
    # peeling one extension at a time with reduce builds
    for n in range(5, 17):
        for g in enumerate_algebras(n):
            dec, want = decompose(g), decompose_by_reduce(g)
            assert dec.root == want.root, g
            assert [s.base for s in dec.steps] == [s.base for s in want.steps], g
            assert [s.omega for s in dec.steps] == [s.omega for s in want.steps], g


def test_decompose_root_is_the_first_base():
    for n in range(5, 13):
        for g in enumerate_algebras(n):
            dec = decompose(g)
            if n == 5:
                assert dec.root is g
            else:
                assert dec.root is dec.steps[0].base


def test_decompose_makes_no_reduce_calls(monkeypatch):
    calls = count_reduce_calls(monkeypatch)
    for n in range(5, 13):
        for g in enumerate_algebras(n):
            decompose(g)
    assert calls == []


# ---------------------------------------------------------------- partner


def test_partner_of_models():
    for n in range(5, 13):
        assert partner(m0(n)) == m2(n), n
        assert partner(m2(n)) == m0(n), n


def test_partners_sweep_matches_the_decomposition_oracle():
    family = [g for n in range(5, 15) for g in enumerate_algebras(n)]
    mate = partners(family)
    assert list(mate) == family
    for g in family:
        assert mate[g] == partner_by_decomposition(g), g
        assert partner(g) == partners((g,))[g] == mate[g], g
    # the sweep walks reduce down from each algebra, so the order is free
    assert partners(reversed(family)) == mate


def test_partner_pairs_known_labels():
    g71 = from_row("[0, 0, 0, 1, 0, 0]")
    assert partner(g71) == from_row("[0, 1, 1, 0, 0, 0]")
    assert partner(from_row("[0, 0, 0, 0, 0, 0, 0, 0]")) == m2(9)


def test_partner_is_involution_and_changes_row():
    for n in range(5, 10):
        for g in enumerate_algebras(n):
            p = partner(g)
            assert p.n == n
            assert p.row() != g.row()
            assert partner(p) == g
            assert decompose(p).root != decompose(g).root


def test_partner_row_is_row_xor_m2_row():
    # the generator test of the commuting square: partners differ by the
    # e^2^e^{i-2} terms of m2(n), so their rows differ by row(m2(n))
    count = 0
    for n in range(5, 21):
        flip = m2(n).row().bits
        for g in enumerate_algebras(n):
            want = tuple(a ^ b for a, b in zip(g.row().bits, flip))
            assert partner(g).row().bits == want, g
            count += 1
    assert count == 218


def test_partner_preserves_betti():
    for n in range(5, 9):
        for g in enumerate_algebras(n):
            assert betti(g).b == betti(partner(g)).b, g


# -------------------------------------------------------------- ideal witness


def test_codim1_abelian_ideal_examples():
    assert has_codim1_abelian_ideal(m0(5)) is True
    assert has_codim1_abelian_ideal(m2(5)) is False
    assert has_codim1_abelian_ideal(m0(12)) is True
    assert has_codim1_abelian_ideal(m2(9)) is False
    # any nonzero c kills all three candidate hyperplanes
    assert has_codim1_abelian_ideal(from_row("[0, 0, 0, 1, 0, 0]")) is False


def test_codim1_abelian_ideal_matches_brute_force():
    # every hyperplane ker(phi) tested directly, on the 44 algebras with n <= 12
    algebras = [g for n in range(5, 13) for g in enumerate_algebras(n)]
    assert len(algebras) == 44
    for g in algebras:
        assert has_codim1_abelian_ideal(g) == codim1_abelian_ideal_brute(g), g


def test_codim1_abelian_ideal_only_on_m0():
    for n in range(5, 21):
        for g in enumerate_algebras(n):
            assert has_codim1_abelian_ideal(g) == (g == m0(n)), g


def test_extension_step_fields():
    step = ExtensionStep(base=m0(6), omega=F("e1^e6", 6))
    assert step.base == m0(6)
    assert step.omega == F("e1^e6", 6)


SWEEP = """
import sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from vergne.classify import enumerate_algebras
from vergne.extensions import partners
tracemalloc.start()
family = [g for n in range(5, 33) for g in enumerate_algebras(n)]
mate = partners(family)
print(len(family), len(set(mate.values())), tracemalloc.get_traced_memory()[1])
"""


def test_enumeration_and_partner_sweep_stay_small():
    # every algebra with n = 5..32 and its partner stay alive to the end, and
    # each holds its c-table rows, not a differential; a fresh interpreter,
    # so no cache filled by another test hides or adds to the peak
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-I", "-c", SWEEP, src],
                         capture_output=True, text=True, check=True).stdout.split()
    algebras, mates, peak = map(int, out)
    assert algebras == mates == 862
    assert peak < 8 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"
