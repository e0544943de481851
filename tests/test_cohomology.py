"""Betti numbers: block path vs full-matrix oracle, gradings, squares."""

import json
import random
import subprocess
import sys
from math import comb
from pathlib import Path
from types import MappingProxyType

import pytest

from vergne import cli, cohomology
from vergne.classify import enumerate_algebras, extension_tree
from vergne.cohomology import (
    _block_ranks,
    betti,
    cocycle_dim,
    graded_betti,
    verify_commuting_square,
)
from vergne.core import differential, from_row, involution, m0, m2
from vergne.exterior import (
    Derivation,
    ImageOutsideCodomain,
    block_pivots,
    graded_masks,
    matrix_of,
    parse_form,
)
from vergne.extensions import Decomposition, decompose, partner

from helpers import monomials
from oracles import (
    cocycle_dim_full,
    commuting_square_failures,
    commuting_square_holds,
    rank_naive,
)


def naive_cocycle_dims(g):
    """Independent oracle: unsliced matrices ranked by the naive eliminator."""
    n = g.n
    d = differential(g)
    dims = []
    for k in range(n + 1):
        columns = matrix_of(d, monomials(n, k), monomials(n, k + 1))
        dims.append(len(columns) - rank_naive(columns))
    return dims


def test_cocycle_dim_examples():
    g = m0(5)
    assert cocycle_dim(g, 1) == 2
    assert cocycle_dim(g, 0) == 1
    assert cocycle_dim(g, 2) == 6
    # oracle: naive full-matrix nullity
    assert naive_cocycle_dims(g) == [cocycle_dim(g, k) for k in range(6)]


def test_cocycle_dim_range():
    with pytest.raises(ValueError):
        cocycle_dim(m0(5), 6)
    with pytest.raises(ValueError):
        cocycle_dim_full(m0(5), -1)


def test_betti_m0_5_against_full_complex_oracle():
    z = naive_cocycle_dims(m0(5))
    b = [1] + [z[k] + z[k - 1] - comb(5, k - 1) for k in range(1, 6)]
    assert b == [1, 2, 3, 3, 2, 1]
    assert list(betti(m0(5)).b) == b
    assert list(betti(m0(5)).z) == z


def test_betti_first_numbers():
    for n in range(5, 13):
        assert betti(m0(n)).b[1] == 2
    for n in range(5, 15):
        assert betti(m0(n)).b[2] == (n + 1) // 2
        assert betti(m2(n)).b[2] == (n + 1) // 2


def test_equal_betti_numbers_of_models():
    for n in range(5, 15):
        assert betti(m0(n)).b == betti(m2(n)).b, n


def test_block_equals_full_matrix():
    algebras = [m0(n) for n in range(5, 9)] + [m2(n) for n in range(5, 9)]
    algebras += list(enumerate_algebras(7))
    for g in algebras:
        for k in range(g.n + 1):
            assert cocycle_dim(g, k) == cocycle_dim_full(g, k), (g, k)


def test_block_kernel_matches_naive_rank_on_every_block():
    # the fused kernel on the full block, and the rank the cleared pass
    # caches, against the naive rank of the matrix built by matrix_of
    blocks = 0
    for n in range(5, 12):
        for g in enumerate_algebras(n):
            d = differential(g)
            cached = _block_ranks(g, n)
            for k in range(n + 1):
                target = graded_masks(n, k + 1) if k < n else {}
                for m, masks in graded_masks(n, k).items():
                    codomain = monomials(n, k + 1, m)
                    want = rank_naive(matrix_of(d, monomials(n, k, m), codomain))
                    pivots = block_pivots(d, masks, target.get(m, ()))
                    assert pivots.bit_count() == want, (g, k, m)
                    assert pivots < 1 << len(codomain), (g, k, m)
                    assert cached[k][m] == want, (g, k, m)
                    blocks += 1
    assert blocks > 4000


def test_clearing_skips_the_pivot_columns(monkeypatch):
    # block (k, m) builds only the columns outside the pivots of block
    # (k-1, m): sum over k of C(n, k) - rank d_{k-1} columns in all
    kernel = cohomology.block_pivots
    built = []

    def counting(op, domain, codomain):
        domain = list(domain)
        built.append(len(domain))
        return kernel(op, domain, codomain)

    monkeypatch.setattr(cohomology, "block_pivots", counting)
    for g in (m0(12), m2(12)):
        built.clear()
        n = g.n
        rank = [comb(n, k) - cocycle_dim(g, k) for k in range(n + 1)]
        want = sum(comb(n, k) - (rank[k - 1] if k else 0) for k in range(n + 1))
        assert sum(built) == want < 2 ** n, g


def test_degree_breaking_differential_is_refused(monkeypatch, capsys):
    # nothing is cleared at k = 1, so every generator column is built there
    # and a generator image that is not a 2-factor monomial of the
    # generator's degree raises before any column is skipped.  The square
    # checks every generator image of both sides before its verdict, so
    # there the bug is an internal error (exit 4) too, never a failed
    # square (exit 1).
    images = dict(differential(m0(6)).images)
    for bad in (parse_form("e2^e3", 6), parse_form("e1^e2^e3", 6)):
        op = Derivation(6, {**images, 6: images[6] | bad.terms})
        monkeypatch.setattr(cohomology, "differential", lambda g: op)
        g = m0(6)
        with pytest.raises(ImageOutsideCodomain, match="of e6 not in codomain"):
            betti(g)
        assert g._ranks is None and g._betti is None
        with pytest.raises(ImageOutsideCodomain, match="not in codomain"):
            verify_commuting_square(m0(6), m2(6), 2)
        # one broken side is enough, in either orientation
        with monkeypatch.context() as one_side:
            one_side.setattr(cohomology, "differential",
                             lambda g: op if g == m2(6) else differential(g))
            for g1, g2 in ((m0(6), m2(6)), (m2(6), m0(6))):
                with pytest.raises(ImageOutsideCodomain, match="of e6 not in codomain"):
                    verify_commuting_square(g1, g2, 2)
        assert cli.main(["verify", "--suite", "diagrams", "--max-dim", "6"]) == cli.EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error: ImageOutsideCodomain: ")


def test_cocycle_dim_ranks_only_the_levels_it_needs(monkeypatch):
    # levels 0..2 of m2(12) are 1 + 12 + 21 graded blocks; betti resumes
    # from them instead of starting over, and the whole complex is 299
    kernel = cohomology.block_pivots
    calls = []

    def counting(op, domain, codomain):
        calls.append(1)
        return kernel(op, domain, codomain)

    monkeypatch.setattr(cohomology, "block_pivots", counting)
    g = m2(12)
    cocycle_dim(g, 2)
    assert len(calls) == 34
    cocycle_dim(g, 1)
    graded_betti(g, 2, 9)
    assert len(calls) == 34
    table = betti(g)
    assert len(calls) == 299
    calls.clear()
    assert graded_betti(m2(12), 2, 9) == table.graded[(2, 9)] and len(calls) == 34
    assert betti(m2(12)) == table


def test_graded_betti_examples():
    g = m0(5)
    assert graded_betti(g, 1, 1) == 1
    assert graded_betti(g, 1, 2) == 1
    for m in range(0, 20):
        if m not in (1, 2):
            assert graded_betti(g, 1, m) == 0
    assert graded_betti(g, 0, 0) == 1
    table = betti(m2(7))
    assert sum(v for (k, m), v in table.graded.items() if k == 2) == table.b[2] == 4


def test_betti_table_consistency():
    for n in range(5, 10):
        for g in enumerate_algebras(n):
            table = betti(g)
            assert table.violations() == []
            assert table.b[0] == 1 and table.b[n] == 1
            # observed duality; a failure here is a probable bug, flag loudly
            assert table.b == table.b[::-1], (
                f"duality b_k == b_(n-k) broke for {g!r}: {table.b}"
            )


def test_b2_on_other_algebras_is_reported_not_assumed():
    # the floor formula for b_2 is specific to the models; record where the
    # other algebras stand instead of asserting it
    observed = {}
    for n in range(7, 10):
        for g in enumerate_algebras(n):
            if g in (m0(n), m2(n)):
                continue
            observed[(n, str(g.row()))] = betti(g).b[2]
    print(f"b_2 on non-model algebras: {observed}")
    assert all(v >= 2 for v in observed.values())  # sanity floor only
    # at least one algebra deviates from the model formula, so the formula
    # must not be asserted outside m0/m2
    assert any(v != (n + 1) // 2 for (n, _), v in observed.items())


def _check_partner_squares():
    # every partner pair, m0(n) ~ m2(n) and m2(n) ~ m0(n) among them, at
    # every k, against the Form-level oracle
    for n in range(5, 11):
        for g in enumerate_algebras(n):
            p = partner(g)
            for k in range(2, n + 1):
                assert verify_commuting_square(g, p, k) is True, (g, k)
                assert commuting_square_holds(g, p, k), (g, k)


def test_commuting_square_models(monkeypatch):
    # decided from the generator images: no block column is built
    def no_blocks(*args):
        raise AssertionError("block check reached")

    monkeypatch.setattr(cohomology, "image_columns", no_blocks)
    _check_partner_squares()


def test_commuting_square_models_by_blocks(monkeypatch):
    # the same squares with the generator test switched off, so the block
    # check is what decides them
    built = []
    image_columns = cohomology.image_columns

    def counted(op, domain, row):
        built.append(len(domain))
        return image_columns(op, domain, row)

    monkeypatch.setattr(cohomology, "_generators_conjugate", lambda d1, d2: False)
    monkeypatch.setattr(cohomology, "image_columns", counted)
    _check_partner_squares()
    assert sum(built) == 2 * sum(2 ** n - n - 1 for n in range(5, 11)
                                 for _ in enumerate_algebras(n))


def test_commuting_square_agrees_with_oracle_on_all_ordered_pairs():
    # every ordered pair with n <= 9, the models and partners among them,
    # at every k; the generator test holds exactly when every k does
    held = failed = 0
    for n in range(5, 10):
        algebras = enumerate_algebras(n)
        assert m0(n) in algebras and m2(n) in algebras
        for g1 in algebras:
            for g2 in algebras:
                verdicts = []
                for k in range(2, n + 1):
                    got = verify_commuting_square(g1, g2, k)
                    assert got == (not commuting_square_failures(g1, g2, k)), (g1, g2, k)
                    verdicts.append(got)
                generators = cohomology._generators_conjugate(differential(g1), differential(g2))
                assert generators == all(verdicts) == (g2 == partner(g1)), (g1, g2)
                held += generators
                failed += verdicts.count(False)
    assert held == sum(len(enumerate_algebras(n)) for n in range(5, 10)) == 18
    # 58 of the 76 pairs fail, in 298 (pair, k) squares
    assert failed == 298, failed


def test_commuting_square_requires_conjugation():
    # f conjugates the m0 differential into the m2 one, not into itself:
    # with h = e1^e6 one has d0(f(h)) = e1^e2^e4 while f(d0(h)) = 0, so the
    # (m0, m0) square genuinely fails; record the counterexample.
    n = 7
    d0 = differential(m0(n))
    h = parse_form("e1^e6", n)
    assert d0(h) == parse_form("0", n)
    assert d0(involution(h)) == parse_form("e1^e2^e4", n)
    assert not verify_commuting_square(m0(n), m0(n), 2)


def test_commuting_square_paired_extensions():
    g71 = from_row("[0, 0, 0, 1, 0, 0]")
    h71 = from_row("[0, 1, 1, 0, 0, 0]")
    for k in range(2, 8):
        assert verify_commuting_square(g71, h71, k)


def test_commuting_square_validation():
    with pytest.raises(ValueError):
        verify_commuting_square(m0(5), m0(6), 2)
    with pytest.raises(ValueError):
        verify_commuting_square(m0(5), m2(5), 1)
    with pytest.raises(ValueError):
        verify_commuting_square(m0(5), m2(5), 6)


def test_commuting_square_fails_in_a_single_degree():
    # squares whose failing monomials all share one degree m: a kernel that
    # skipped or cut short any block would call some of them True
    rng = random.Random(1729)
    pairs = [(g1, g2) for n in range(7, 10) for g1 in enumerate_algebras(n)
             for g2 in enumerate_algebras(n) if g2 != partner(g1)]
    rng.shuffle(pairs)
    single = []
    for g1, g2 in pairs:
        for k in range(2, g1.n + 1):
            failures = commuting_square_failures(g1, g2, k)
            assert verify_commuting_square(g1, g2, k) == (not failures), (g1, g2, k)
            if len({mono.degree for mono in failures}) == 1:
                single.append((g1, g2, k))
        if len(single) >= 5:
            break
    assert len(single) >= 5, single


def test_commuting_square_matches_form_level_definition():
    # random pairs that are not partners, so the square often fails
    rng = random.Random(31)
    verdicts = []
    for _ in range(300):
        n = rng.randrange(6, 11)
        g1, g2 = rng.choice(enumerate_algebras(n)), rng.choice(enumerate_algebras(n))
        if g2 == partner(g1):
            continue
        k = rng.randrange(2, n + 1)
        got = verify_commuting_square(g1, g2, k)
        assert got == commuting_square_holds(g1, g2, k), (g1, g2, k)
        verdicts.append(got)
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 20


def test_proof_orientation_of_the_square():
    # both orientations hold and are equivalent through f o f = id
    for n in (5, 7):
        d0, d2 = differential(m0(n)), differential(m2(n))
        for k in range(2, n + 1):
            for mono in monomials(n, k):
                h = parse_form(str(mono), n)
                assert involution(d2(h)) == d0(involution(h))
                assert d2(involution(h)) == involution(d0(h))


def test_json_and_csv_output():
    table = betti(m0(5))
    payload = json.loads(table.to_json())
    assert payload == {
        "n": 5,
        "betti": [1, 2, 3, 3, 2, 1],
        "graded": {
            "0,0": 1,
            "1,1": 1,
            "1,2": 1,
            "2,5": 1,
            "2,6": 1,
            "2,7": 1,
            "3,8": 1,
            "3,9": 1,
            "3,10": 1,
            "4,13": 1,
            "4,14": 1,
            "5,15": 1,
        },
        "cocycle_dims": [1, 2, 6, 7, 5, 1],
    }
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "k,betti,cocycle_dim,graded"
    assert len(lines) == 7
    assert lines[1] == "0,1,1,0=1"


def test_cached_betti_table_is_read_only():
    # betti(g) hands out the per-algebra cached table; no caller may change it
    g = from_row("[0, 0, 0, 1, 0, 0, 0]")
    table = betti(g)
    before = (table.b, dict(table.graded), table.z)
    with pytest.raises(TypeError):
        table.b[1] = 99
    with pytest.raises(TypeError):
        table.z[0] = 99
    with pytest.raises(TypeError):
        table.graded[(0, 0)] = 99
    with pytest.raises(AttributeError):
        table.b = [0] * 9
    assert betti(g) is table
    assert (betti(g).b, dict(betti(g).graded), betti(g).z) == before


def test_result_records_keep_fields_equality_and_immutability():
    table = cohomology.BettiTable(n=1, b=[1, 1], graded={(0, 0): 1, (1, 1): 1}, z=[1, 1])
    assert (table.b, table.z, type(table.graded)) == ((1, 1), (1, 1), MappingProxyType)
    assert table == cohomology.BettiTable(1, (1, 1), {(1, 1): 1, (0, 0): 1}, (1, 1))
    assert table != cohomology.BettiTable(1, (1, 1), {(0, 0): 1}, (1, 1))
    dec = decompose(m0(7))
    tree = extension_tree(6)
    assert dec == Decomposition(root=dec.root, steps=dec.steps)
    assert tree == extension_tree(6)
    for record, name, value in ((table, "b", ()), (dec, "root", m2(5)), (tree, "edges", ())):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert betti(m0(7)) == betti(m0(7))


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # each costs about a megabyte of RSS in the benchmark's fresh workers
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import vergne; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
