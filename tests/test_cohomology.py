"""Betti numbers: block path vs full-matrix oracle, gradings, squares."""

import hashlib
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
from vergne.cohomology import betti, square_failures, verify_commuting_square
from vergne.core import _image, differential, from_row, involution, m0, m2
from vergne.exterior import ImageOutsideCodomain, graded_masks, matrix_of
from vergne.extensions import Decomposition, _truncation, decompose, partner, partners

from helpers import count_batches, monomials, parse_form
from oracles import (
    betti_cone,
    betti_m0_cone,
    cocycle_dim_full,
    commuting_square_failures,
    commuting_square_holds,
    delta_by_strip,
    graded_duality_by_lookup,
    rank_naive,
    violations_by_recount,
)

BETTI_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "betti_pool.json"


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
    z = betti(m0(5)).z
    assert (z[0], z[1], z[2]) == (1, 2, 6)
    # oracle: naive full-matrix nullity
    assert naive_cocycle_dims(m0(5)) == list(z)


def test_cocycle_dim_range():
    # the table holds dim Z_k for k = 0..n and nothing else
    assert len(betti(m0(5)).z) == 6
    with pytest.raises(ValueError):
        cocycle_dim_full(m0(5), -1)


def test_betti_m0_5_against_full_complex_oracle():
    z = naive_cocycle_dims(m0(5))
    b = [1] + [z[k] + z[k - 1] - comb(5, k - 1) for k in range(1, 6)]
    assert b == [1, 2, 3, 3, 2, 1]
    assert list(betti(m0(5)).b) == b
    assert list(betti(m0(5)).z) == z


def test_criterion_01_by_the_mapping_cone():
    # b_k(m0(n)) = dim ker theta|L^k + dim ker theta|L^(k-1), derived apart
    # from the Chevalley-Eilenberg differential and its graded blocks
    for n in range(5, 15):
        assert betti_m0_cone(n) == betti(m0(n)).b == betti(m2(n)).b, n


def test_mapping_cone_oracle_sees_a_wrong_theta():
    # mutation: theta(e^3) = 0 as well must change some Betti vector in range
    assert any(betti_m0_cone(n, (2, 3)) != betti(m0(n)).b for n in range(5, 15))


def test_betti_tables_by_the_general_mapping_cone():
    # b_k = dim ker(theta on H^k(V)) + dim coker(theta on H^(k-1)(V)), weight
    # by weight, from full matrices of d_V on span(e^2..e^n) read off g.c
    family = [g for n in range(5, 13) for g in enumerate_algebras(n)]
    assert len(family) == 44
    for g in family:
        assert betti_cone(g) == (betti(g).b, dict(betti(g).graded)), g


def test_general_mapping_cone_oracle_sees_a_flipped_constant():
    # mutation: flipping one c_{i,j} breaks d_V o d_V = 0 or theta o d_V =
    # d_V o theta, which the oracle refuses, or changes the table; the one
    # exception swaps m0(5) and m2(5), whose tables are equal
    refusals, agree = set(), set()
    for n in range(5, 11):
        for g in enumerate_algebras(n):
            for i in range(2, n):
                for j in range(i + 1, n - i + 1):
                    try:
                        got = betti_cone(g, frozenset({(i, j)}))
                    except ValueError as exc:
                        refusals.add(str(exc).split(" on ")[0])
                        continue
                    if got == (betti(g).b, dict(betti(g).graded)):
                        agree.add((g, (i, j)))
    assert agree == {(m0(5), (2, 3)), (m2(5), (2, 3))}
    assert refusals == {"d_V o d_V != 0", "theta does not commute with d_V"}


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
            assert betti(g).z[k] == cocycle_dim_full(g, k), (g, k)


def fresh(n):
    """The enumerated algebras of dimension n as new instances, with no table."""
    return [from_row(g.row()) for g in enumerate_algebras(n)]


def batch_disagreements(n):
    """Where one batch of the algebras of dimension n disagrees with the
    oracles: each member's table against ``betti_cone``, each full block's
    kernel rank against the naive rank of ``matrix_of``, and the table the
    cleared pass yields against one built from those naive ranks; and the
    number of (member, block) ranks checked.  The full blocks are ranked
    with no store: no position is read as an e^1- or an e^2-column
    (``ones`` = ``twos`` = 0), so the kernel builds every column from its
    m0(n) column and δ terms."""
    batch = fresh(n)
    tables = cohomology.betti_tables(batch)
    bad = [(g, "cone") for g, table in zip(batch, tables)
           if betti_cone(g) != (table.b, dict(table.graded))]
    deltas = [cohomology._delta_terms(g) for g in batch]
    diffs = [differential(g) for g in batch]
    z = [[] for _ in batch]
    graded = [{} for _ in batch]
    below = [{} for _ in batch]
    checked = 0
    for k in range(n + 1):
        target = graded_masks(n, k + 1) if k < n else {}
        ranks = [{} for _ in batch]
        for m, masks in graded_masks(n, k).items():
            codomain = monomials(n, k + 1, m)
            none = [{}] * len(batch)
            found, _ = cohomology._block_pivots(masks, target.get(m, ()), deltas,
                                                [0] * len(batch), 0, none, 0, 0, none, 0, 0)
            for i, (d, pivots) in enumerate(zip(diffs, found)):
                want = rank_naive(matrix_of(d, monomials(n, k, m), codomain))
                if pivots.bit_count() != want or pivots >> len(codomain):
                    bad.append((batch[i], (k, m)))
                ranks[i][m] = want
                checked += 1
                if v := len(masks) - want - below[i].get(m, 0):
                    graded[i][(k, m)] = v
        for i in range(len(batch)):
            z[i].append(comb(n, k) - sum(ranks[i].values()))
        below = ranks
    bad += [(g, "table") for g, table, zi, gi in zip(batch, tables, z, graded)
            if (table.z, dict(table.graded)) != (tuple(zi), gi)]
    return bad, checked


def test_block_kernel_matches_naive_rank_on_every_block():
    # one batch per n <= 12, member by member against the mapping cone, and
    # every full block of every member against the naive rank of matrix_of
    checked = 0
    for n in range(5, 13):
        bad, blocks = batch_disagreements(n)
        assert bad == [], n
        checked += blocks
    assert checked == sum(len(enumerate_algebras(n)) * len(graded_masks(n, k))
                          for n in range(5, 13) for k in range(n + 1)) > 7000


def test_batch_oracles_see_a_dropped_m0_term(monkeypatch):
    # mutation: the shared m0(n) column loses its term (x - e^3 + e^2)^e^1
    real = cohomology._m0_column

    def dropped(mask, row):
        col = real(mask, row)
        if mask & 0b111 == 0b100:  # e^3 in x, e^2 and e^1 not
            col ^= row[mask ^ 0b110 | 1]
        return col

    monkeypatch.setattr(cohomology, "_m0_column", dropped)
    bad = [what for n in range(5, 9) for _, what in batch_disagreements(n)[0]]
    assert "cone" in bad and "table" in bad
    assert any(isinstance(what, tuple) for what in bad)


def test_block_pivots_names_a_missing_m0_term():
    # a miss in the m0(n) lookup names the m0(n) term: e^1^e^3 = e^1^L(e^4)
    # with no δ term run, and e^1^e^4 = e^1^L(e^5) after the δ term e^2^e^3
    # of e^5 found its position
    kernel = cohomology._block_pivots
    with pytest.raises(ImageOutsideCodomain, match="image term e1\\^e3 of e4 not"):
        kernel(graded_masks(5, 1)[4], (), [[]], [0], 0, [{}], 0, 0, [{}], 0, 0)
    e5, e2e3 = 0b10000, 0b110
    with pytest.raises(ImageOutsideCodomain, match="image term e1\\^e4 of e5 not"):
        kernel([e5], [e2e3], [[(e5 | e2e3, e5, e5 ^ e2e3)]], [0], 0, [{}], 0, 0, [{}], 0, 0)


def test_block_pivots_image_outside_codomain():
    # e^4 -> e^1^e^2 lowers the degree, so the image of e^4 (degree 4) is
    # not in the degree-4 slice of 2-forms
    domain, codomain = graded_masks(5, 1)[4], graded_masks(5, 2)[4]
    for k, t, text in ((4, 0b11, "e1\\^e2"), (5, 0b11, "e1\\^e2"),  # a message may name e^n
                       (5, 0b11001, "e1\\^e4\\^e5")):  # a term holding e^k itself keeps it
        low = 1 << (k - 1)
        with pytest.raises(ImageOutsideCodomain, match=f"{text} of e{k} not"):
            cohomology._block_pivots(graded_masks(5, 1)[k], graded_masks(5, 2)[k],
                                     [[(low | t, low, low ^ t)]], [0], 0, [{}], 0, 0, [{}], 0, 0)
    # d(e^4) = e^1^e^3, the one 2-form of degree 4: its pivot is position 0,
    # and a member of the same batch with that column cleared has none; no
    # δ-part is stored
    kernel = cohomology._block_pivots
    none = [{}, {}]
    assert kernel(domain, codomain, [[]], [0], 0, [{}], 0, 0, [{}], 0, 0) == ([0b1], [{}])
    assert kernel(domain, codomain, [[], []], [0, 1], 0, none, 0, 0, none, 0, 0) == (
        [0b1, 0], [{}, {}])
    # δ(e^5) = e^2^e^3 over the codomain (e^1^e^4, e^2^e^3), whose e^1-prefix
    # has length 1: the column is 0b11, and its δ-part 0b10 is kept shifted
    # down by 1 at position 0, the column of e^1^e^5 one degree up
    e5, t = 1 << 4, 0b110
    assert kernel(graded_masks(5, 1)[5], graded_masks(5, 2)[5],
                  [[(e5 | t, e5, e5 ^ t)]], [0], 0, [{}], 1, 0, [{}], 0, 0) == ([0b10], [{0: 0b1}])
    # block (2, 6) is (e^1^e^5, e^2^e^4) into (e^1^e^2^e^3): the e^1-column
    # at position 0 is read, never built, and with e^2^e^4 cleared only a
    # member that stored the δ-part of e^5 has a pivot
    assert kernel(graded_masks(5, 2)[6], graded_masks(5, 3)[6], [[], []], [0b10, 0b10],
                  1, [{0: 0b1}, {}], 0, 0, none, 0, 0) == ([0b1, 0], [{}, {}])
    # n = 7: δ(e^7) = e^3^e^4 over the codomain (e^1^e^6, e^2^e^5, e^3^e^4)
    # of block (1, 7) is kept shifted down by the e^1-prefix as 0b10: bit 0
    # is the codomain's R3 (e^2^e^5), bit 1 its R4 (e^3^e^4)
    e7, t = 1 << 6, 0b1100
    assert kernel(graded_masks(7, 1)[7], graded_masks(7, 2)[7],
                  [[(e7 | t, e7, e7 ^ t)]], [0], 0, [{}], 1, 0, [{}], 0, 0) == ([0b100], [{0: 0b10}])
    # block (2, 9) is (e^2^e^7, e^3^e^6, e^4^e^5), with one R3 column, into
    # (e^1^e^2^e^6, e^1^e^3^e^5, e^2^e^3^e^4), whose e^1-prefix has length 2:
    # with the R4 columns cleared, the δ-part of e^2^e^7 is read two degrees
    # down, its R3 bit dropped (``drop`` = 1), as 0b1, and placed over the
    # codomain's R3 as e^2^e^3^e^4; its m0(7) column e^1^e^2^e^6 is added.
    # A member with no stored δ-part has the m0(7) column alone; the read
    # δ-part is kept as the R3 column's own
    assert kernel(graded_masks(7, 2)[9], graded_masks(7, 3)[9], [[], []], [0b110, 0b110],
                  0, none, 2, 1, [{0: 0b10}, {}], 0, 1) == ([0b100, 0b1], [{0: 0b1}, {}])


def test_clearing_skips_the_pivot_columns(monkeypatch):
    # block (k, m) reads or builds only the columns outside the pivots of
    # block (k-1, m): sum over k of C(n, k) - rank d_{k-1} columns in all; a
    # block with every column cleared is not ranked at all
    kernel = cohomology._block_pivots
    built = []

    def counting(masks, codomain, deltas, skips, *store):
        built.append(len(masks) - skips[0].bit_count())
        return kernel(masks, codomain, deltas, skips, *store)

    monkeypatch.setattr(cohomology, "_block_pivots", counting)
    for g in (m0(12), m2(12)):
        built.clear()
        n = g.n
        rank = [comb(n, k) - z for k, z in enumerate(betti(g).z)]
        want = sum(comb(n, k) - (rank[k - 1] if k else 0) for k in range(n + 1))
        assert sum(built) == want < 2 ** n, g
        assert min(built) > 0, g


# live e^2-columns the kernel reads: on one batch per n <= 12 and m2(14), on
# the 14 betti-cold rows one table at a time, and how many of all those have
# a nonzero δ-part (m2(n)'s δ-terms all hold e^2, so none of its reads do)
E2_READS_SMALL, E2_READS_COLD, E2_READS_NONZERO = 10846, 83330, 55084


def recording_kernel(monkeypatch, members):
    """Patch the kernel to check that ``ones`` and ``twos`` cut each block
    into the ranges of ``betti`` (R1 and R2 hold e^1, R3 holds e^2 and not
    e^1, R4 holds neither), and to add to ``members[i]``, a dict of three
    sets, the live masks that member i reads as e^1-columns ("one"), reads
    as e^2-columns ("two") and builds ("built")."""
    kernel = cohomology._block_pivots

    def recording(masks, codomain, deltas, skips, ones, factors, shift,
                  twos, seconds, lift, drop):
        threes = ones + twos
        assert all(x & 1 for x in masks[:ones])
        assert all(x & 3 == 2 for x in masks[ones:threes])
        assert not any(x & 3 for x in masks[threes:])
        for mine, skip in zip(members, skips):
            for r, x in enumerate(masks):
                if not skip >> r & 1:
                    mine["one" if r < ones else "two" if r < threes else "built"].add(x)
        return kernel(masks, codomain, deltas, skips, ones, factors, shift,
                      twos, seconds, lift, drop)

    monkeypatch.setattr(cohomology, "_block_pivots", recording)


def test_every_built_e1_column_has_its_factor_built_one_level_down(monkeypatch):
    """Each e^1-column the kernel reads at level k has its e^1-free factor
    live at level k - 1, built or read as an e^2-column, so it is read off
    that column's δ-part (``betti``).

    Proof.  Let x be free of e^1 and cleared at level k - 1.  Then x leads a
    pivot v = d(w).  So e^1^v = d(e^1^w) is exact (d(e^1) = 0), and its
    leading position is e^1^x: e^1^ kills the terms of v that hold e^1, and
    within each bucket the masks holding e^1 come first, in the order of
    their e^1-free factors (``graded_masks``), so y -> e^1^y keeps the
    order of the other terms, of which x is the last.  The pivots one level
    up are an echelon basis of the exact forms with distinct leading
    positions, so every nonzero exact form leads with one of them: e^1^x is
    cleared at level k.  So an e^1-column that is read has a factor that
    was not cleared, in a block the kernel ranked.  The count includes e^1
    itself at k = 1, one per algebra, whose factor is the empty monomial
    at k = 0.
    """
    members = []
    recording_kernel(monkeypatch, members)
    checked = 0
    for batch in [fresh(n) for n in range(5, 13)] + [[m2(14)]]:
        members[:] = [{"one": set(), "two": set(), "built": set()} for _ in batch]
        cohomology.betti_tables(batch)
        for g, mine in zip(batch, members):
            live = mine["two"] | mine["built"]
            assert [x for x in mine["one"] if x ^ 1 not in live] == [], g
            checked += len(mine["one"])
    assert checked == 18790


def test_every_e2_column_read_has_its_factor_built_two_degrees_down(monkeypatch):
    """Each e^2-column e^2^x the kernel reads at level k has its factor x,
    free of e^1 and e^2, built at level k - 1, so its δ-part is read off
    x's (``betti``).  The proof is that of the e^1-columns, with e^2^ in
    place of e^1^: x sits in the last range R4 of its bucket, so every
    other term of a pivot v that x leads lies below it, and e^2^ maps R2
    onto R1 and R4 onto R3, in order, and kills R1 and R3.  The count
    includes e^2 itself at k = 1, one per algebra, whose factor is the
    empty monomial, built at k = 0.
    """
    members = []
    recording_kernel(monkeypatch, members)
    checked = 0
    for batch in [fresh(n) for n in range(5, 13)] + [[m2(14)]]:
        members[:] = [{"one": set(), "two": set(), "built": set()} for _ in batch]
        cohomology.betti_tables(batch)
        for g, mine in zip(batch, members):
            assert [x for x in mine["two"] if x ^ 2 not in mine["built"]] == [], g
            assert 2 in mine["two"] and 0 in mine["built"], g
            checked += len(mine["two"])
    assert checked == E2_READS_SMALL


def betti_cold_rows():
    """The rows the benchmark's ``betti-cold`` workload ranks: every fourth
    pool row of n = 14, 15 and 16."""
    pool = json.loads(BETTI_POOL.read_text())
    return [entry["row"] for n in ("14", "15", "16") for entry in pool[n][::4]]


def read_batches():
    """One batch per n <= 12, m2(14), and the 14 betti-cold rows one table
    at a time."""
    small = [fresh(n) for n in range(5, 13)] + [[m2(14)]]
    cold = [[from_row(row)] for row in betti_cold_rows()]
    assert len(cold) == 14
    return small + cold


def test_every_e1_column_read_equals_its_column(monkeypatch):
    # each e^1-column the kernel reads from a store equals d(e^1^x) built
    # term by term from the algebra's Derivation, on one batch per n <= 12,
    # on m2(14) and on the 14 betti-cold rows one table at a time; each
    # block's reads are checked before the kernel uses them
    kernel = cohomology._block_pivots
    members, reads = [], []

    def checking(masks, codomain, deltas, skips, ones, factors, shift, *rest):
        row = {mask: r for r, mask in enumerate(codomain)}
        for (g, d), skip, factor in zip(members, skips, factors):
            for r in range(ones):
                if not skip >> r & 1:
                    want = sum(1 << row[t] for t in d.apply_mask(masks[r]))
                    assert factor.get(r, 0) == want, (g, masks[r])
                    reads.append(g)
        return kernel(masks, codomain, deltas, skips, ones, factors, shift, *rest)

    monkeypatch.setattr(cohomology, "_block_pivots", checking)
    for batch in read_batches():
        members[:] = [(g, differential(g)) for g in batch]
        cohomology.betti_tables(batch)
    assert len(reads) == 18790 + 109420


def test_every_e2_column_read_equals_its_column(monkeypatch):
    # each e^2-column's δ-part the kernel reads two degrees down, dropped by
    # ``drop`` and placed at ``shift``, equals the part of d(e^2^x) free of
    # e^1, built term by term from the algebra's Derivation, on the same
    # batches, and the kernel keeps what it read; the rest of d(e^2^x) is
    # e^1^e^2^L(x), its m0(n) column
    kernel = cohomology._block_pivots
    members, reads, nonzero = [], [], []

    def checking(masks, codomain, deltas, skips, ones, factors, shift,
                 twos, seconds, lift, drop):
        row = {mask: r for r, mask in enumerate(codomain)}
        wants = []
        for (g, d), skip, second in zip(members, skips, seconds):
            for r in range(ones, ones + twos):
                if not skip >> r & 1:
                    want = sum(1 << row[t] for t in d.apply_mask(masks[r]) if not t & 1)
                    assert second.get(r + lift, 0) >> drop << shift == want, (g, masks[r])
                    wants.append((g, r, want))
                    reads.append(g)
                    if want:
                        nonzero.append(g)
        found, stores = kernel(masks, codomain, deltas, skips, ones, factors, shift,
                               twos, seconds, lift, drop)
        # the kernel keeps the δ-part it read as the column's own
        mine = dict(zip((g for g, _ in members), stores))
        for g, r, want in wants:
            assert mine[g].get(r - ones, 0) << shift == want, (g, masks[r])
        return found, stores

    monkeypatch.setattr(cohomology, "_block_pivots", checking)
    for batch in read_batches():
        members[:] = [(g, differential(g)) for g in batch]
        cohomology.betti_tables(batch)
    assert len(reads) == E2_READS_SMALL + E2_READS_COLD
    assert len(nonzero) == E2_READS_NONZERO and m2(14) in reads and m2(14) not in nonzero


def test_graded_tables_to_n16_are_pinned():
    # every enumerated algebra with n = 5..16, one batch per n, against the
    # digest of their tables, and b for n = 14..16 against the benchmark's
    # reference pool, which an older rank path wrote
    digest = hashlib.sha256()
    b = {}
    for n in range(5, 17):
        batch = fresh(n)
        for g, t in zip(batch, cohomology.betti_tables(batch)):
            digest.update(repr((n, g.rows, t.b, sorted(t.graded.items()), t.z)).encode())
            b[str(g.row())] = t.b
    assert len(b) == 112
    assert digest.hexdigest() == "d4acc22535616c2cf892f0aae7b74f85ed787ecf9701e74f3f6f7786609f4cd1"
    pool = json.loads(BETTI_POOL.read_text())
    rows = [entry for n in ("14", "15", "16") for entry in pool[n]]
    assert len(rows) == 52
    assert [b[entry["row"]] for entry in rows] == [tuple(entry["betti"]) for entry in rows]


def test_graded_entries_ascend_in_k_then_m():
    # the pass ranks degree by degree, but each table lists its graded
    # entries, and so its repr and its violations(), in (k, m) order
    batch = fresh(11)
    tables = cohomology.betti_tables(batch)
    for g, t in zip(batch, tables):
        assert list(t.graded) == sorted(t.graded), g
    # the degree-major order of the pass differs on every table
    assert all(list(t.graded) != sorted(t.graded, key=lambda km: km[::-1]) for t in tables)


def test_delta_read_off_the_rows_is_the_stripped_differential():
    # bit j of rows[i] is the term e^i^e^j of δ(e^{i+j}); the oracle strips
    # e^1^e^{k-1} from each image of the built differential instead
    algebras = [g for n in range(5, 17) for g in enumerate_algebras(n)] + [m0(64), m2(64)]
    for g in algebras:
        assert sorted(cohomology._delta_terms(g)) == sorted(delta_by_strip(g)), g
    assert cohomology._delta_terms(m0(64)) == []
    assert len(cohomology._delta_terms(m2(64))) == 64 - 4


def test_degree_breaking_differential_is_refused(monkeypatch):
    # nothing is cleared at k = 1, so every generator column is built there
    # and a generator image that is not a 2-factor monomial of the
    # generator's degree raises before any column is skipped
    real = cohomology._delta_terms
    e6 = 1 << 5
    for bad in (parse_form("e2^e3", 6), parse_form("e1^e2^e3", 6)):
        (t,) = bad.terms  # one more term of δ(e^6), as a _delta_terms triple
        injected = lambda g, t=t: real(g) + [(e6 | t, e6, e6 ^ t)]
        monkeypatch.setattr(cohomology, "_delta_terms", injected)
        g = m0(6)
        with pytest.raises(ImageOutsideCodomain, match="of e6 not in codomain"):
            betti(g)
        assert g._betti is None
        # one member raises, so no algebra gets a table: not the members
        # that would pass, nor the n = 5 batch ranked before it
        monkeypatch.setattr(cohomology, "_delta_terms",
                            lambda g, injected=injected: injected(g) if g == m2(6) else real(g))
        batch = [m0(5), m2(5), m0(6), m2(6)]
        with pytest.raises(ImageOutsideCodomain, match="of e6 not in codomain"):
            cohomology.betti_tables(batch)
        assert [h._betti for h in batch] == [None] * 4


def test_betti_ranks_each_table_once(monkeypatch):
    # the first call ranks the 299 graded blocks of m2(12) in one pass,
    # 235 of them by the block kernel (the other 64 have every column
    # cleared); every later call on the same algebra reads the cached table
    kernel = cohomology._block_pivots
    calls = []

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(cohomology, "_block_pivots", counting)
    assert sum(len(graded_masks(12, k)) for k in range(13)) == 299
    g = m2(12)
    table = betti(g)
    assert len(calls) == 235
    assert betti(g) is table and len(calls) == 235
    assert betti(m2(12)) == table and len(calls) == 2 * 235


def test_betti_tables_batches_by_dimension(monkeypatch):
    batches = count_batches(monkeypatch)
    assert cohomology.betti_tables([]) == [] and batches == []
    # a batch that mixes dimensions is ranked one dimension at a time
    mixed = [m2(7), m0(6), m0(7), m2(6), m2(7)]
    tables = cohomology.betti_tables(mixed)
    assert [[(g.n, g.row()) for g in b] for b in batches] == [
        [(7, m2(7).row()), (7, m0(7).row())], [(6, m0(6).row()), (6, m2(6).row())]]
    assert tables == [betti(m2(7)), betti(m0(6)), betti(m0(7)), betti(m2(6)), betti(m2(7))]
    # two distinct but equal instances are ranked once and share the table
    assert mixed[0] is not mixed[4] and tables[0] is tables[4] is mixed[4]._betti
    # a member that holds a table is not ranked again, nor an equal one
    batches.clear()
    again = [mixed[1], m0(6), m2(8)]
    tables = cohomology.betti_tables(again)
    assert batches == [(m2(8),)]
    assert tables[0] is tables[1] is mixed[1]._betti and again[1]._betti is tables[1]
    assert cohomology.betti_tables(again) == tables and len(batches) == 1


def test_a_batch_builds_each_m0_column_once(monkeypatch):
    # the 18 algebras of n = 16 share each block's m0(16) columns: a column
    # is built for a position the first time a member reads it, and never
    # again in the batch, while the members read it far more often
    for k in range(17):
        graded_masks(16, k)
    real = cohomology._m0_column
    built = []

    def counting(mask, row):
        built.append(mask)
        return real(mask, row)

    monkeypatch.setattr(cohomology, "_m0_column", counting)
    batch = fresh(16)
    tables = cohomology.betti_tables(batch)
    assert len(batch) == 18 and len(built) == len(set(built))
    read = sum(comb(16, k) - (r[k - 1] if k else 0)
               for r in ([comb(16, k) - z for k, z in enumerate(t.z)] for t in tables)
               for k in range(17))
    assert len(built) < read / 10


def test_graded_betti_examples():
    graded = betti(m0(5)).graded
    assert graded[(1, 1)] == graded[(1, 2)] == graded[(0, 0)] == 1
    for m in range(0, 20):
        if m not in (1, 2):
            assert (1, m) not in graded
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


def _moved_unit(table, k, m, to):
    """The table with one unit of dim H^k_m moved to degree ``to``."""
    graded = dict(table.graded)
    graded[(k, m)] -= 1
    graded[(k, to)] = graded.get((k, to), 0) + 1
    return cohomology.BettiTable(table.n, table.b, {km: v for km, v in graded.items() if v},
                                 table.z)


def test_euler_identity_names_a_moved_degree():
    # moving a unit within one k keeps every sum per k, so only the Euler
    # characteristic of the two degrees can see it
    table = betti(m0(6))
    assert table.violations() == []
    for k, m, to in ((1, 1, 3), (3, 9, 12), (4, 16, 14)):
        moved = _moved_unit(table, k, m, to)
        assert moved.b == table.b
        assert sorted(moved.violations()) == sorted(
            f"Euler characteristic in degree {d} off by {e}"
            for d, e in ((m, -(-1) ** k), (to, (-1) ** k))), (k, m, to)


def _without_the_exact_part(g):
    """g's table with entries |C^k_m| - rank(k, m), dim Z^k_m, which miss
    the rank(k-1, m) term."""
    n, d, table = g.n, differential(g), betti(g)
    cocycles = {}
    for k in range(n + 1):
        for m in graded_masks(n, k):
            columns = matrix_of(d, monomials(n, k, m), monomials(n, k + 1, m))
            if z := len(columns) - rank_naive(columns):
                cocycles[(k, m)] = z
    return cohomology.BettiTable(n, table.b, cocycles, table.z)


def test_graded_table_without_the_exact_part_is_caught():
    bad = _without_the_exact_part(m2(7)).violations()
    assert any(v.startswith("graded sum ") for v in bad)
    assert any(v.startswith("Euler characteristic in degree ") for v in bad)


def test_chain_euler_is_the_signed_bucket_count():
    # prod (1 - q^i) counts the k-subsets of {1..n} by index sum, signed by k
    for n in range(1, 17):
        chain = cohomology._chain_euler(n)
        assert type(chain) is tuple and len(chain) == n * (n + 1) // 2 + 1
        recount = [0] * len(chain)
        for k in range(n + 1):
            for m, masks in graded_masks(n, k).items():
                recount[m] += (-1) ** k * len(masks)
        assert list(chain) == recount, n
        assert cohomology._chain_euler(n) is chain  # built once per n


def _changed(table, rng):
    """``table`` with one to three seeded changes to its graded entries and
    its b: a value moved, an entry added (its k or m possibly out of range,
    its value possibly negative), an entry dropped, or a b_k moved."""
    n = table.n
    graded, b = dict(table.graded), list(table.b)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            km = rng.choice(sorted(graded))
            graded[km] += rng.choice((-2, -1, 1))
        elif kind == 1:
            km = rng.randint(0, n + 1), rng.randint(-1, n * (n + 1) // 2 + 1)
            graded[km] = graded.get(km, 0) + rng.choice((-1, 1, 2))
        elif kind == 2:
            del graded[rng.choice(sorted(graded))]
        else:
            b[rng.randrange(n + 1)] += rng.choice((-2, -1, 1))
    return cohomology.BettiTable(n, b, graded, table.z)


def test_violations_match_the_bucket_recount():
    # the Euler side read off prod (1 - q^i) gives the messages, in their
    # order, that recounting the buckets gives: on sound tables, on the
    # corrupted tables of the tests above, and on seeded random changes
    sound = [betti(g) for n in range(5, 13) for g in enumerate_algebras(n)]
    moved = [_moved_unit(betti(m0(6)), k, m, to) for k, m, to in ((1, 1, 3), (3, 9, 12), (4, 16, 14))]
    rng = random.Random(33)
    changed = [_changed(rng.choice(sound[:20]), rng) for _ in range(300)]
    for table in sound + moved + [_without_the_exact_part(m2(7))] + changed:
        assert table.violations() == violations_by_recount(table), table
    assert all(not table.violations() for table in sound)
    assert sum(bool(table.violations()) for table in changed) > 250


def _with_entries(table, entries):
    """``table`` with the graded ``entries`` set, zeros and out-of-range
    keys included."""
    return cohomology.BettiTable(table.n, table.b, {**table.graded, **entries}, table.z)


def test_graded_duality_matches_the_lookup():
    # the one comparison with the mirrored mapping decides as the lookup of
    # each entry's mirror does: on sound tables, seeded random changes,
    # explicit zero entries and keys out of range
    sound = [betti(g) for n in range(5, 13) for g in enumerate_algebras(n)]
    rng = random.Random(36)
    changed = [_changed(rng.choice(sound[:20]), rng) for _ in range(300)]
    t = betti(m2(8))
    n, top = t.n, 36
    k, m = min(t.graded)
    edited = [
        _with_entries(t, {(3, 1): 0}),  # a zero whose mirror is absent
        _with_entries(t, {(3, 1): 0, (5, 35): 0}),  # a zero and its zero mirror
        _with_entries(t, {(n - k, top - m): 0}),  # a zero against a nonzero mirror
        _with_entries(t, {(k, m): 0}),  # a zero against a nonzero mirror, other side
        _with_entries(t, {(n + 1, -1): 2, (-1, top + 1): 2}),  # out of range, mirrored
        _with_entries(t, {(n + 1, -1): 2}),  # out of range, alone
        _with_entries(t, {(n + 1, -1): 0, (0, top + 2): 0}),  # out of range, zero
    ]
    verdicts = []
    for table in sound + changed + edited:
        verdicts.append(graded_duality_by_lookup(table))
        assert cli._graded_dual(table) == verdicts[-1], table
    assert all(verdicts[:len(sound)])
    assert 0 < sum(verdicts[len(sound):-len(edited)]) < len(changed)
    assert verdicts[-len(edited):] == [True, True, False, False, True, False, True]


def test_model_tables_above_n16_are_pinned():
    # the tables of m0(n) and m2(n) for n = 17..19, ranked in one batch per
    # n, against the digests the rank path printed when they were pinned
    want = {
        17: "37d331b6da37721cbaba60ef5393ff5d834307c44b770b770735948e982227c5",
        18: "70f6370862b8dc2773ec271938b59a7d0cfa8702f5dc04b5adf99563d04e2a7c",
        19: "431531654de21c00c4330592c2adf09f6580095d41fe059655af3345eaeefa31",
    }
    for n, digest in want.items():
        batch = (m0(n), m2(n))
        tables = cohomology.betti_tables(batch)
        assert tables[0].b == tables[1].b, n
        hashed = hashlib.sha256()
        for g, t in zip(batch, tables):
            hashed.update(repr((n, g.rows, t.b, sorted(t.graded.items()), t.z)).encode())
        assert hashed.hexdigest() == digest, n


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


def no_monomial_check(*args):
    raise AssertionError("per-monomial check reached")


def test_differential_has_the_shape_the_square_reads():
    # d(e^1) = d(e^2) = 0 and d(e^k) = e^1^e^{k-1} + the c_{i,j} e^i^e^j
    # with i + j = k, on every algebra the library builds: enumerated,
    # truncated and partnered.  The c-table test of square_failures rests
    # on this shape, and each partner pair passes that test.
    family = [g for n in range(5, 17) for g in enumerate_algebras(n)]
    mate = partners(family)
    assert len(family) == 112
    algebras = set(family) | set(mate.values())
    algebras |= {_truncation(g, m) for g in family for m in range(5, g.n)}
    for g in algebras:
        want = {k: frozenset({1 | 1 << (k - 2)} | {1 << (i - 1) | 1 << (j - 1)
                                                  for i, j in g.c if i + j == k})
                for k in range(3, g.n + 1)}
        assert dict(differential(g).images) == want, g
        assert {k: frozenset(_image(g.rows, k)) for k in want} == want, g
    for g in family:
        assert g.c ^ mate[g].c == m2(g.n).c, g


def test_commuting_square_models(monkeypatch):
    # every partner pair, m0(n) ~ m2(n) and m2(n) ~ m0(n) among them, at
    # every k, against the Form-level oracle; decided from the c-tables,
    # so no monomial is checked
    monkeypatch.setattr(cohomology, "_square_holds", no_monomial_check)
    for n in range(5, 11):
        for g in enumerate_algebras(n):
            p = partner(g)
            for k in range(2, n + 1):
                assert verify_commuting_square(g, p, k) is True, (g, k)
                assert commuting_square_holds(g, p, k), (g, k)


def test_commuting_square_models_by_monomials(monkeypatch):
    # the same pairs through the per-monomial check, which the c-table test
    # otherwise skips: every basis k-monomial of every k >= 2 is checked,
    # with f applied once on each side
    checked = []
    involution_masks = cohomology._involution_masks

    def counted(masks):
        checked.append(1)
        return involution_masks(masks)

    monkeypatch.setattr(cohomology, "_involution_masks", counted)
    for n in range(5, 11):
        for g in enumerate_algebras(n):
            d1, d2 = differential(g), differential(partner(g))
            for k in range(2, n + 1):
                assert cohomology._square_holds(d1, d2, n, k), (g, k)
    assert len(checked) == 2 * sum(2 ** n - n - 1 for n in range(5, 11)
                                   for _ in enumerate_algebras(n))


def test_commuting_square_agrees_with_oracle_on_all_ordered_pairs():
    # every ordered pair with n <= 9, the models and partners among them,
    # at every k; the c-table test holds exactly when every k does
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
                tables = g1.c ^ g2.c == m2(n).c
                assert tables == all(verdicts) == (g2 == partner(g1)), (g1, g2)
                held += tables
                failed += verdicts.count(False)
    assert held == sum(len(enumerate_algebras(n)) for n in range(5, 10)) == 18
    # 58 of the 76 pairs fail, in 298 (pair, k) squares
    assert failed == 298, failed


def test_square_failures_equal_the_per_k_verdicts(monkeypatch):
    # every ordered pair with n <= 9, plus the models up to 12: the pair-level
    # answer is the list of k where the Form-level oracle finds a failing
    # monomial, and the pairs that are not partners reach the per-monomial
    # check at every k
    reached = []
    square_holds = cohomology._square_holds

    def counted(d1, d2, n, k):
        reached.append(k)
        return square_holds(d1, d2, n, k)

    monkeypatch.setattr(cohomology, "_square_holds", counted)
    pairs = [(g1, g2) for n in range(5, 10) for g1 in enumerate_algebras(n)
             for g2 in enumerate_algebras(n)]
    pairs += [(a(n), b(n)) for n in range(10, 13) for a in (m0, m2) for b in (m0, m2)]
    for g1, g2 in pairs:
        reached.clear()
        got = square_failures(g1, g2)
        mates = g2 == partner(g1)
        assert reached == ([] if mates else list(range(2, g1.n + 1))), (g1, g2)
        assert type(got) is tuple and (got == ()) == mates, (g1, g2)
        assert list(got) == [k for k in range(2, g1.n + 1)
                             if commuting_square_failures(g1, g2, k)], (g1, g2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        square_failures(m0(5), m0(6))


def test_tables_and_the_square_refuse_a_non_algebra_by_name(monkeypatch):
    # a non-algebra fails its first attribute read, which names it, before
    # any block is ranked or any differential built
    def work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cohomology, "_rank", work)
    monkeypatch.setattr(cohomology, "differential", work)
    for call, junk in ((lambda: betti(None), None),
                       (lambda: cohomology.betti_tables(["6"]), "6"),
                       (lambda: cohomology.betti_tables([m2(7), "x"]), "x"),
                       (lambda: square_failures(None, m2(6)), None),
                       (lambda: square_failures(m2(6), "x"), "x"),
                       (lambda: verify_commuting_square(m0(6), None, 2), None)):
        with pytest.raises(TypeError, match=f"^not a VergneAlgebra: {junk!r}$"):
            call()


def test_diagrams_decide_each_pair_once(monkeypatch, capsys):
    # 52 pairs at --max-dim 12: each is decided by one square_failures call,
    # and none reaches the per-monomial check
    calls = []

    def once(g1, g2):
        calls.append((g1, g2))
        return square_failures(g1, g2)

    monkeypatch.setattr(cohomology, "_square_holds", no_monomial_check)
    monkeypatch.setattr(cli, "square_failures", once)
    assert cli.main(["verify", "--suite", "diagrams", "--max-dim", "12"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert sum(line.startswith("diagrams n=") for line in out.splitlines()) == 52
    assert len(calls) == 52


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


def test_commuting_square_refuses_a_dimension_mismatch_before_k(monkeypatch):
    # the mismatch is named first, whatever k is, then k, and both before
    # the square is looked at
    def work(*args):
        raise AssertionError("square checked")

    monkeypatch.setattr(cohomology, "square_failures", work)
    for k in (2, 6, 1, 2.5):
        with pytest.raises(ValueError, match="^dimension mismatch: 5 != 6$"):
            verify_commuting_square(m0(5), m0(6), k)
    with pytest.raises(ValueError, match="topological degree must be in 2..5, got 6"):
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
    assert table.to_json_dict() == {
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


def test_cached_differential_and_values_refuse_changes():
    # the algebra keeps its rows and no differential: differential(g) builds
    # a fresh Derivation with the same images on each call, and neither it
    # nor the algebra's fields may be changed in place
    g = m0(7)
    d = differential(g)
    assert not hasattr(g, "_diff")
    again = differential(g)
    assert again is not d and dict(again.images) == dict(d.images)
    with pytest.raises(TypeError):
        d.images[7] = frozenset()
    with pytest.raises(TypeError):
        del d.images[7]
    # images is a fresh read-only view of the one table on each read
    assert type(d.images) is MappingProxyType and d.images is not d.images
    assert type(d._table) is dict
    for name in ("images", "ambient", "_table"):
        with pytest.raises(AttributeError):
            setattr(d, name, {})
        with pytest.raises(AttributeError):
            delattr(d, name)
    row = g.row()
    assert g._row is row
    for value, name in ((parse_form("e1^e2", 7), "terms"), (row, "bits"), (g, "c"),
                        (g, "rows"), (g, "_betti"), (g, "_row")):
        with pytest.raises(AttributeError):
            delattr(value, name)
    for name in ("c", "rows"):
        with pytest.raises(AttributeError):
            setattr(g, name, ())
    assert type(g.rows) is tuple and type(g.c) is frozenset
    assert dict(differential(g).images) == dict(d.images)
    assert betti(g).b == (1, 2, 4, 7, 7, 4, 2, 1)
    assert betti(g) == betti(m0(7)) and row == m0(7).row()


def test_derivation_table_is_its_images():
    # the table apply_masks reads is the differential's
    # images, one (bit of e^i, images of e^i) entry per nonzero generator
    for n in range(5, 15):
        for g in enumerate_algebras(n):
            d = differential(g)
            assert {bit.bit_length(): imgs for bit, imgs in d._table.items()} == dict(d.images), g
            assert len(d._table) == len(d.images), g
            assert all(bit.bit_count() == 1 and imgs for bit, imgs in d._table.items()), g


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


def test_a_table_of_the_wrong_length_is_refused():
    # violations() reads b_k and z_k for k = 0..n, so any other length is
    # refused on construction, with both lengths and n + 1 named
    table = betti(m0(6))
    for b, z, got in (([1, 2], [], "2 and 0"), (table.b, table.z[:-1], "7 and 6"),
                      ((*table.b, 0), table.z, "8 and 7")):
        with pytest.raises(ValueError, match=f"^b and z need 7 entries, got {got}$"):
            cohomology.BettiTable(6, b, {}, z)
    assert cohomology.BettiTable(6, table.b, table.graded, table.z) == table


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
