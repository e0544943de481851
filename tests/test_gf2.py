"""Packed GF(2) elimination against the naive unpacked oracle."""

import random
from itertools import product

from vergne.gf2 import echelon, rank, solve_affine

from helpers import matvec, random_matrix, transpose
from oracles import rank_naive


def test_identity_rank():
    assert rank([0b001, 0b010, 0b100]) == 3
    assert rank_naive([0b001, 0b010, 0b100]) == 3


def test_all_ones_rank():
    m = [0b11, 0b11]
    assert rank(m) == 1
    assert rank_naive(m) == 1


def test_zero_matrix():
    assert rank_naive([0] * 4) == 0
    assert rank([0] * 4) == 0


def test_empty_matrices():
    assert rank([]) == 0
    assert rank([0] * 5) == 0
    assert rank_naive([]) == 0


def test_rank_bounds_and_copy_semantics():
    rng = random.Random(7)
    m, cols = random_matrix(rng, 30, 30)
    snapshot = list(m)
    r = rank(m)
    assert m == snapshot
    assert 0 <= r <= min(len(m), cols)
    rank_naive(m)
    assert m == snapshot


def test_echelon_keys_are_distinct_leading_bits():
    rng = random.Random(13)
    for _ in range(100):
        m, cols = random_matrix(rng, 20, 20)
        pivots = echelon(m)
        assert all(top == v.bit_length() for top, v in pivots.items())
        assert len(pivots) == rank_naive(m)
        # every input reduces to zero against the echelon basis
        for v in m:
            while v:
                v ^= pivots[v.bit_length()]


def test_packed_matches_naive_random():
    rng = random.Random(20240917)
    for _ in range(400):
        m, _ = random_matrix(rng, 24, 24)
        assert rank(m) == rank_naive(m)


def test_packed_matches_naive_midsize():
    rng = random.Random(5)
    m, _ = random_matrix(rng, 100, 120)
    assert rank(m) == rank_naive(m)
    m, _ = random_matrix(rng, 80, 80)
    assert rank(m) == rank_naive(m)


def bitmatrices(seed):
    """Seeded draws of every shape rows x cols in 0..10 x 0..10, two per
    shape: one with uniform rows, and one whose rows are each 0, all ones
    or uniform, so that zero and repeated rows are common.  242 matrices,
    each as (rows as ints, cols)."""
    rng = random.Random(seed)
    for rows, cols in product(range(11), repeat=2):
        full = (1 << cols) - 1
        yield [rng.getrandbits(cols) for _ in range(rows)], cols
        yield [rng.choice((0, full, rng.getrandbits(cols))) for _ in range(rows)], cols


def test_rank_properties():
    matrices = list(bitmatrices(150))
    assert len(matrices) == 242
    for m, cols in matrices:
        r = rank(m)
        assert r == rank_naive(m), (m, cols)
        assert r == rank(transpose(m, cols)), (m, cols)


def test_rank_invariant_under_row_ops():
    rnd = random.Random(100)
    for m, _ in bitmatrices(101):
        if len(m) < 2:
            continue
        shuffled = list(m)
        rnd.shuffle(shuffled)
        assert rank(shuffled) == rank(m), m
        i, j = rnd.randrange(len(m)), rnd.randrange(len(m))
        if i != j:
            added = list(m)
            added[j] ^= added[i]
            assert rank(added) == rank(m), m


def test_kernel_basis_spans_kernel():
    rng = random.Random(99)
    for _ in range(200):
        m, cols = random_matrix(rng, 16, 16)
        basis = solve_affine(transpose(m, cols), 0)[1]
        assert len(basis) == cols - rank(m)
        for v in basis:
            assert 0 < v < 1 << cols
            assert matvec(m, v) == 0
        # independence: the basis vectors have full rank
        assert rank(basis) == len(basis)


def test_solve_affine_against_brute_force():
    rng = random.Random(4)
    for _ in range(150):
        m, cols = random_matrix(rng, 7, 7)
        b = rng.getrandbits(len(m)) if m else 0
        expected = {v for v in range(1 << cols) if matvec(m, v) == b}
        got = solve_affine(transpose(m, cols), b)
        if got is None:
            assert expected == set()
            continue
        particular, kernel = got
        solutions = set()
        for combo in range(1 << len(kernel)):
            x = particular
            for t, kv in enumerate(kernel):
                if (combo >> t) & 1:
                    x ^= kv
            solutions.add(x)
        assert solutions == expected
