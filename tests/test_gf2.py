"""Packed GF(2) elimination against the naive unpacked oracle."""

import random

from hypothesis import given, settings, strategies as st

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


@st.composite
def bitmatrices(draw):
    rows = draw(st.integers(0, 10))
    cols = draw(st.integers(0, 10))
    data = [draw(st.integers(0, (1 << cols) - 1)) if cols else 0 for _ in range(rows)]
    return data, cols


@settings(max_examples=150, deadline=None, derandomize=True)
@given(bitmatrices())
def test_rank_properties(matrix):
    m, cols = matrix
    r = rank(m)
    assert r == rank_naive(m)
    assert r == rank(transpose(m, cols))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bitmatrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(matrix, rnd):
    m, _ = matrix
    if len(m) < 2:
        return
    shuffled = list(m)
    rnd.shuffle(shuffled)
    assert rank(shuffled) == rank(m)
    i, j = rnd.randrange(len(m)), rnd.randrange(len(m))
    if i != j:
        added = list(m)
        added[j] ^= added[i]
        assert rank(added) == rank(m)


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
