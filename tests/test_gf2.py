"""Packed GF(2) elimination against the naive unpacked oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from vergne.gf2 import BitMatrix, kernel_basis, rank, solve_affine

from helpers import matvec, random_bitmatrix
from oracles import rank_naive


def test_identity_rank():
    assert rank(BitMatrix.identity(3)) == 3
    assert rank_naive(BitMatrix.identity(3)) == 3


def test_all_ones_rank():
    m = BitMatrix.from_rows([[1, 1], [1, 1]])
    assert rank(m) == 1
    assert rank_naive(m) == 1


def test_zero_matrix():
    assert rank_naive(BitMatrix(4, 7)) == 0
    assert rank(BitMatrix(4, 7)) == 0


def test_empty_matrices():
    assert rank(BitMatrix(0, 5)) == 0
    assert rank(BitMatrix(5, 0)) == 0
    assert rank(BitMatrix(0, 0)) == 0


def test_rank_bounds_and_copy_semantics():
    rng = random.Random(7)
    m = random_bitmatrix(rng, 30, 30)
    snapshot = list(m.data)
    r = rank(m)
    assert m.data == snapshot
    assert 0 <= r <= min(m.rows, m.cols)
    rank_naive(m)
    assert m.data == snapshot


def test_packed_matches_naive_random():
    rng = random.Random(20240917)
    for _ in range(400):
        m = random_bitmatrix(rng, 24, 24)
        assert rank(m) == rank_naive(m)


def test_packed_matches_naive_midsize():
    rng = random.Random(5)
    m = random_bitmatrix(rng, 100, 120)
    assert rank(m) == rank_naive(m)
    m = random_bitmatrix(rng, 80, 80)
    assert rank(m) == rank_naive(m)


@st.composite
def bitmatrices(draw):
    rows = draw(st.integers(0, 10))
    cols = draw(st.integers(0, 10))
    data = [draw(st.integers(0, (1 << cols) - 1)) if cols else 0 for _ in range(rows)]
    return BitMatrix(rows, cols, data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(bitmatrices())
def test_rank_properties(m):
    r = rank(m)
    assert r == rank_naive(m)
    assert r == rank(m.transpose())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bitmatrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(m, rnd):
    if m.rows < 2:
        return
    shuffled = list(m.data)
    rnd.shuffle(shuffled)
    assert rank(BitMatrix(m.rows, m.cols, shuffled)) == rank(m)
    i, j = rnd.randrange(m.rows), rnd.randrange(m.rows)
    if i != j:
        added = list(m.data)
        added[j] ^= added[i]
        assert rank(BitMatrix(m.rows, m.cols, added)) == rank(m)


def test_kernel_basis_spans_kernel():
    rng = random.Random(99)
    for _ in range(200):
        m = random_bitmatrix(rng, 16, 16)
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert matvec(m, v) == 0
        # independence: the basis vectors form a full-rank matrix
        stacked = BitMatrix(len(basis), m.cols, basis)
        assert rank(stacked) == len(basis)


def test_solve_affine_against_brute_force():
    rng = random.Random(4)
    for _ in range(150):
        m = random_bitmatrix(rng, 7, 7)
        b = rng.getrandbits(m.rows) if m.rows else 0
        expected = {v for v in range(1 << m.cols) if matvec(m, v) == b}
        got = solve_affine(m, b)
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


def test_from_rows_round_trip():
    rows = [[1, 0, 1], [0, 1, 1]]
    m = BitMatrix.from_rows(rows)
    assert m.to_rows() == rows
    assert m.transpose().to_rows() == [[1, 0], [0, 1], [1, 1]]


def test_constructor_validation():
    with pytest.raises(ValueError):
        BitMatrix(2, 2, [4, 0])  # bit outside the column range
    with pytest.raises(ValueError):
        BitMatrix(2, 2, [0])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[2, 0]])
    with pytest.raises(ValueError):
        BitMatrix(-1, 2)
