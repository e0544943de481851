"""Dense exact linear algebra over the two-element field.

Rows are bit-packed into Python integers (bit ``c`` of a row is the entry
in column ``c``), so a row operation is a single XOR.

Everything here is pure and operates on immutable snapshots of the input,
so concurrent use is safe.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "BitMatrix",
    "rank",
    "kernel_basis",
    "solve_affine",
]


class BitMatrix:
    """A rows x cols matrix over GF(2), one Python int per row.

    Bit order is little-endian within the row word: column ``c`` lives at
    bit ``c``.  Bits at positions >= cols are kept at zero.  Empty matrices
    (0 rows or 0 columns) are valid and have rank 0.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * rows
        else:
            if len(data) != rows:
                raise ValueError(f"expected {rows} rows, got {len(data)}")
            mask = (1 << cols) - 1
            for r in data:
                if r < 0 or r & ~mask:
                    raise ValueError("row has bits outside the column range")
            self.data = list(data)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "BitMatrix":
        """Build from a list of 0/1 lists."""
        if cols is None:
            cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            bits = 0
            for c, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                if v:
                    bits |= 1 << c
            packed.append(bits)
        return cls(len(rows), cols, packed)

    @classmethod
    def from_columns(cls, rows: int, column_masks: Sequence[int]) -> "BitMatrix":
        """Build from column bitmasks (bit r of ``column_masks[j]`` = entry (r, j))."""
        data = [0] * rows
        for j, colmask in enumerate(column_masks):
            if colmask < 0 or colmask >> rows:
                raise ValueError("column has bits outside the row range")
            bit = 1 << j
            m = colmask
            while m:
                low = m & -m
                data[low.bit_length() - 1] |= bit
                m ^= low
        return cls(rows, len(column_masks), data)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    def to_rows(self) -> list[list[int]]:
        """Unpack to a list of 0/1 lists."""
        return [[(r >> c) & 1 for c in range(self.cols)] for r in self.data]

    def transpose(self) -> "BitMatrix":
        return _transpose(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _transpose(m: BitMatrix) -> BitMatrix:
    data = [0] * m.cols
    for r, row in enumerate(m.data):
        bit = 1 << r
        w = row
        while w:
            low = w & -w
            data[low.bit_length() - 1] |= bit
            w ^= low
    return BitMatrix(m.cols, m.rows, data)


def rank(m: BitMatrix) -> int:
    """GF(2) row rank via XOR elimination on packed rows.

    Pivots are the lowest-index nonzero column of each row, rows scanned
    top-down.  The input is not modified.
    """
    pivots: dict[int, int] = {}
    for row in m.data:
        r = row
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                break
            r ^= p
    return len(pivots)


def _rref_pivots(data: Iterable[int]) -> dict[int, int]:
    """Fully reduced row echelon, returned as {pivot column index: row value}.

    Invariant: every pivot row holds its pivot column plus free columns
    only, so kernel extraction can read coefficients straight off.
    """
    pivots: dict[int, int] = {}
    for row in data:
        r = row
        while r:
            c = (r & -r).bit_length() - 1
            p = pivots.get(c)
            if p is None:
                # clear every other pivot column from the incoming row,
                # then clear column c from the resident rows
                for pc, pr in pivots.items():
                    if (r >> pc) & 1:
                        r ^= pr
                for pc, pr in pivots.items():
                    if (pr >> c) & 1:
                        pivots[pc] = pr ^ r
                pivots[c] = r
                break
            r ^= p
    return pivots


def kernel_basis(m: BitMatrix) -> list[int]:
    """Basis of the right kernel, each vector a bitmask over column indices.

    Deterministic: one vector per free column, free columns ascending.
    """
    return solve_affine(m, 0)[1]


def solve_affine(m: BitMatrix, b: int) -> tuple[int, list[int]] | None:
    """All solutions of M x = b as (particular solution, kernel basis).

    ``b`` is a bitmask over row indices.  Returns None when inconsistent.
    Serves the cocycle solver, and with b = 0 it is ``kernel_basis``.
    """
    if b < 0 or b >> m.rows:
        raise ValueError("right-hand side has bits outside the row range")
    aug_col = m.cols
    aug_rows = [row | (((b >> i) & 1) << aug_col) for i, row in enumerate(m.data)]
    pivots = _rref_pivots(aug_rows)
    if aug_col in pivots:
        return None
    particular = 0
    for pc, pr in pivots.items():
        if (pr >> aug_col) & 1:
            particular |= 1 << pc
    kernel = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = 1 << free
        for pc, pr in pivots.items():
            if (pr >> free) & 1:
                v |= 1 << pc
        kernel.append(v)
    return particular, kernel
