"""Exact linear algebra over the two-element field.

Vectors are bit-packed into Python integers (bit ``i`` of a vector is its
entry at position ``i``), so adding two vectors is a single XOR.  One
elimination, ``echelon``, serves ``rank`` and ``solve_affine``.

Everything here is pure and never modifies its input, so concurrent use
is safe.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "echelon",
    "rank",
    "solve_affine",
]


def echelon(vectors: Iterable[int]) -> dict[int, int]:
    """An echelon basis of the span of ``vectors``, keyed by leading bit.

    Each vector is reduced by the basis so far until its highest set bit
    is new, so the keys (``bit_length`` of each basis vector) are
    distinct and their count is the rank.  Zero vectors are dropped.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
    return pivots


# perfbench/ patches this by name; it goes with the benchmark upkeep (ROADMAP item 1).
def rank(vectors: Iterable[int]) -> int:
    """GF(2) rank of the span of the int-packed ``vectors``."""
    return len(echelon(vectors))


# perfbench/ patches this by name, as it does rank; no library code calls it.
def solve_affine(columns: Sequence[int], b: int) -> tuple[int, list[int]] | None:
    """All x with sum of ``columns[j]`` over the bits j of x equal to ``b``,
    as (particular solution, kernel basis); None when there is none.

    Column j is tagged with bit j and ``b`` with bit c = len(columns),
    and the column parts are shifted above the tags.  The tags keep the
    c + 1 vectors independent and record which inputs each echelon
    vector sums.  An echelon vector whose column part is zero has its
    leading bit among the tags, and because the leading bits are
    distinct, those vectors are a basis of all such zero sums.  The ones
    led by a tag below c are a kernel basis; the one led by tag c, if
    any, is b plus a particular solution.
    """
    c = len(columns)
    shift = c + 1
    tagged = [col << shift | 1 << j for j, col in enumerate(columns)]
    tagged.append(b << shift | 1 << c)
    pivots = echelon(tagged)
    led_by_b = pivots.get(shift)
    if led_by_b is None:
        return None
    kernel = [v for top, v in pivots.items() if top <= c]
    return led_by_b ^ 1 << c, kernel
