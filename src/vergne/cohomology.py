"""Cocycle dimensions, Betti numbers and conjugation-square checks.

The differential preserves the degree grading, so the cochain complex
splits into small blocks indexed by (topological degree k, degree m) and
every rank is computed per block, straight from the monomial masks.  The
blocks are ranked in one pass with k ascending, and each block skips the
columns that the previous block's pivots clear.  The algebras of one
dimension n are ranked in one such pass, sharing the part of each column
that comes from m0(n)'s differential (see ``betti``).
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .core import VergneAlgebra, _involution_masks, _m2_rows, differential
from .exterior import Derivation, _check_ambient, _Frozen, _outside_codomain, graded_masks

__all__ = [
    "BettiTable",
    "betti",
    "betti_tables",
    "square_failures",
    "verify_commuting_square",
]


class BettiTable(_Frozen):
    """Betti numbers b_0..b_n with their graded refinement; read-only.

    ``graded`` maps (k, m) to dim H^k_m; zero entries are omitted.
    ``z`` holds the cocycle-space dimensions dim Z_0..Z_n.  The fields are
    stored as tuples and a read-only mapping, so a table handed out from
    the per-algebra cache cannot be changed by its caller.
    """

    __slots__ = ("n", "b", "graded", "z")

    n: int
    b: tuple[int, ...]
    graded: Mapping[tuple[int, int], int]
    z: tuple[int, ...]

    def __init__(
        self,
        n: int,
        b: Iterable[int],
        graded: Mapping[tuple[int, int], int],
        z: Iterable[int],
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", tuple(b))
        object.__setattr__(self, "graded", MappingProxyType(dict(graded)))
        object.__setattr__(self, "z", tuple(z))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (self.n, self.b, self.graded, self.z) == (other.n, other.b, other.graded, other.z)

    __hash__ = None  # ``graded`` is a mapping

    def __repr__(self) -> str:
        return f"BettiTable(n={self.n}, b={self.b}, graded={dict(self.graded)}, z={self.z})"

    def violations(self) -> list[str]:
        """Internal-consistency failures; empty when the table is sound.

        One pass over the graded entries: their sums per k must be b_k, and
        each degree m is a finite subcomplex, so sum_k (-1)^k dim H^k_m must
        be sum_k (-1)^k |C^k_m| (the Euler characteristic)."""
        out = []
        n = self.n
        if self.b[0] != 1:
            out.append(f"b_0 = {self.b[0]} != 1")
        if any(v < 0 for v in self.b):
            out.append("negative Betti number")
        totals = [0] * (n + 1)
        euler: dict[int, int] = {}
        lo = lambda k: k * (k + 1) // 2
        hi = lambda k: k * n - k * (k - 1) // 2
        for (k, m), v in self.graded.items():
            if 0 <= k <= n:
                totals[k] += v
            euler[m] = euler.get(m, 0) + (-1) ** k * v
            if v < 0:
                out.append(f"negative graded dimension at {(k, m)}")
            if not lo(k) <= m <= hi(k):
                out.append(f"graded degree {m} outside [{lo(k)}, {hi(k)}] for k={k}")
        for k in range(n + 1):
            if totals[k] != self.b[k]:
                out.append(f"graded sum {totals[k]} != b_{k} = {self.b[k]}")
            for m, masks in graded_masks(n, k).items():
                euler[m] = euler.get(m, 0) - (-1) ** k * len(masks)
        out.extend(f"Euler characteristic in degree {m} off by {e}"
                   for m, e in sorted(euler.items()) if e)
        alternating = sum((-1) ** k * bk for k, bk in enumerate(self.b))
        if alternating != 0:
            out.append(f"alternating sum {alternating} != 0")
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "betti": list(self.b),
            "graded": {
                f"{k},{m}": v for (k, m), v in sorted(self.graded.items())
            },
            "cocycle_dims": list(self.z),
        }

    def to_csv(self) -> str:
        lines = ["k,betti,cocycle_dim,graded"]
        for k in range(self.n + 1):
            cells = " ".join(
                f"{m}={v}" for (kk, m), v in sorted(self.graded.items()) if kk == k
            )
            lines.append(f"{k},{self.b[k]},{self.z[k]},{cells}")
        return "\n".join(lines) + "\n"


def betti(g: VergneAlgebra) -> BettiTable:
    """Full Betti table, from one pass over the graded blocks; cached.

    ``betti_tables`` with a batch of one: the one rank path.  The blocks
    (k, m) are ranked with k ascending.  Each level adds
    dim Z_k = C(n, k) - rank d_k and the graded entries
    dim H^k_m = |block (k, m)| - rank(k, m) - rank(k-1, m), while
    b_k = dim Z_k + dim Z_{k-1} - C(n, k-1) is derived from z alone, so
    ``BettiTable.violations`` checks the graded sums against it.

    Clearing: the pivots of block (k-1, m) are an echelon basis of the
    exact forms B^k_m with distinct leading positions P, so
    C^k_m = B^k_m + span{e_p : p not in P}.  Since d(B^k_m) = 0, the rank
    of block (k, m) is the rank of its columns outside P, and the columns
    at P are never built.  Nothing is cleared at k = 1 (d vanishes on the
    scalars), so the k = 1 blocks build the column of every generator e^i
    and their codomain lookups raise ImageOutsideCodomain unless every term
    of δ(e^i) is a 2-factor monomial of degree i.  That check covers every
    column of the complex, built or cleared: a Leibniz term of such images
    always lies in the codomain slice.

    The split d = e^1^L + δ.  Let L be the derivation with L(e^i) = e^{i-1}
    for i >= 3 and L(e^1) = L(e^2) = 0 (``core._LOWERING``), and δ the
    derivation with δ(e^k) the sum of the e^i^e^j over 1 < i < j,
    i + j = k, c_{i,j} = 1: δ is the c-table, each set bit j of ``g.rows[i]``
    a term of δ(e^{i+j}), and ``_delta_terms`` reads it off the rows.  In
    characteristic 2, x -> e^1^L(x) is a derivation too (no signs, so e^1
    commutes past every factor), and e^1^L + δ agrees with d on every
    generator: both vanish on e^1 and e^2 (an e^i^e^j in δ has i + j >= 5),
    and on e^k, k >= 3, both give e^1^e^{k-1} + δ(e^k).  Derivations that
    agree on the generators are equal, so d = e^1^L + δ; ``square_failures``
    reads the same e^1-part as dι + ιd = L.  e^1^L is the differential of
    m0(n), whose δ is 0, so it depends only on n.  On a monomial x:
    - if e^1 is in x, x = e^1^y and e^1^L(x) = e^1^e^1^L(y) = 0;
    - otherwise e^1^L(x) is the sum of (x - e^i + e^{i-1})^e^1 over the
      e^i in x with i >= 3 and e^{i-1} not in x (L(x)'s other terms repeat
      a factor), and distinct i give distinct monomials.
    So every column of block (k, m) is the m0(n) column of its mask plus
    the member's δ terms, and the codomain positions are those of the
    block alone.  The batch builds the position map and each m0(n) column
    once, and each member adds its own δ terms and eliminates against its
    own pivots, outside its own cleared positions: each member's columns,
    and so its ranks and table, are exactly those it would get alone.
    """
    if g._betti is None:
        betti_tables((g,))
    return g._betti


def betti_tables(algebras: Iterable[VergneAlgebra]) -> list[BettiTable]:
    """The Betti tables of ``algebras``, in order; each fills its cache.

    An algebra that holds a table, or equals one in the input that does,
    is not ranked.  The rest are ranked in one batch per dimension, each
    distinct table once, sharing the m0(n) columns (see ``betti``).  When
    a batch raises, no algebra's cache is filled.
    """
    algebras = list(algebras)
    tables = {g: g._betti for g in algebras if g._betti is not None}
    batches: dict[int, dict[VergneAlgebra, None]] = {}
    for g in algebras:
        if g not in tables:
            batches.setdefault(g.n, {})[g] = None
    for batch in batches.values():
        tables.update(zip(batch, _rank(tuple(batch))))
    for g in algebras:
        if g._betti is None:
            # VergneAlgebra forbids plain attribute writes; fill the cache slot directly.
            object.__setattr__(g, "_betti", tables[g])
    return [g._betti for g in algebras]


def _rank(batch: tuple[VergneAlgebra, ...]) -> list[BettiTable]:
    """The tables of distinct algebras of one dimension n, from one pass over
    the graded blocks (k, m) with k ascending.  A block is ranked when a
    member has a column left after clearing; a member with none has rank 0
    there (see ``betti``).  Only nonzero pivot masks are kept for the next
    level, and each member's rank d_k is the sum of its block ranks."""
    n = batch[0].n
    deltas = [_delta_terms(g) for g in batch]
    z: list[list[int]] = [[] for _ in batch]
    graded: list[dict[tuple[int, int], int]] = [{} for _ in batch]
    cleared: list[dict[int, int]] = [{} for _ in batch]  # degree -> pivots one level down
    unranked = [0] * len(batch)  # the pivots of a block with every column cleared
    for k in range(n + 1):
        target = graded_masks(n, k + 1) if k < n else {}
        pivots: list[dict[int, int]] = [{} for _ in batch]
        ranks = [0] * len(batch)
        for m, masks in graded_masks(n, k).items():
            size = len(masks)
            skips = [c.get(m, 0) for c in cleared]
            cut = list(map(int.bit_count, skips))
            found = (_block_pivots(masks, target.get(m, ()), deltas, skips)
                     if min(cut) < size else unranked)
            for i, p in enumerate(found):
                rank = p.bit_count()
                if rank:
                    pivots[i][m] = p
                    ranks[i] += rank
                if v := size - cut[i] - rank:
                    graded[i][(k, m)] = v
        for zi, rank in zip(z, ranks):
            zi.append(comb(n, k) - rank)
        cleared = pivots
    return [BettiTable(n=n, b=[1] + [zi[k] + zi[k - 1] - comb(n, k - 1) for k in range(1, n + 1)],
                       graded=gi, z=zi) for zi, gi in zip(z, graded)]


def _delta_terms(g: VergneAlgebra) -> list[tuple[int, int, int]]:
    """δ = d + e^1^L of g as ``_block_pivots`` reads it: (low | t, low,
    low ^ t) for each term t of each δ(e^k), where low = 1 << (k-1) is the
    bit of e^k.  Read off the rows: δ(e^k) sums the e^i^e^j with
    c_{i,j} = 1, 1 < i < j and i + j = k, and bit j of ``g.rows[i]`` is
    c_{i,j}, set only for such pairs.  So the set bits ``bit`` = 1 << j of
    the rows are the terms, one each: low = 1 << (i+j-1) = bit << (i-1) and
    t = e^i^e^j = 1 << (i-1) | 1 << (j-1) = 1 << (i-1) | bit >> 1."""
    terms = []
    for i, r in enumerate(g.rows):
        while r:
            bit = r & -r
            r ^= bit
            low, t = bit << (i - 1), 1 << (i - 1) | bit >> 1
            terms.append((low | t, low, low ^ t))
    return terms


def _block_pivots(masks: Sequence[int], codomain: Sequence[int],
                  deltas: Sequence[Sequence[tuple[int, int, int]]],
                  skips: Sequence[int]) -> list[int]:
    """Pivot positions of each member's differential e^1^L + δ from the span
    of the ``masks`` at the positions outside its skip to the span of the
    ``codomain`` masks, as bitmasks over codomain positions whose bit
    counts are the GF(2) ranks.

    Member i has the δ terms ``deltas[i]`` (``_delta_terms``) and the
    cleared positions ``skips[i]``.  The block builds the codomain position
    map once, and the m0(n) column e^1^L of a position the first time a
    member reads it (``_m0_column``).  Each member walks only its live
    positions, the bits of ``(1 << len(masks)) - 1`` outside its skip,
    lowest first, so in ascending order.  A δ term (low | t, low, flip) of
    e^k adds the Leibniz term (x - e^k) ^ t = x ^ flip of a mask x exactly
    when e^k is in x and no other factor of x is in t, that is when
    x & (low | t) == low.  Each member's column is reduced against its own
    pivots as soon as it is built, until its leading bit is new; the pivots
    sit in a list indexed by leading bit (``col.bit_length()``, 1 up to
    ``len(codomain)``, 0 where none has landed), and each leading bit joins
    the member's pivot mask as its pivot lands.  A δ term outside the
    codomain, always a grading bug, raises ImageOutsideCodomain.
    """
    row = {mask: 1 << r for r, mask in enumerate(codomain)}
    shared = [None] * len(masks)
    every = (1 << len(masks)) - 1
    out = []
    for terms, skip in zip(deltas, skips):
        pivots = [0] * (len(codomain) + 1)
        found = 0
        live = every ^ skip
        try:
            while live:
                bit = live & -live
                live ^= bit
                r = bit.bit_length() - 1
                mask = masks[r]
                col = shared[r]
                if col is None:
                    col = shared[r] = _m0_column(mask, row)
                for both, low, flip in terms:
                    if mask & both == low:
                        col ^= row[mask ^ flip]
                while col:
                    top = col.bit_length()
                    p = pivots[top]
                    if not p:
                        pivots[top] = col
                        found |= 1 << (top - 1)
                        break
                    col ^= p
        except KeyError:
            raise _outside_codomain(mask ^ flip, mask) from None
        out.append(found)
    return out


def _m0_column(mask: int, row: Mapping[int, int]) -> int:
    """The column of m0(n)'s differential e^1^L at ``mask``; ``row`` maps
    each codomain mask to its position bit.  A mask holding e^1 has column
    0; otherwise bit b >= 2 of ``mask & ~(mask << 1)`` is an e^{b+1} in x
    with e^b not in x, whose term is (x - e^{b+1} + e^b)^e^1 (see ``betti``)."""
    col = 0
    if not mask & 1:
        lows = mask & ~(mask << 1) & ~3
        while lows:
            low = lows & -lows
            lows ^= low
            col ^= row[(mask ^ low ^ low >> 1) | 1]
    return col


def verify_commuting_square(g1: VergneAlgebra, g2: VergneAlgebra, k: int) -> bool:
    """Whether d2(f(h)) = f(d1(h)) for every basis k-monomial h, k in 2..n;
    read off ``square_failures``.  A dimension mismatch is refused first,
    then k, both before any work."""
    _check_ambient(k, "topological degree", 2, _common_dimension(g1, g2))
    return k not in square_failures(g1, g2)


def _common_dimension(g1: VergneAlgebra, g2: VergneAlgebra) -> int:
    """The dimension n of both algebras; refuse a mismatch."""
    if g1.n != g2.n:
        raise ValueError(f"dimension mismatch: {g1.n} != {g2.n}")
    return g1.n


def square_failures(g1: VergneAlgebra, g2: VergneAlgebra) -> tuple[int, ...]:
    """The k in 2..n where d2∘f != f∘d1; empty when the square commutes.

    d1, d2 are the differentials of g1, g2 and f the involution.  Since f
    is an involution this single orientation decides the square both ways.

    The square holds at every k exactly when the c-tables of g1 and g2
    differ by m2(n)'s table {(2, j) : 3 <= j <= n-2}.  Bit j of row i is
    c_{i,j}, so the symmetric difference c1 △ c2 has the rows
    g1.rows[i] ^ g2.rows[i], and the test compares them with m2(n)'s rows
    (``core._m2_rows``).  Work over GF(2), so there are no signs.  Each
    differential is built as

        d(e^1) = d(e^2) = 0,  d(e^k) = e^1^e^{k-1} + sum of e^i^e^j
                              over (i, j) in c with i + j = k

    (``core._differential``), so δ = d1 + d2 maps e^k to the sum of
    e^i^e^j over the pairs (i, j) of c1 △ c2 with i + j = k.  Let L be the
    derivation with L(e^i) = e^{i-1} for i >= 3 and L(e^i) = 0 for
    i <= 2 (``core._LOWERING``), and let ι be contraction by e_1, so that
    f = id + e^2^L∘ι, as ``core._involution_masks`` computes it.  The
    e^1-part of each d on generators is e^1^L, so dι + ιd = L (both sides
    are derivations and agree on every e^i), and with d∘d = 0 (checked on
    construction) dL = dιd = Ld.  With d(e^2) = 0 this gives

        d2 f + f d1 = δ + e^2^(d2 L ι + L ι d1) = δ + e^2^L(δι + L).

    Write h = y + e^1^x with x, y free of e^1, so ιh = x.  Then the right
    side of h is P(h) + e^2^L(δx), where P = δ + e^2^L².  P is a
    derivation: in characteristic 2, L² is one and so is e^2^D for any
    derivation D.  On generators e^2^L²(e^k) is e^2^e^{k-2} for k >= 5
    and 0 for k <= 4 (L²(e^4) = e^2), the image of e^k under m2(n)'s
    pairs.  Distinct pairs give distinct monomials, so:
    - If c1 △ c2 is m2(n)'s table, then P vanishes on the generators and
      hence everywhere, and e^2^L(δx) = e^2^L(e^2^L²x) = 0 because
      L(e^2) = 0.  So the square holds at every k.
    - Otherwise P(e^i) != 0 for some i.  On h = e^1^e^i the right side is
      e^1^P(e^i) + e^2^L(δ(e^i)), where P(e^i) and L(δ(e^i)) are free of
      e^1, so it is not zero and the square fails at k = 2.  It may hold
      at other k, so then each k is decided from the definition
      (``_square_holds``).
    """
    n = _common_dimension(g1, g2)
    if tuple([r1 ^ r2 for r1, r2 in zip(g1.rows, g2.rows)]) == _m2_rows(n):
        return ()
    d1, d2 = differential(g1), differential(g2)
    return tuple(k for k in range(2, n + 1) if not _square_holds(d1, d2, n, k))


def _square_holds(d1: Derivation, d2: Derivation, n: int, k: int) -> bool:
    """The square at one k, by its definition: d2(f(h)) = f(d1(h)) for
    every basis k-monomial h."""
    for masks in graded_masks(n, k).values():
        for h in masks:
            if d2.apply_masks(_involution_masks((h,))) != _involution_masks(d1.apply_mask(h)):
                return False
    return True
