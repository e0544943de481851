"""Cocycle dimensions, Betti numbers and conjugation-square checks.

The differential preserves the degree grading, so the cochain complex
splits into blocks (topological degree k, degree m), ranked in one pass
per dimension; the proofs are in ``betti``, and those of the square in
``square_failures``.
"""

from __future__ import annotations

from functools import cache
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .core import VergneAlgebra, _involution_masks, _m2_row, _not_an_algebra, differential
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
    the per-algebra cache cannot be changed by its caller.  A ``b`` or
    ``z`` whose length is not n + 1 is refused (ValueError).
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
        if len(self.b) != n + 1 or len(self.z) != n + 1:
            raise ValueError(f"b and z need {n + 1} entries, got {len(self.b)} and {len(self.z)}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (self.n, self.b, self.graded, self.z) == (other.n, other.b, other.graded, other.z)

    __hash__ = None  # ``graded`` is a mapping

    def __repr__(self) -> str:
        return f"BettiTable(n={self.n}, b={self.b}, graded={dict(self.graded)}, z={self.z})"

    def violations(self) -> list[str]:
        """Internal-consistency failures; empty when the table is sound.

        One pass over the graded entries: each lies in its k's degree range
        (``_degree_bounds``), their sums per k are b_k, and each degree m is
        a finite subcomplex, so sum_k (-1)^k dim H^k_m is
        sum_k (-1)^k |C^k_m| (``_chain_euler``).  An entry whose k or m
        lies outside the table is still reported."""
        out = []
        n, b = self.n, self.b
        if b[0] != 1:
            out.append(f"b_0 = {b[0]} != 1")
        if min(b) < 0:
            out.append("negative Betti number")
        totals = [0] * (n + 1)
        euler = [-c for c in _chain_euler(n)]
        top = len(euler) - 1
        apart: dict[int, int] = {}  # the degrees outside 0..top
        bounds = _degree_bounds(n)
        for (k, m), v in self.graded.items():
            if 0 <= k <= n:
                totals[k] += v
                lo, hi = bounds[k]
            else:
                lo = k * (k + 1) // 2
                hi = lo + k * (n - k)
            if 0 <= m <= top:
                euler[m] += -v if k & 1 else v
            else:
                apart[m] = apart.get(m, 0) + (-v if k & 1 else v)
            if v < 0:
                out.append(f"negative graded dimension at {(k, m)}")
            if not lo <= m <= hi:
                out.append(f"graded degree {m} outside [{lo}, {hi}] for k={k}")
        for k in range(n + 1):
            if totals[k] != b[k]:
                out.append(f"graded sum {totals[k]} != b_{k} = {b[k]}")
        apart_sorted = sorted(apart.items())
        off = [*(p for p in apart_sorted if p[0] < 0), *enumerate(euler),
               *(p for p in apart_sorted if p[0] > top)]
        out.extend(f"Euler characteristic in degree {m} off by {e}" for m, e in off if e)
        alternating = sum(b[::2]) - sum(b[1::2])
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


@cache
def _chain_euler(n: int) -> tuple[int, ...]:
    """sum_k (-1)^k |C^k_m| for m = 0..n(n+1)/2: the coefficients of
    prod_{i=1..n} (1 - q^i); computed once per n.

    Proof.  C^k_m has a basis of the k-monomials e^{i_1}^...^e^{i_k} with
    i_1 + ... + i_k = m, one for each k-subset S of {1..n} with index sum
    m.  Expanding the product picks, from each factor (1 - q^i), either 1
    (i not in S) or -q^i (i in S), so it is the sum over all subsets S of
    (-1)^|S| q^(sum of S), and the coefficient of q^m is
    sum_k (-1)^k |C^k_m|."""
    coeffs = [1] + [0] * (n * (n + 1) // 2)
    top = 0  # the degree of the product so far
    for i in range(1, n + 1):
        top += i
        for m in range(top, i - 1, -1):
            coeffs[m] -= coeffs[m - i]
    return tuple(coeffs)


@cache
def _degree_bounds(n: int) -> tuple[tuple[int, int], ...]:
    """(lo, hi) for k = 0..n: the least and the greatest degree of a
    k-monomial of dimension n, 1 + ... + k and (n-k+1) + ... + n."""
    return tuple((k * (k + 1) // 2, k * (k + 1) // 2 + k * (n - k)) for k in range(n + 1))


def betti(g: VergneAlgebra) -> BettiTable:
    """Full Betti table, from one pass over the graded blocks; cached.

    ``betti_tables`` with a batch of one: the one rank path; a g that is
    not a ``VergneAlgebra`` is refused (TypeError naming it).  The blocks
    (k, m) are ranked with the degree m outer and k inner.  The ranks add
    up to dim Z_k = C(n, k) - rank d_k and the graded entries
    dim H^k_m = |block (k, m)| - rank(k, m) - rank(k-1, m), while
    b_k = dim Z_k + dim Z_{k-1} - C(n, k-1) is derived from z alone, so
    ``BettiTable.violations`` checks the graded sums against it.  The
    graded entries are handed to the table in ascending (k, m) order.

    Clearing: the pivots of block (k-1, m) are an echelon basis of the
    exact forms B^k_m with distinct leading positions P, so
    C^k_m = B^k_m + span{e_p : p not in P}.  Since d(B^k_m) = 0, the rank
    of block (k, m) is the rank of its columns outside P, and the columns
    at P are never built.  Nothing is cleared at k = 1 (d vanishes on the
    scalars), so the k = 1 blocks build the column of every generator e^i
    with i >= 3, and their codomain lookups raise ImageOutsideCodomain
    unless every term of δ(e^i) is a 2-factor monomial of degree i.  The
    columns of e^1 and e^2 are read, below, as 0 = d(e^1) and 0 = d(e^2);
    no check is lost there, as δ(e^1) and δ(e^2) have no terms (an
    e^i^e^j in δ has i + j >= 5).  That check covers every column of the
    complex, built, read or cleared: a Leibniz term of such images always
    lies in the codomain slice.

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

    The e^1-columns are read, not built.  Let x be free of e^1.  Then
    d(e^1^x) = d(e^1)^x + e^1^d(x) = e^1^(e^1^L(x) + δ(x)) = e^1^δ(x),
    as d(e^1) = 0 and e^1^e^1 = 0.  Each term of δ(x) replaces a factor
    e^k of x by an e^i^e^j with 1 < i < j, so δ(x) is free of e^1 too.
    Positions: write B(k, m) for the bucket ``graded_masks(n, k)[m]`` and
    B'(k, m) for that of dimension n - 1.  By ``graded_masks``'
    recurrence, B(k, m) is [2y + 1 for y in B'(k-1, m-k)] followed by
    [2y for y in B'(k, m-k)]: a prefix of e^1-masks, of length
    h(k, m) = |B'(k-1, m-k)| (0 for k = 0), then a suffix free of e^1.
    The suffix of B(k-1, m-1) is [2y for y in B'(k-1, m-k)], and
    x -> e^1^x = x | 1 maps it, in order, onto the prefix of B(k, m).  So
    the e^1-free mask x at position r of block (k-1, m-1) has e^1^x at
    position r - h(k-1, m-1) of block (k, m).  The same holds one level
    up, for the codomains: δ(x) lies in the suffix of B(k, m-1), the
    codomain of x's block, whose positions start at h(k, m-1), and
    e^1^ maps that suffix, in order, onto the prefix of B(k+1, m), the
    codomain of e^1^x's block.  So the column of e^1^x over its codomain
    is the δ-part of x's column, which fills the bits at h(k, m-1) and up
    (e^1^L(x) fills the prefix below), shifted down by h(k, m-1).  Each
    member keeps that shifted δ-part, when nonzero, at r - h(k-1, m-1),
    and reads it back as the column of e^1^x; a missing entry is 0.
    Every e^1-column a member reads has its factor live: let x be
    cleared in block (k-1, m-1), so that x leads a pivot v = d(w) of block
    (k-2, m-1).  Then e^1^v = d(e^1^w) is exact, and it leads with e^1^x:
    e^1^ kills the terms of v that hold e^1, which sit in the prefix,
    below x, and maps the others in order.  So e^1^x is a leading position
    of B^k_m, cleared in block (k, m), and a live e^1^x has a factor that
    was live, hence built or read as an e^2-column (below), one degree and
    one level down, and stored its δ-part.

    The δ-parts of the e^2-columns are read too.  Four ranges: applying
    the recurrence to both halves of B(k, m) splits it, in order, into
    - R1 = [4z + 3 for z in B''(k-2, m-2k+1)], the masks with e^1 and e^2,
    - R2 = [4z + 1 for z in B''(k-1, m-2k+1)], with e^1 only,
    - R3 = [4z + 2 for z in B''(k-1, m-2k)], with e^2 only,
    - R4 = [4z for z in B''(k, m-2k)], with neither,
    where B''(k, m) is the bucket of dimension n - 2 (empty where k or m
    is out of range).  R1 and R2 make up the e^1-prefix, so
    h(k, m) = |R1| + |R2|, and |R3(k, m)| = |B''(k-1, m-2k)|.  The map
    x -> e^2^x = x | 2 kills R1 and R3 (e^2^e^2 = 0), maps R2 of B(k, m)
    onto R1 of B(k+1, m+2) (4z + 1 -> 4z + 3 over the same
    B''(k-1, m-2k+1)) and R4 of B(k, m) onto R3 of B(k+1, m+2)
    (4z -> 4z + 2 over the same B''(k, m-2k)), each in order.  Let x lie
    in R4 of block (k-1, m-2).  As d(e^2) = 0 and L(e^2) = 0,
    d(e^2^x) = e^2^d(x) = e^1^L(e^2^x) + e^2^δ(x): its m0(n) column, whose
    terms hold e^1, plus its δ-part e^2^δ(x), free of e^1 as δ(x) is.
    δ(x) lies in the suffix R3 ++ R4 of B(k, m-2), the codomain of x's
    block, and the member stored it shifted down by h(k, m-2); so the low
    |R3(k, m-2)| bits of the stored int are the terms that e^2^ kills, and
    the bits above are the R4-part, which e^2^ maps, in order, onto R3 of
    B(k+1, m), the codomain of e^2^x's block, at h(k+1, m) and up.  So
    v = stored >> |R3(k, m-2)| and the δ-part of e^2^x is v << h(k+1, m),
    and v is what the member keeps as e^2^x's own δ-part for the e^1-read
    one degree up.  The domain lines up the same way: x at R4 index q of
    block (k-1, m-2) is stored at |R3(k-1, m-2)| + q (the store is keyed
    from the end of the e^1-prefix), and e^2^x is at R3 index q of block
    (k, m).  Only the m0(n) column of e^2^x is still built, and a batch
    shares it as for every column.  Every e^2-column a member reads has
    its factor built: let x be cleared in block (k-1, m-2), so that x leads
    a pivot v = d(w) of block (k-2, m-2).  Then e^2^v = d(e^2^w) is exact.
    R4 is the last range of every bucket, so the other terms of v lie in
    R1, R2 or R3, or in R4 below x: e^2^ kills those in R1 and R3, and maps
    those in R2 into R1 and those in R4 below x into R3 below e^2^x.  So
    e^2^v leads with e^2^x, which is cleared in block (k, m), and a live
    e^2^x has a factor that was live, hence built (an R4 column is never
    read), two degrees and one level down.

    Why the degree-outer order is exact.  Block (k, m) reads the pivots of
    block (k-1, m), ranked just before it in the same degree, the stored
    δ-parts of block (k-1, m-1), ranked in the degree before, and those of
    block (k-1, m-2), ranked two degrees before, and nothing else.  The
    leading positions of a member's pivots are those of the span of its
    live columns ({top bit of v : v in the span, v != 0}), whatever order
    the columns are reduced in; and a store holds the δ-parts of the live
    columns, which do not depend on that order either.  So every block
    gets the ranks, the cleared positions and the stores that a pass with
    k outer gives it.  Lifetime: the store of block (k, m) is read by
    block (k+1, m+1) one degree up and by block (k+1, m+2) two degrees up,
    and dropped once the latter has read it, so the stores held at once
    span about two degrees.
    """
    try:
        table = g._betti
    except AttributeError:
        raise _not_an_algebra(g) from None
    return table if table is not None else betti_tables((g,))[0]


def betti_tables(algebras: Iterable[VergneAlgebra]) -> list[BettiTable]:
    """The Betti tables of ``algebras``, in order; each fills its cache.

    An algebra that holds a table, or equals one in the input that does,
    is not ranked.  The rest are ranked in one batch per dimension, each
    distinct table once, sharing the m0(n) columns (see ``betti``).  When
    a batch raises, no algebra's cache is filled.  A member that is not a
    ``VergneAlgebra`` is refused (TypeError naming it) before any work.
    """
    algebras = list(algebras)
    try:
        tables = {g: g._betti for g in algebras if g._betti is not None}
    except AttributeError:
        raise _not_an_algebra(*algebras) from None
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
    """The tables of the distinct algebras ``batch``, all of one dimension n,
    in order: one pass over the graded blocks, as ``betti`` proves it."""
    n = batch[0].n
    deltas = [_delta_terms(g) for g in batch]
    levels = [graded_masks(n, k) for k in range(n + 1)] + [{}]
    heads = [{}] + [graded_masks(n - 1, k) for k in range(n)] + [{}]
    prefix = lambda k, m: len(heads[k].get(m - k, ()))  # h(k, m) of ``betti``
    # thirds[k] is graded_masks(n-2, k-1); no bucket of k = 0 or k = n has
    # an R3, and the lift at k = 0 reads thirds[-1], that of k = n
    thirds = [{}] + [graded_masks(n - 2, k) for k in range(n - 1)] + [{}]
    third = lambda k, m: len(thirds[k].get(m - 2 * k, ()))  # |R3(k, m)| of ``betti``
    ranks = [[0] * (n + 1) for _ in batch]
    graded: list[dict[tuple[int, int], int]] = [{} for _ in batch]
    unranked = [0] * len(batch)  # the pivots of a block with every column cleared
    unstored = [{}] * len(batch)  # the δ-parts of a block that built no column
    stored: dict[int, list[dict[int, int]]] = {}  # k -> δ-parts of block (k, m-1)
    older: dict[int, list[dict[int, int]]] = {}  # k -> δ-parts of block (k, m-2)
    for m in range(n * (n + 1) // 2 + 1):
        fresh = {}
        found = unranked
        for k in range(n + 1):
            masks = levels[k].get(m)
            seconds = older.pop(k - 1, unstored)
            if masks is None:
                found = unranked
                continue
            size = len(masks)
            skips = found
            cut = list(map(int.bit_count, skips))
            if min(cut) < size:
                ones = prefix(k, m)
                found, fresh[k] = _block_pivots(
                    masks, levels[k + 1].get(m, ()), deltas, skips,
                    ones, stored.get(k - 1, unstored), prefix(k + 1, m),
                    third(k, m), seconds, third(k - 1, m - 2) - ones, third(k, m - 2))
            else:
                found = unranked
            for i, p in enumerate(found):
                rank = p.bit_count()
                ranks[i][k] += rank
                if v := size - cut[i] - rank:
                    graded[i][(k, m)] = v
        older, stored = stored, fresh
    zs = [[comb(n, k) - r for k, r in enumerate(rank)] for rank in ranks]
    return [BettiTable(n=n, b=[1] + [zi[k] + zi[k - 1] - comb(n, k - 1) for k in range(1, n + 1)],
                       graded=dict(sorted(gi.items())), z=zi) for zi, gi in zip(zs, graded)]


def _delta_terms(g: VergneAlgebra) -> list[tuple[int, int, int]]:
    """δ = d + e^1^L of g as ``_block_pivots`` reads it: (low | t, low,
    low ^ t) for each term t of each δ(e^k), where low = 1 << (k-1) is the
    bit of e^k.  Each set bit ``bit`` = 1 << j of ``g.rows[i]`` is the term
    t = e^i^e^j of δ(e^{i+j}) (``betti``), so low = bit << (i-1) and
    t = 1 << (i-1) | bit >> 1."""
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
                  skips: Sequence[int], ones: int,
                  factors: Sequence[Mapping[int, int]], shift: int,
                  twos: int, seconds: Sequence[Mapping[int, int]],
                  lift: int, drop: int) -> tuple[list[int], list[dict[int, int]]]:
    """Rank block (k, m) for every member of a batch, as ``betti`` proves it.

    Returns each member's pivot positions, a bitmask over ``codomain``
    positions whose bit count is the block's rank, and its δ-parts, keyed
    by position minus ``ones`` and shifted down by ``shift``.  The inputs,
    ``deltas``, ``skips``, ``factors`` and ``seconds`` one entry per member:
    - ``masks``, ``codomain``: the buckets of blocks (k, m) and (k+1, m);
    - ``deltas[i]``: the terms of ``_delta_terms``; an R4 mask x takes the
      Leibniz term x ^ flip of (both, low, flip) exactly when e^k is in x
      and no other factor of x is in t, that is when x & both == low;
    - ``skips[i]``: the cleared positions, block (k-1, m)'s pivot mask;
    - ``ones``, ``twos``: the lengths of R1 + R2 and of R3 in ``masks``;
    - ``factors[i]``, ``seconds[i]``: the δ-parts stored by blocks
      (k-1, m-1) and (k-1, m-2);
    - ``shift``: the codomain's e^1-prefix length h(k+1, m);
    - ``lift``, ``drop``: |R3(k-1, m-2)| - ``ones`` and |R3(k, m-2)|.
    A δ term outside the codomain raises ImageOutsideCodomain.
    """
    row = {mask: 1 << r for r, mask in enumerate(codomain)}
    shared = [None] * len(masks)
    every = (1 << len(masks)) - 1
    threes = ones + twos
    out, stores = [], []
    for terms, skip, factor, second in zip(deltas, skips, factors, seconds):
        pivots = [0] * (len(codomain) + 1)
        found = 0
        store = {}
        live = every ^ skip
        try:
            while live:
                bit = live & -live
                live ^= bit
                r = bit.bit_length() - 1
                if r < ones:
                    col = factor.get(r, 0)
                else:
                    mask = masks[r]
                    if r < threes:
                        col = second.get(r + lift, 0) >> drop
                        if col:
                            store[r - ones] = col
                            col <<= shift
                    else:
                        col = 0
                        for both, low, flip in terms:
                            if mask & both == low:
                                col ^= row[mask ^ flip]
                        if col:
                            store[r - ones] = col >> shift
                    m0 = shared[r]
                    if m0 is None:
                        m0 = shared[r] = _m0_column(mask, row)
                    col ^= m0
                while col:
                    top = col.bit_length()
                    p = pivots[top]
                    if not p:
                        pivots[top] = col
                        found |= 1 << (top - 1)
                        break
                    col ^= p
        except KeyError as exc:  # the missing key is the image term, of δ or of m0(n)
            raise _outside_codomain(exc.args[0], mask) from None
        out.append(found)
        stores.append(store)
    return out, stores


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
    decided at k alone, as ``square_failures`` decides each k.  A dimension
    mismatch is refused first, then k, both before any work."""
    return not _failures(g1, g2, k)


def square_failures(g1: VergneAlgebra, g2: VergneAlgebra) -> tuple[int, ...]:
    """The k in 2..n where d2∘f != f∘d1; empty when the square commutes.

    d1, d2 are the differentials of g1, g2 and f the involution.  Since f
    is an involution this single orientation decides the square both ways.

    The square holds at every k exactly when the c-tables of g1 and g2
    differ by m2(n)'s table {(2, j) : 3 <= j <= n-2}.  Bit j of row i is
    c_{i,j}, so the symmetric difference c1 △ c2 has the rows
    g1.rows[i] ^ g2.rows[i], and it is m2(n)'s table exactly when
    g1.rows[2] ^ g2.rows[2] is m2(n)'s row 2 (``core._m2_row``), since
    row 2 decides the rest, XOR-linearly (``core._complete_row``): the
    test is that one comparison of ints.  Work over GF(2), so
    there are no signs.  By the formula of ``core.differential``,
    δ = d1 + d2 maps e^k to the sum of e^i^e^j over the pairs (i, j) of
    c1 △ c2 with i + j = k.  Let L be the derivation with L(e^i) = e^{i-1}
    for i >= 3 and L(e^i) = 0 for i <= 2 (``core._LOWERING``), and let ι
    be contraction by e_1, so that f = id + e^2^L∘ι, as
    ``core._involution_masks`` computes it.  The e^1-part of each d on
    generators is e^1^L, so dι + ιd = L (both sides are derivations and
    agree on every e^i), and with d∘d = 0 (checked on construction)
    dL = dιd = Ld.  With d(e^2) = 0 this gives

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
    return _failures(g1, g2, None)


def _failures(g1: VergneAlgebra, g2: VergneAlgebra, k: int | None) -> tuple[int, ...]:
    """The degrees where the square fails: k alone, or every k in 2..n
    when k is None.  Refuses a non-algebra (TypeError naming it), then a
    dimension mismatch, then k, before any work.  None fail when the rows
    differ by m2(n)'s; otherwise each degree is checked by its definition
    (proof in ``square_failures``)."""
    try:
        n, n2 = g1.n, g2.n
    except AttributeError:
        raise _not_an_algebra(g1, g2) from None
    if n != n2:
        raise ValueError(f"dimension mismatch: {n} != {n2}")
    if k is not None:
        _check_ambient(k, "topological degree", 2, n)
    if g1.rows[2] ^ g2.rows[2] == _m2_row(n):
        return ()
    d1, d2 = differential(g1), differential(g2)
    return tuple(j for j in (range(2, n + 1) if k is None else (k,))
                 if not _square_holds(d1, d2, n, j))


def _square_holds(d1: Derivation, d2: Derivation, n: int, k: int) -> bool:
    """The square at one k, by its definition: d2(f(h)) = f(d1(h)) for
    every basis k-monomial h."""
    for masks in graded_masks(n, k).values():
        for h in masks:
            if d2.apply_masks(_involution_masks((h,))) != _involution_masks(d1.apply_mask(h)):
                return False
    return True
