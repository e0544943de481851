"""Cocycle dimensions, Betti numbers and conjugation-square checks.

The differential preserves the degree grading, so the cochain complex
splits into small blocks indexed by (topological degree k, degree m) and
every rank is computed per block, straight from the monomial masks.  The
blocks are ranked in one pass with k ascending, and each block skips the
columns that the previous block's pivots clear (see ``_block_ranks``).
"""

from __future__ import annotations

import json
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping

from .core import VergneAlgebra, _involution_delta, differential
from .exterior import (
    Derivation,
    ImageOutsideCodomain,
    Monomial,
    block_pivots,
    graded_masks,
    image_columns,
)

__all__ = [
    "BettiTable",
    "cocycle_dim",
    "betti",
    "graded_betti",
    "verify_commuting_square",
]


class BettiTable:
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

    def __setattr__(self, name, value):
        raise AttributeError("BettiTable is immutable")

    def __delattr__(self, name):
        raise AttributeError("BettiTable is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (self.n, self.b, self.graded, self.z) == (other.n, other.b, other.graded, other.z)

    __hash__ = None  # ``graded`` is a mapping

    def __repr__(self) -> str:
        return f"BettiTable(n={self.n}, b={self.b}, graded={dict(self.graded)}, z={self.z})"

    def violations(self) -> list[str]:
        """Internal-consistency failures; empty when the table is sound."""
        out = []
        n = self.n
        if self.b[0] != 1:
            out.append(f"b_0 = {self.b[0]} != 1")
        if any(v < 0 for v in self.b):
            out.append("negative Betti number")
        for k in range(n + 1):
            total = sum(v for (kk, m), v in self.graded.items() if kk == k)
            if total != self.b[k]:
                out.append(f"graded sum {total} != b_{k} = {self.b[k]}")
        lo = lambda k: k * (k + 1) // 2
        hi = lambda k: k * n - k * (k - 1) // 2
        for (k, m), v in self.graded.items():
            if v < 0:
                out.append(f"negative graded dimension at {(k, m)}")
            if not lo(k) <= m <= hi(k):
                out.append(f"graded degree {m} outside [{lo(k)}, {hi(k)}] for k={k}")
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

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def to_csv(self) -> str:
        lines = ["k,betti,cocycle_dim,graded"]
        for k in range(self.n + 1):
            cells = " ".join(
                f"{m}={v}" for (kk, m), v in sorted(self.graded.items()) if kk == k
            )
            lines.append(f"{k},{self.b[k]},{self.z[k]},{cells}")
        return "\n".join(lines) + "\n"


def _block_ranks(g: VergneAlgebra, top: int) -> tuple[dict[int, int], ...]:
    """Rank of d on every graded block (k, m) for k = 0..top at least, as
    ``ranks[k][m]``; cached.

    Clearing: the pivots of block (k-1, m) are an echelon basis of the
    exact forms B^k_m with distinct leading positions P, so
    C^k_m = B^k_m + span{e_p : p not in P}.  Since d(B^k_m) = 0, the rank
    of block (k, m) is the rank of its columns outside P, and the columns
    at P are never built.  Nothing is cleared at k = 1 (d vanishes on the
    scalars), so the k = 1 blocks build the column of every generator e^i
    and their codomain lookups raise ImageOutsideCodomain unless every term
    of d(e^i) is a 2-factor monomial of degree i.  That check covers every
    column of the complex, built or cleared: a Leibniz term of such images
    always lies in the codomain slice.

    The cache holds the levels ranked so far and the pivots of the last
    one, so a later call for a higher ``top`` resumes where this one
    stopped.  It is written only once every requested level is ranked.
    """
    levels, cleared = g._ranks or ((), {})
    if top < len(levels):
        return levels
    n = g.n
    d = differential(g)
    new = list(levels)
    for k in range(len(levels), top + 1):
        target = graded_masks(n, k + 1) if k < n else {}
        level, pivots = {}, {}
        for m, masks in graded_masks(n, k).items():
            skip = cleared.get(m, 0)
            if skip:
                masks = [mask for r, mask in enumerate(masks) if not skip >> r & 1]
            p = block_pivots(d, masks, target.get(m, ()))
            pivots[m] = p
            level[m] = p.bit_count()
        new.append(level)
        cleared = pivots
    levels = tuple(new)
    # VergneAlgebra forbids plain attribute writes; fill the cache slot directly.
    object.__setattr__(g, "_ranks", (levels, cleared))
    return levels


def cocycle_dim(g: VergneAlgebra, k: int) -> int:
    """dim ker(d) on k-forms, accumulated over the graded blocks."""
    if not 0 <= k <= g.n:
        raise ValueError(f"topological degree {k} outside 0..{g.n}")
    return comb(g.n, k) - sum(_block_ranks(g, k)[k].values())


def graded_betti(g: VergneAlgebra, k: int, m: int) -> int:
    """dim H^k_m: closed k-forms of degree m modulo exact ones."""
    if not 0 <= k <= g.n:
        raise ValueError(f"topological degree {k} outside 0..{g.n}")
    masks = graded_masks(g.n, k).get(m)
    if not masks:
        return 0
    ranks = _block_ranks(g, k)
    image = ranks[k - 1].get(m, 0) if k >= 1 else 0
    return len(masks) - ranks[k][m] - image


def betti(g: VergneAlgebra) -> BettiTable:
    """Full Betti table via b_k = dim Z_k + dim Z_{k-1} - C(n, k-1)."""
    if g._betti is not None:
        return g._betti
    n = g.n
    ranks = _block_ranks(g, n)
    z = [comb(n, k) - sum(ranks[k].values()) for k in range(n + 1)]
    b = [1] + [z[k] + z[k - 1] - comb(n, k - 1) for k in range(1, n + 1)]
    graded: dict[tuple[int, int], int] = {}
    below: dict[int, int] = {}
    for k in range(n + 1):
        for m, masks in graded_masks(n, k).items():
            v = len(masks) - ranks[k][m] - below.get(m, 0)
            if v:
                graded[(k, m)] = v
        below = ranks[k]
    table = BettiTable(n=n, b=b, graded=graded, z=z)
    object.__setattr__(g, "_betti", table)
    return table


def _check_generator_images(d: Derivation) -> None:
    """Raise ImageOutsideCodomain unless every term of every d(e^i) is a
    2-factor monomial of degree i.  Then e^1 can occur only in e^1^e^{i-1},
    and every Leibniz term of d on a k-monomial of degree m lies in the
    (k+1, m) slice, so no column of the block check can leave its codomain.
    """
    for i, imgs in d.images.items():
        for t in imgs:
            low = t & -t
            if t.bit_count() != 2 or low.bit_length() + (t ^ low).bit_length() != i:
                raise ImageOutsideCodomain(
                    f"image term {Monomial(t, d.ambient)} of e{i} not in codomain"
                )


def _generators_conjugate(d1: Derivation, d2: Derivation) -> bool:
    """Whether d1(e^i) + d2(e^i) = e^2^e^{i-2} for i >= 5 and
    d1(e^i) = d2(e^i) for i <= 4: row(g2) is row(g1) XOR row(m2(n))."""
    empty = frozenset()
    for i in range(1, d1.ambient + 1):
        want = {2 | 1 << (i - 3)} if i >= 5 else empty
        if d1.images.get(i, empty) ^ d2.images.get(i, empty) != want:
            return False
    return True


def verify_commuting_square(g1: VergneAlgebra, g2: VergneAlgebra, k: int) -> bool:
    """Whether d2(f(h)) = f(d1(h)) for every basis k-monomial h.

    d1, d2 are the differentials of g1, g2 and f the involution.  Since f
    is an involution this single orientation decides the square both ways.

    The square is decided from the n generator images.  Work over GF(2),
    so there are no signs.  Let δ = d1 + d2, let L = lowering_operator(n, 1)
    and let ι be contraction by e_1, so that f = id + e^2^L∘ι (see
    ``core._involution_delta``).  Each d is a differential (d∘d = 0 is
    checked on construction) whose e^1-part on generators is e^1^L, so
    dι + ιd = L (both sides are derivations and agree on every e^i), and
    dL = dιd = Ld.  With d(e^2) = 0 this gives

        d2 f + f d1 = δ + e^2^(d2 L ι + L ι d1) = δ + e^2^L(δι + L).

    Write h = y + e^1^x with x, y free of e^1, so ιh = x.  Then the right
    side of h is P(h) + e^2^L(δx), where P = δ + e^2^L².  P is a
    derivation: in characteristic 2, L² is one and so is e^2^D for any
    derivation D.
    - If δ(e^i) = e^2^L²(e^i) for every i, that is δ(e^i) = e^2^e^{i-2}
      for i >= 5 and δ(e^i) = 0 for i <= 4 (L²(e^4) = e^2), then P
      vanishes on the generators and hence everywhere, and
      e^2^L(δx) = e^2^L(e^2^L²x) = 0 because L(e^2) = 0.  So the square
      holds at every k.  In terms of rows: row(g2) = row(g1) XOR
      row(m2(n)).
    - Conversely, on h = e^1^e^i the right side is e^1^P(e^i) +
      e^2^L(δ(e^i)), and δ(e^i) is free of e^1, so the square fails at
      k = 2 whenever the test fails.  It may still hold at other k, so
      then this k is decided block by block.

    Block check: f is linear and preserves k and the degree m, so both
    sides of block (k, m) are int columns over the positions of the
    (k+1)-monomials of degree m, built by ``image_columns``.  With
    N(h) = f(h) + h: f(d1(h)) is the column of d1(h) read through
    ``frow``, which maps each codomain monomial q to the positions of
    f(q); and d2(f(h)) is the column of d2(h) plus those of d2(u) for u in
    N(h).

    Both differentials are first checked to map each e^i to 2-factor
    monomials of degree i, the shape the proof and the block slices rely
    on; otherwise ImageOutsideCodomain is raised, so a grading bug never
    reads as a failed square.
    """
    if g1.n != g2.n:
        raise ValueError(f"dimension mismatch: {g1.n} != {g2.n}")
    n = g1.n
    if not 2 <= k <= n:
        raise ValueError(f"the involution needs topological degree 2..{n}, got {k}")
    d1, d2 = differential(g1), differential(g2)
    _check_generator_images(d1)
    _check_generator_images(d2)
    if _generators_conjugate(d1, d2):
        return True
    target = graded_masks(n, k + 1) if k < n else {}
    for m, domain in graded_masks(n, k).items():
        row = {q: 1 << r for r, q in enumerate(target.get(m, ()))}
        frow = {}
        for q, bits in row.items():
            for u in _involution_delta(q):
                bits ^= row[u]
            frow[q] = bits
        c2 = dict(zip(domain, image_columns(d2, domain, row)))
        for h, right in zip(domain, image_columns(d1, domain, frow)):
            left = c2[h]
            for u in _involution_delta(h):
                left ^= c2[u]
            if left != right:
                return False
    return True
