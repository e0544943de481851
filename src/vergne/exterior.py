"""The exterior algebra on generators e^1..e^n over GF(2).

Monomials e^{i1}^...^e^{ik} are bitmasks (bit i-1 set means e^i present),
forms are finite sets of monomials with symmetric difference as addition.
In characteristic two there are no signs, so the wedge product is
commutative and any generator-wise map extends to a derivation by the
plain Leibniz rule D(a^b) = D(a)^b + a^D(b).

Each monomial carries two weights: the topological degree (number of
factors) and the degree (sum of the generator indices).  The degree is
preserved by every operator built here, which is what makes the graded,
block-diagonal cohomology computation possible.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .gf2 import echelon

__all__ = [
    "MAX_AMBIENT",
    "AmbientMismatch",
    "ImageOutsideCodomain",
    "Monomial",
    "Form",
    "Derivation",
    "graded_masks",
    "matrix_of",
    "image_columns",
    "block_pivots",
]

# A representation limit, one 64-bit lane per monomial mask; Betti work is
# bounded far lower, by cli.MAX_BETTI_DIM.
MAX_AMBIENT = 64


class AmbientMismatch(ValueError):
    """Operands live in exterior algebras of different ambient dimension."""


class ImageOutsideCodomain(ValueError):
    """An operator image escaped the stated codomain span (grading bug)."""


def _indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class Monomial(NamedTuple):
    """A basis monomial, encoded as an index bitmask plus its ambient n."""

    mask: int
    ambient: int

    @property
    def indices(self) -> tuple[int, ...]:
        return _indices(self.mask)

    @property
    def degree(self) -> int:
        """Sum of the generator indices."""
        return sum(_indices(self.mask))

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "^".join(f"e{i}" for i in self.indices)


def _check_ambient(n: int) -> None:
    if not 0 <= n <= MAX_AMBIENT:
        raise ValueError(f"ambient dimension must be in 0..{MAX_AMBIENT}, got {n}")


class _Frozen:
    """Slotted value classes: fields set once by the constructor, then read-only."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Form(_Frozen):
    """A GF(2) sum of monomials; the empty set is the zero form.

    ``terms`` is a frozenset of monomial bitmasks.  The constructor accepts
    masks or Monomial values and folds duplicates mod 2.
    """

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: int, terms: Iterable[Union[int, Monomial]] = ()):
        _check_ambient(ambient)
        acc: set[int] = set()
        limit = 1 << ambient
        for t in terms:
            if isinstance(t, Monomial):
                if t.ambient != ambient:
                    raise AmbientMismatch(f"monomial {t} of ambient {t.ambient} != {ambient}")
                mask = t.mask
            else:
                mask = t
            if not 0 <= mask < limit:
                raise ValueError(f"monomial {mask:#x} outside ambient dimension {ambient}")
            if mask in acc:
                acc.remove(mask)
            else:
                acc.add(mask)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", frozenset(acc))

    def monomials(self) -> tuple[Monomial, ...]:
        """Terms in canonical order (lexicographic on sorted index tuples)."""
        return tuple(
            Monomial(m, self.ambient) for m in sorted(self.terms, key=_indices)
        )

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} != {other.ambient}")
        out = Form.__new__(Form)
        object.__setattr__(out, "ambient", self.ambient)
        object.__setattr__(out, "terms", self.terms ^ other.terms)
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ambient, self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(m) for m in self.monomials())

    def __repr__(self) -> str:
        return f"Form({self.ambient}, {self})"


def _from_masks(ambient: int, masks: Iterable[int]) -> Form:
    # internal fast path: masks already deduplicated and range-checked
    out = Form.__new__(Form)
    object.__setattr__(out, "ambient", ambient)
    object.__setattr__(out, "terms", frozenset(masks))
    return out


class Derivation(_Frozen):
    """A derivation of the exterior algebra given by its generator images.

    Acts on a monomial by the Leibniz expansion (replace one factor at a
    time by its image, sum the results mod 2) and additively on forms.
    Generators without an entry map to zero; scalars map to zero.
    ``images`` is a read-only view of generator index -> frozenset of
    image masks, since a Derivation is an immutable public value.
    ``_pairs`` holds the same images as (bit of e^i, image masks of e^i),
    the form ``image_columns`` reads, built once here.
    """

    __slots__ = ("ambient", "images", "_table", "_pairs")

    def __init__(self, ambient: int, images: Mapping[int, Iterable[int]]):
        _check_ambient(ambient)
        limit = 1 << ambient
        table: dict[int, frozenset[int]] = {}
        for i, masks in images.items():
            if not 1 <= i <= ambient:
                raise ValueError(f"generator index {i} outside 1..{ambient}")
            ms = frozenset(masks)
            for m in ms:
                if not 0 <= m < limit:
                    raise ValueError("image monomial outside ambient dimension")
            if ms:
                table[i] = ms
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "images", MappingProxyType(table))
        # apply_mask reads the dict itself: its get takes half the proxy's time
        object.__setattr__(self, "_table", table)
        # from a list: tuple() of a generator resizes and fills the free lists (see RowVector)
        object.__setattr__(self, "_pairs", tuple([(1 << (i - 1), ms) for i, ms in table.items()]))

    def apply_mask(self, mask: int) -> set[int]:
        """Leibniz expansion of a single monomial, returned as a mask set."""
        acc: set[int] = set()
        images = self._table
        m = mask
        while m:
            low = m & -m
            m ^= low
            imgs = images.get(low.bit_length())
            if not imgs:
                continue
            rest = mask ^ low
            for img in imgs:
                if img & rest:
                    continue
                t = img | rest
                if t in acc:
                    acc.remove(t)
                else:
                    acc.add(t)
        return acc

    def apply_masks(self, masks: Iterable[int]) -> set[int]:
        acc: set[int] = set()
        for mask in masks:
            acc ^= self.apply_mask(mask)
        return acc

    def __call__(self, x: Union[Form, Monomial]) -> Form:
        if x.ambient != self.ambient:
            raise AmbientMismatch(f"{x.ambient} != {self.ambient}")
        if isinstance(x, Monomial):
            return _from_masks(self.ambient, self.apply_mask(x.mask))
        return _from_masks(self.ambient, self.apply_masks(x.terms))

    def __repr__(self) -> str:
        return f"Derivation(ambient={self.ambient}, generators={sorted(self.images)})"


_LANE_ONE = array("Q", [1]).tobytes()


@lru_cache(maxsize=None)
def graded_masks(n: int, k: int) -> Mapping[int, Sequence[int]]:
    """Degree -> masks of the k-monomials of that degree (index sum).

    Keys ascend and each bucket is in lexicographic order of the index
    tuples.  This read-only mapping is the one graded-basis cache.
    Each bucket is a read-only memoryview of packed 64-bit masks over
    immutable bytes: about a third of the memory of a tuple of ints, and
    no caller can change a cached bucket.

    Built by the lowest-generator recurrence, for 0 < k < n:

        bucket(n, k, m) = [2x + 1 for x in bucket(n-1, k-1, m-k)]
                       ++ [2x     for x in bucket(n-1, k,   m-k)]

    Proof.  In lexicographic order the k-monomials that contain e^1 come
    first.  Dropping e^1 and lowering every other index by one maps them,
    in order, onto the (k-1)-monomials of dimension n-1; as masks,
    x -> 2x + 1 inverts it.  Lowering every index by one maps the rest, in
    order, onto the k-monomials of dimension n-1, inverted by x -> 2x.
    Each map lowers the index sum by k (k-1 indices lowered and the 1
    dropped, or k indices lowered).  The base cases are k = 0 (the empty
    monomial, degree 0) and k = n (every index, degree n(n+1)/2).

    Each half is built at once on packed bytes: a mask of dimension
    n-1 <= 63 leaves bit 63 of its lane clear, so shifting the whole buffer,
    read as one int in native byte order, left by one moves every lane up
    with no carry between lanes, and OR-ing a 1 into every lane sets bit 0.
    The recursion reads dimension n-1 through this cache, so the cache also
    keeps the levels below n that it read.  Those hold at most
    sum(2^n' for n' < n) < 2^n masks, so once every k of dimension n is
    built, as a Betti table does, the cache holds less than twice the
    packed bytes of dimension n.
    """
    _check_ambient(n)
    if not 0 <= k <= n:
        raise ValueError(f"topological degree {k} outside 0..{n}")
    if k == 0 or k == n:
        packed = array("Q", [(1 << k) - 1]).tobytes()
        return MappingProxyType({k * (k + 1) // 2: memoryview(packed).cast("Q")})
    order = sys.byteorder
    parts: dict[int, list[bytes]] = {}
    for m, bucket in graded_masks(n - 1, k - 1).items():
        size = len(bucket.obj)
        ones = int.from_bytes(_LANE_ONE * (size // 8), order)
        shifted = int.from_bytes(bucket.obj, order) << 1 | ones
        parts[m + k] = [shifted.to_bytes(size, order)]
    for m, bucket in graded_masks(n - 1, k).items():
        size = len(bucket.obj)
        shifted = int.from_bytes(bucket.obj, order) << 1
        parts.setdefault(m + k, []).append(shifted.to_bytes(size, order))
    return MappingProxyType({m: memoryview(b"".join(parts[m])).cast("Q") for m in sorted(parts)})


# perfbench/ patches this by name; it goes with the benchmark upkeep (ROADMAP item 1).
def matrix_of(
    op: Derivation,
    domain: Sequence[Monomial],
    codomain: Sequence[Monomial],
) -> list[int]:
    """Columns of the matrix of ``op`` from ``domain`` to ``codomain``.

    Column j is an int over codomain positions: bit r is set when
    ``codomain[r]`` occurs in op(domain[j]).  Built term by term from
    ``Derivation.apply_mask``, independently of ``image_columns``, so the
    tests use it as the column oracle.  Raises ImageOutsideCodomain when an
    image term is not a codomain element, which always indicates a grading
    bookkeeping bug upstream.
    """
    position = {mono.mask: r for r, mono in enumerate(codomain)}
    columns = []
    for mono in domain:
        bits = 0
        for t in op.apply_mask(mono.mask):
            r = position.get(t)
            if r is None:
                raise ImageOutsideCodomain(
                    f"image term {Monomial(t, op.ambient)} of {mono} not in codomain"
                )
            bits |= 1 << r
        columns.append(bits)
    return columns


def image_columns(
    op: Derivation, domain: Iterable[int], row: Mapping[int, int]
) -> Iterator[int]:
    """The image of each ``domain`` mask under ``op`` as an int column.

    The column is the XOR of ``row[t]`` over the Leibniz terms t of the
    image, where ``row`` maps each codomain mask to its position bits.  No
    set of terms is built.  Raises ImageOutsideCodomain when a Leibniz term
    has no ``row`` entry, which always indicates a grading bookkeeping bug.
    """
    gens = op._pairs
    for mask in domain:
        col = 0
        try:
            for low, imgs in gens:
                if mask & low:
                    rest = mask ^ low
                    for img in imgs:
                        if not img & rest:
                            col ^= row[img | rest]
        except KeyError:
            n = op.ambient
            raise ImageOutsideCodomain(
                f"image term {Monomial(img | rest, n)} of {Monomial(mask, n)} not in codomain"
            ) from None
        yield col


def block_pivots(op: Derivation, domain: Iterable[int], codomain: Sequence[int]) -> int:
    """Pivot positions of ``op`` from the span of the ``domain`` masks to
    the span of the ``codomain`` masks, as a bitmask over codomain
    positions; its bit count is the GF(2) rank.  No matrix is built.

    Each image column from ``image_columns`` is eliminated by
    ``gf2.echelon`` as it is built, so the pivots are an echelon basis of
    the image with distinct leading (highest) positions.  Raises
    ImageOutsideCodomain as ``image_columns`` does.
    """
    row = {mask: 1 << r for r, mask in enumerate(codomain)}
    positions = 0
    for top in echelon(image_columns(op, domain, row)):
        positions |= 1 << (top - 1)
    return positions
