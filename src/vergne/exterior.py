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
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "MAX_AMBIENT",
    "AmbientMismatch",
    "ImageOutsideCodomain",
    "Monomial",
    "Form",
    "Derivation",
    "graded_masks",
    "matrix_of",
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


def _text(mask: int) -> str:
    """The monomial of ``mask`` as text, e1^e3 for 0b101, 1 for 0."""
    return "^".join(f"e{i}" for i in _indices(mask)) or "1"


def _outside_codomain(term: int, mask: int) -> ImageOutsideCodomain:
    return ImageOutsideCodomain(f"image term {_text(term)} of {_text(mask)} not in codomain")


class Monomial(namedtuple("Monomial", "mask ambient")):
    """A basis monomial: an index bitmask, refused outside its ambient n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, mask: int, ambient: int):
        _check_ambient(ambient)
        if not 0 <= mask < 1 << ambient:
            raise ValueError(f"monomial {mask:#x} outside ambient dimension {ambient}")
        return super().__new__(cls, mask, ambient)

    @property
    def indices(self) -> tuple[int, ...]:
        return _indices(self.mask)

    @property
    def degree(self) -> int:
        """Sum of the generator indices."""
        return sum(_indices(self.mask))

    def __str__(self) -> str:
        return _text(self.mask)


def _check_ambient(n: int, name: str = "ambient dimension", lo: int = 0,
                   hi: int = MAX_AMBIENT) -> None:
    """Refuse a non-int n, bool included, and n outside lo..hi, before any work."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{name} must be an int, got {n!r}")
    if not lo <= n <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}, got {n}")


class _Frozen:
    """Slotted value classes: fields set once by the constructor, then read-only."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Form(_Frozen):
    """A GF(2) sum of monomials; the empty set is the zero form.

    ``terms`` is a frozenset of monomial bitmasks.  The constructor, the
    only one, accepts masks or Monomial values, refuses a mask outside the
    ambient, and folds duplicates mod 2.
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
        return Form(self.ambient, self.terms ^ other.terms)

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


class Derivation(_Frozen):
    """A derivation of the exterior algebra given by its generator images.

    Acts on a monomial by the Leibniz expansion (replace one factor at a
    time by its image, sum the results mod 2) and additively on forms.
    Generators without an entry map to zero; scalars map to zero.  Each
    image is the sum of its masks mod 2, as in ``Form``: a repeated mask
    cancels.  ``_table`` is the one store of the images: the bit of e^i
    (``1 << (i-1)``) -> frozenset of image masks of e^i, for the nonzero
    images in input order.  ``images`` is a read-only view of the same
    images keyed by generator index, built on each read.
    """

    __slots__ = ("ambient", "_table")

    def __init__(self, ambient: int, images: Mapping[int, Iterable[int]]):
        _check_ambient(ambient)
        limit = 1 << ambient
        table: dict[int, frozenset[int]] = {}
        for i, masks in images.items():
            if not 1 <= i <= ambient:
                raise ValueError(f"generator index {i} outside 1..{ambient}")
            try:
                size = len(masks)
            except TypeError:  # an iterator: read it once, into a list
                masks = list(masks)
                size = len(masks)
            ms = frozenset(masks)
            for m in ms:
                if not 0 <= m < limit:
                    raise ValueError("image monomial outside ambient dimension")
            if len(ms) != size:  # a repeated mask: sum the image mod 2, as Form does
                ms = Form(ambient, masks).terms
            if ms:
                table[1 << (i - 1)] = ms
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_table", table)

    @property
    def images(self) -> Mapping[int, frozenset[int]]:
        """Generator index -> frozenset of image masks, read-only."""
        return MappingProxyType({bit.bit_length(): ms for bit, ms in self._table.items()})

    def apply_masks(self, masks: Iterable[int]) -> set[int]:
        """Leibniz expansion of the sum of ``masks``, as one set of masks."""
        acc: set[int] = set()
        table = self._table
        for mask in masks:
            m = mask
            while m:
                low = m & -m
                m ^= low
                imgs = table.get(low)
                if imgs:
                    rest = mask ^ low
                    for img in imgs:
                        if not img & rest:
                            t = img | rest
                            if t in acc:
                                acc.remove(t)
                            else:
                                acc.add(t)
        return acc

    def apply_mask(self, mask: int) -> set[int]:
        """Leibniz expansion of a single monomial, returned as a mask set."""
        return self.apply_masks((mask,))

    def __call__(self, x: Union[Form, Monomial]) -> Form:
        if x.ambient != self.ambient:
            raise AmbientMismatch(f"{x.ambient} != {self.ambient}")
        if isinstance(x, Monomial):  # Form refuses a mask outside the ambient
            x = Form(self.ambient, (x,))
        return Form(self.ambient, self.apply_masks(x.terms))

    def __repr__(self) -> str:
        return f"Derivation(ambient={self.ambient}, generators={sorted(self.images)})"


_LANE_ONE = array("Q", [1]).tobytes()


@lru_cache(maxsize=None, typed=True)  # typed, so 6.0 misses the entry of 6 and is refused
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
    ``Derivation.apply_mask``, independently of ``cohomology._block_pivots``, so the
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
                raise _outside_codomain(t, mono.mask)
            bits |= 1 << r
        columns.append(bits)
    return columns
