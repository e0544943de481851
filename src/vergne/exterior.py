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

from array import array
from functools import lru_cache
from itertools import combinations
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
    "wedge",
    "graded_masks",
    "matrix_of",
    "image_columns",
    "block_pivots",
    "parse_form",
]

# One machine word per monomial; far above the interesting range n <= 14.
MAX_AMBIENT = 64


class AmbientMismatch(ValueError):
    """Operands live in exterior algebras of different ambient dimension."""


class ImageOutsideCodomain(ValueError):
    """An operator image escaped the stated codomain span (grading bug)."""


def _mask_from_indices(indices: Iterable[int], ambient: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= ambient:
            raise ValueError(f"generator index {i} outside 1..{ambient}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


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

    @classmethod
    def from_indices(cls, indices: Iterable[int], ambient: int) -> "Monomial":
        _check_ambient(ambient)
        return cls(_mask_from_indices(indices, ambient), ambient)

    @property
    def indices(self) -> tuple[int, ...]:
        return _indices(self.mask)

    @property
    def degree(self) -> int:
        """Sum of the generator indices."""
        total, mask = 0, self.mask
        while mask:
            low = mask & -mask
            total += low.bit_length()
            mask ^= low
        return total

    @property
    def top_degree(self) -> int:
        """Number of wedge factors."""
        return self.mask.bit_count()

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "^".join(f"e{i}" for i in self.indices)


def _check_ambient(n: int) -> None:
    if not 0 <= n <= MAX_AMBIENT:
        raise ValueError(f"ambient dimension must be in 0..{MAX_AMBIENT}, got {n}")


class Form:
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

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Form is immutable")

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


def wedge(a: Form, b: Form) -> Form:
    """Exterior product, bilinear over GF(2); x^x = 0, no signs in char 2."""
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"{a.ambient} != {b.ambient}")
    acc: set[int] = set()
    for x in a.terms:
        for y in b.terms:
            if x & y:
                continue
            m = x | y
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
    return _from_masks(a.ambient, acc)


class Derivation:
    """A derivation of the exterior algebra given by its generator images.

    Acts on a monomial by the Leibniz expansion (replace one factor at a
    time by its image, sum the results mod 2) and additively on forms.
    Generators without an entry map to zero; scalars map to zero.
    """

    __slots__ = ("ambient", "images")

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
        self.ambient = ambient
        self.images = table

    def apply_mask(self, mask: int) -> set[int]:
        """Leibniz expansion of a single monomial, returned as a mask set."""
        acc: set[int] = set()
        images = self.images
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
        if isinstance(x, Monomial):
            if x.ambient != self.ambient:
                raise AmbientMismatch(f"{x.ambient} != {self.ambient}")
            return _from_masks(self.ambient, self.apply_mask(x.mask))
        if x.ambient != self.ambient:
            raise AmbientMismatch(f"{x.ambient} != {self.ambient}")
        return _from_masks(self.ambient, self.apply_masks(x.terms))

    def __repr__(self) -> str:
        return f"Derivation(ambient={self.ambient}, generators={sorted(self.images)})"


@lru_cache(maxsize=None)
def graded_masks(n: int, k: int) -> Mapping[int, Sequence[int]]:
    """Degree -> masks of the k-monomials of that degree (index sum).

    Keys ascend and each bucket is in lexicographic order of the index
    tuples.  This read-only mapping is the one graded-basis cache.
    Each bucket is a read-only memoryview of packed 64-bit masks over
    immutable bytes: about a third of the memory of a tuple of ints, and
    no caller can change a cached bucket.
    """
    _check_ambient(n)
    if not 0 <= k <= n:
        raise ValueError(f"topological degree {k} outside 0..{n}")
    buckets: dict[int, list[int]] = {}
    for c in combinations(range(n), k):
        mask = 0
        for i in c:
            mask |= 1 << i
        buckets.setdefault(sum(c) + k, []).append(mask)
    return MappingProxyType({
        m: memoryview(array("Q", v).tobytes()).cast("Q")
        for m, v in sorted(buckets.items())
    })


# perfbench/ patches this by name; it goes with the benchmark upkeep (ROADMAP item 5).
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


def image_columns(op: Derivation, domain: Iterable[int], row: Mapping[int, int]) -> Iterator[int]:
    """The image of each ``domain`` mask under ``op`` as an int column.

    The column is the XOR of ``row[t]`` over the Leibniz terms t of the
    image, where ``row`` maps each codomain mask to its position bits.  No
    set of terms is built.  Raises ImageOutsideCodomain when a Leibniz term
    has no ``row`` entry, which always indicates a grading bookkeeping bug.
    """
    gens = [(1 << (i - 1), imgs) for i, imgs in op.images.items()]
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
    """Pivot positions of ``op`` from the span of the ``domain`` masks to the
    span of the ``codomain`` masks, as a bitmask over codomain positions;
    its bit count is the GF(2) rank.  No matrix is built.

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


_TERM_SPLIT = "+"


def parse_form(text: str, ambient: int) -> Form:
    """Parse the textual syntax ``e1^e6 + e3^e4`` (also ``0`` and ``1``).

    Caret is the wedge, plus the GF(2) sum; term order and whitespace are
    irrelevant.  Round-trips with ``str(form)``.
    """
    _check_ambient(ambient)
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty form expression")
    masks: list[int] = []
    for term in compact.split(_TERM_SPLIT):
        if not term:
            raise ValueError(f"empty term in {text!r}")
        if term == "0":
            continue
        if term == "1":
            masks.append(0)
            continue
        indices = []
        for factor in term.split("^"):
            if not factor.startswith("e") or not factor[1:].isdigit():
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            indices.append(int(factor[1:]))
        masks.append(_mask_from_indices(indices, ambient))
    return Form(ambient, masks)
