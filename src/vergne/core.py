"""Filiform Lie algebras of Vergne type over GF(2).

An algebra of dimension n has a basis e_1..e_n with [e_1, e_i] = e_{i+1}
for 2 <= i <= n-1 and [e_i, e_j] = c_{i,j} e_{i+j} for i, j >= 2 with
i+j <= n.  Over GF(2) the bracket is symmetric in its structure constants
(signs vanish), c_{i,i} = 0, and the Jacobi identities involving e_1
collapse to the completion rule

    c_{i+1,j} = c_{i,j} + c_{i,j+1}        (out-of-range entries read 0)

so the whole table is determined by the e_2 row.  That row is encoded as
[0, c_{2,3}, ..., c_{2,n-2}, 0, 0] with forced zero padding at positions
2, n-1 and n.

An algebra is validated once, on construction, by d(d(e^k)) = 0 for the
Chevalley-Eilenberg differential d.  That single identity is the whole
Jacobi identity: the e^1^e^i^e^j coefficients of d(d(e^k)) are the
completion identities (the derived diagonal when j = i+1) and the other
coefficients are the cyclic triples.  d(d(e^k)) is computed by applying d,
term by term, to the stored image d(e^k): the Leibniz expansion of the
lone generator e^k replaces its one factor by d(e^k), so it would only
copy that image first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .exterior import MAX_AMBIENT, Derivation, Form, _check_ambient, _Frozen, _indices

__all__ = [
    "MIN_DIMENSION",
    "JacobiViolation",
    "RowVector",
    "VergneAlgebra",
    "m0",
    "m2",
    "from_row",
    "parse_row",
    "differential",
    "involution",
]

# The structure theory below (pairing, decomposition to the two
# dimension-5 models) starts at dimension 5; smaller inputs are rejected.
MIN_DIMENSION = 5


def _check_dimension(n: int, name: str = "dimension", hi: int = MAX_AMBIENT) -> None:
    """The one statement of the dimension range: refuse a non-int n or n outside 5..hi."""
    _check_ambient(n, name, MIN_DIMENSION, hi)


class JacobiViolation(ValueError):
    """The given structure constants do not define a Lie algebra.

    Carries the first failing constraint: either ``triple`` (i, j, k) for a
    cyclic Jacobi identity, or ``index`` i when the derived diagonal entry
    c_{i,i} comes out nonzero.
    """

    def __init__(self, message: str, *, triple: tuple[int, int, int] | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.triple = triple
        self.index = index


class RowVector(_Frozen):
    """The e_2 bracket row [0, c_{2,3}, ..., c_{2,n-2}, 0, 0].

    ``bits[j-2]`` is the coefficient of e_{2+j} in [e_2, e_j], j = 2..n.
    Positions 2, n-1 and n are padding and must be zero.
    """

    __slots__ = ("n", "bits")

    def __init__(self, bits: Iterable[int]):
        # Entries are checked before int(), which would truncate 0.5 or 1.9.
        # Built from a list so the tuple is allocated at its final size;
        # tuple() of a generator grows by resizing, and in CPython the resized
        # tuples pile up in the per-size free lists of a long-running process.
        raw = list(bits)
        if not {0, 1}.issuperset(raw):
            raise ValueError("row entries must be 0 or 1")
        bits = tuple([int(b) for b in raw])
        n = len(bits) + 1
        _check_dimension(n, "row dimension")
        if bits[0] != 0:
            raise JacobiViolation("row position 2 must be 0 (c_{2,2} = 0)", index=2)
        if bits[-2] != 0 or bits[-1] != 0:
            raise JacobiViolation(
                f"row positions {n - 1} and {n} must be 0 ([e_2, e_j] would leave the algebra)"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowVector):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __str__(self) -> str:
        return _row_text(self.bits)

    def __repr__(self) -> str:
        return f"RowVector({self})"


@lru_cache(maxsize=None)
def _row_text(bits: tuple[int, ...]) -> str:
    # Rows are printed and compared as text over and over (labels, JSON,
    # transcripts); format each distinct row once and share the string.
    return "[" + ", ".join(str(b) for b in bits) + "]"


def parse_row(text: str) -> RowVector:
    """Parse ``[0, 1, 1, 0, 0, 0]``; brackets and whitespace optional."""
    inner = text.strip()
    if inner.startswith("["):
        if not inner.endswith("]"):
            raise ValueError(f"unbalanced brackets in {text!r}")
        inner = inner[1:-1]
    parts = [p.strip() for p in inner.split(",")] if inner.strip() else []
    if not parts or any(p not in ("0", "1") for p in parts):
        raise ValueError(f"row entries must be 0 or 1: {text!r}")
    return RowVector(int(p) for p in parts)


def _image(rows: Sequence[int], k: int) -> list[int]:
    """The terms of d(e^k), k >= 3, as masks: e^1^e^{k-1} and the e^i^e^j
    with i < j, i + j = k and c_{i,j} = 1 (bit j of ``rows[i]``)."""
    return [1 | 1 << (k - 2)] + [1 << (i - 1) | 1 << (k - i - 1)
                                 for i in range(2, (k + 1) // 2) if rows[i] >> (k - i) & 1]


def _differential(n: int, rows: Sequence[int]) -> Derivation:
    """Chevalley-Eilenberg differential of the (unvalidated) table ``rows``:
    each d(e^k) as ``_image`` gives it, filled from the set bits of the rows.
    Rows i > (n-1)/2 hold no bit, since c_{i,j} needs i < j and i + j <= n."""
    images = {k: [1 | 1 << (k - 2)] for k in range(3, n + 1)}
    for i in range(2, (n + 1) // 2):
        r = rows[i]
        while r:
            low = r & -r
            r ^= low
            images[i + low.bit_length() - 1].append(1 << (i - 1) | low >> 1)
    return Derivation(n, images)


def _violation(mask: int) -> JacobiViolation:
    """The constraint read off a nonzero term e^a^e^b^e^c of d(d(e^k))."""
    a, b, c = _indices(mask)
    if a == 1 and c == b + 1:
        return JacobiViolation(f"derived diagonal entry c[{c},{c}] is nonzero", index=c)
    if a == 1:
        return JacobiViolation(f"completion identity fails at c[{b},{c}]", triple=(1, b, c))
    return JacobiViolation(f"Jacobi identity fails on (e{a}, e{b}, e{c})", triple=(a, b, c))


class VergneAlgebra(_Frozen):
    """Immutable, validated Vergne-type algebra: dimension plus c-table.

    The c-table is held as ``rows``, one int per index i in 0..n: bit j of
    ``rows[i]`` is c_{i,j} for 2 <= i < j with i + j <= n, and every other
    bit is 0, so equal tables have equal rows.  ``c`` is the same table as a
    frozenset of pairs (i, j), i < j, built on each read.  No differential
    is kept: ``differential`` builds one per call.

    Construction checks d(d(e^k)) = 0 for every generator, so any held
    instance is a genuine Lie algebra.  d is applied term by term to the
    stored image d(e^k), which is the expansion of e^k itself, so this is
    the same check with no copy of the image.  A failure reports the
    lexicographically smallest nonzero term of d(d(e^k)) over all k, which
    is the first failing constraint in the order completion identities,
    then cyclic triples.  Before that check, the pairs constructor refuses
    a pair that is not two indices (ValueError), an index that is not
    exactly an int, bool and ``IntEnum`` members included (TypeError), and
    a pair out of range (ValueError).
    """

    __slots__ = ("n", "rows", "_betti", "_row")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        _check_dimension(n)
        rows = [0] * (n + 1)
        for pair in pairs:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"structure constant pair must be two indices, got {pair!r}") from None
            for x in (i, j):
                if type(x) is not int:
                    raise TypeError(f"structure constant index must be an int, got {x!r}")
            if i > j:
                i, j = j, i
            if not (2 <= i < j and i + j <= n):
                raise ValueError(f"structure constant c[{i},{j}] out of range")
            rows[i] |= 1 << j
        _fill(self, n, rows)

    @property
    def c(self) -> frozenset[tuple[int, int]]:
        """The pairs (i, j), i < j, with c_{i,j} = 1, read off ``rows``."""
        return frozenset([(i, j) for i, r in enumerate(self.rows)
                          for j in range(r.bit_length()) if r >> j & 1])

    def structure_constant(self, i: int, j: int) -> int:
        """c_{i,j}, symmetrized; zero for i = j and out-of-range pairs."""
        if i > j:
            i, j = j, i
        if 2 <= i < j and i + j <= self.n:
            return self.rows[i] >> j & 1
        return 0

    def bracket_index(self, i: int, j: int) -> tuple[int, int]:
        """[e_i, e_j] as (coefficient, target index); (0, 0) when zero."""
        if i > j:
            i, j = j, i
        if i == 1:
            return (1, j + 1) if 2 <= j <= self.n - 1 else (0, 0)
        if self.structure_constant(i, j):
            return (1, i + j)
        return (0, 0)

    def row(self) -> RowVector:
        """The e_2 row; built on the first call, then read from its slot."""
        if self._row is None:
            r = self.rows[2]
            row = RowVector([r >> j & 1 for j in range(2, self.n + 1)])
            object.__setattr__(self, "_row", row)
        return self._row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VergneAlgebra):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"VergneAlgebra(n={self.n}, row={self.row()})"


def _fill(g: VergneAlgebra, n: int, rows: Sequence[int]) -> VergneAlgebra:
    """Validate ``rows`` as an n-dimensional c-table and store them in g.

    The one validation of both constructors: build d, check d(d(e^k)) = 0
    at every k, and drop d.  The terms of d(e^k) all have degree k, and d
    keeps the degree, so the d(d(e^k)) of different k share no term and
    one ``apply_masks`` over every term of d's stored images is their
    union.  ``rows`` has n + 1 entries holding only the bits j of
    ``rows[i]`` with 2 <= i < j and i + j <= n.
    """
    d = _differential(n, rows)
    bad = d.apply_masks([t for image in d._table.values() for t in image])
    if bad:
        raise _violation(min(bad, key=_indices))
    return _set_slots(g, n, rows)


def _set_slots(g: VergneAlgebra, n: int, rows: Sequence[int]) -> VergneAlgebra:
    """Set every slot of g: n, the rows as a tuple, and the empty caches.
    The one initializer, which ``_fill`` and ``_store`` both call, so a new
    slot is given its first value here."""
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", tuple(rows))
    object.__setattr__(g, "_betti", None)
    object.__setattr__(g, "_row", None)
    return g


def _store(n: int, rows: Sequence[int]) -> VergneAlgebra:
    """The algebra of a c-table proven valid, stored with no check.

    ``rows`` is in the form ``_fill`` states.  The one caller is
    ``extensions._children``, which stores the extension of a held g by a
    2-form omega only once ``extensions._child_rows`` has read
    d_g(omega) = 0 off g's rows.  Proof
    that the table is valid.  The extension's d equals g's on e^1..e^n,
    and g is valid (every held instance is), so d(d(e^k)) = 0 at every
    k <= n.  It sends e^{n+1} to omega, so d(d(e^{n+1})) = d_g(omega) = 0.
    That is the whole check ``_fill`` makes, which
    ``extensions.central_extension`` still runs.
    """
    return _set_slots(VergneAlgebra.__new__(VergneAlgebra), n, rows)


def _from_rows(n: int, rows: Sequence[int]) -> VergneAlgebra:
    """The algebra of a c-table given as rows, validated as ``VergneAlgebra``
    validates pairs; ``rows`` is in the form ``_fill`` states."""
    _check_dimension(n)
    return _fill(VergneAlgebra.__new__(VergneAlgebra), n, rows)


def m0(n: int) -> VergneAlgebra:
    """The model algebra with [e_1, e_i] = e_{i+1} only."""
    return VergneAlgebra(n, ())


def _m2_rows(n: int) -> tuple[int, ...]:
    """The c-table of m2(n) as rows: c_{2,j} = 1 exactly for 3 <= j <= n-2.

    The completion rule adds nothing to this row: c_{3,j} = c_{2,j} +
    c_{2,j+1} is 0 for 4 <= j <= n-3, and c_{3,n-2} is out of range.
    """
    rows = [0] * (n + 1)  # n >= 5, so row 2 exists: every caller holds a checked n
    rows[2] = (1 << (n - 1)) - 8  # bits 3..n-2
    return tuple(rows)


def m2(n: int) -> VergneAlgebra:
    """The model algebra with the extra relations [e_2, e_j] = e_{j+2}."""
    _check_dimension(n)  # before _m2_rows sizes a list by n
    return _from_rows(n, _m2_rows(n))


def _complete_row(row: RowVector) -> list[int]:
    """Fill the full c-table from the e_2 row by the completion rule, as rows.

    Row 2 is the e_2 row: bit j is c_{2,j}, for j = 3..n-2.  Each later row
    is one bitwise step from the row before:

        rows[i+1] = (rows[i] ^ rows[i] >> 1) & window(i+2 .. n-i-1)

    where window(a .. b) is the mask of bits a..b.  Proof.  The completion
    rule c_{i+1,j} = c_{i,j} + c_{i,j+1} fills exactly the pairs (i+1, j)
    with i+1 < j and (i+1) + j <= n, that is j in i+2..n-i-1, which is the
    window.  Bit j of rows[i] ^ rows[i] >> 1 is bit j plus bit j+1 of
    rows[i], that is c_{i,j} + c_{i,j+1}; both pairs are in range, since
    i < j and i + (j+1) <= n.  Row i+1 reads only row i, so filling the
    rows for i = 2, 3, ... in turn reads each row complete.  Once
    2i + 3 > n the window is empty, and those rows stay 0.

    Purely mechanical: the derived diagonal entry c_{i+1,i+1} (bit i+1 of
    the step) is left out by the window, that is treated as zero, so the
    result may still violate the diagonal or triple constraints.  Those are
    caught by validation (the completion identities for the off-diagonal
    pairs hold by construction).
    """
    n = row.n
    rows = [0] * (n + 1)
    rows[2] = sum([b << j for j, b in enumerate(row.bits, 2)])
    for i in range(2, (n - 1) // 2):
        r = rows[i]
        rows[i + 1] = (r ^ r >> 1) & ((1 << (n - i)) - (1 << (i + 2)))
    return rows


def from_row(row: RowVector | str) -> VergneAlgebra:
    """Build the algebra encoded by an e_2 row, completing via Jacobi.

    Raises JacobiViolation when the row does not encode a Lie algebra
    (first failing diagonal index or triple attached).
    """
    if isinstance(row, str):
        row = parse_row(row)
    return _from_rows(row.n, _complete_row(row))


def differential(g: VergneAlgebra) -> Derivation:
    """The Chevalley-Eilenberg differential: d(e^1) = d(e^2) = 0 and

    d(e^k) = e^1^e^{k-1} + sum over i+j = k, 1 < i < j of c_{i,j} e^i^e^j.

    Maps each graded slice of k-forms into the same-degree slice of
    (k+1)-forms.  Built from ``g.rows`` on each call; the algebra keeps
    no differential.
    """
    return _differential(g.n, g.rows)


# L: e^i -> e^{i-1} for i >= 3, at the representation limit, so every n reads it.
_LOWERING = Derivation(MAX_AMBIENT, {i: (1 << (i - 2),) for i in range(3, MAX_AMBIENT + 1)})


def _involution_masks(masks: Iterable[int]) -> set[int]:
    """f = id + e^2^L∘ι on monomial masks: ι strips e^1 from the terms that
    hold it and drops the rest, ``_LOWERING.apply_masks`` sums the L-terms
    mod 2 across them all, and e^2^ drops each term that holds e^2."""
    lowered = _LOWERING.apply_masks([h ^ 1 for h in masks if h & 1])
    return set(masks) ^ {t | 2 for t in lowered if not t & 2}


def involution(h: Form) -> Form:
    """The degree-preserving involution f on homogeneous k-forms, k in 2..n.

    f = id + e^2^L∘ι, where ι contracts by e_1 and L is the derivation
    lowering each index i >= 3 by one (L(e^1) = L(e^2) = 0).  Splitting
    h = e^1^x + y with x, y free of e^1, f(h) = h + e^2^L(x).  Applying it
    twice gives h back: e^2^L(x) is free of e^1, so ι kills it.
    """
    if not h.terms:
        return h
    tds = {m.bit_count() for m in h.terms}
    if len(tds) != 1:
        raise ValueError("involution needs a homogeneous topological degree")
    _check_ambient(tds.pop(), "topological degree", 2, h.ambient)
    return Form(h.ambient, _involution_masks(h.terms))
