"""Central extensions, decomposition to dimension 5, and the Betti partner.

A one-dimensional central extension of an n-dimensional algebra by a
homogeneous 2-cocycle omega of degree n+1 that contains e^1^e^n stays
inside the Vergne class: the cocycle coefficients become the new
structure constants c_{i,j} with i+j = n+1.  The inverse direction drops
e_n and reads the cocycle back off the c-table, which decomposes every
algebra into a chain of extensions rooted at one of the two dimension-5
models.  Swapping the root and pushing each cocycle through the
involution yields a different algebra with the same Betti numbers.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .core import (
    MIN_DIMENSION,
    VergneAlgebra,
    differential,
    involution,
    m0,
    m2,
)
from .exterior import AmbientMismatch, Form, Monomial, graded_masks, image_columns
from .gf2 import solve_affine

__all__ = [
    "NotACocycle",
    "NotHomogeneousTopDegree",
    "MissingLeadingTerm",
    "ExtensionStep",
    "Decomposition",
    "central_extension",
    "admissible_cocycles",
    "reduce",
    "decompose",
    "partner",
    "has_codim1_abelian_ideal",
]


class NotACocycle(ValueError):
    """d(omega) != 0 for the base algebra."""


class NotHomogeneousTopDegree(ValueError):
    """omega is not a homogeneous 2-form of degree n+1."""


class MissingLeadingTerm(ValueError):
    """omega lacks the e^1^e^n monomial, so the extension leaves the class."""


class ExtensionStep(NamedTuple):
    """One extension step: the base algebra and the cocycle used on it."""

    base: VergneAlgebra
    omega: Form


class Decomposition(NamedTuple):
    """An algebra as a chain of central extensions over a dimension-5 root.

    ``steps`` are ordered bottom-up: steps[0] extends the root, the last
    step lands on the original algebra.
    """

    root: VergneAlgebra
    steps: tuple[ExtensionStep, ...]

    def replay(self) -> VergneAlgebra:
        g = self.root
        for step in self.steps:
            if step.base != g:
                raise ValueError("decomposition steps are out of order")
            g = central_extension(g, step.omega)
        return g

    def to_json_dict(self) -> dict:
        return {
            "root": str(self.root.row()),
            "omegas": [str(step.omega) for step in self.steps],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _leading_mask(n: int) -> int:
    return 1 | (1 << (n - 1))  # e^1 ^ e^n


def _check_extension_cocycle(g: VergneAlgebra, omega: Form) -> None:
    n = g.n
    if omega.ambient != n:
        raise AmbientMismatch(f"cocycle ambient {omega.ambient} != {n}")
    for mask in omega.terms:
        if mask.bit_count() != 2:
            raise NotHomogeneousTopDegree(
                f"term {Monomial(mask, n)} is not a 2-form"
            )
    if _leading_mask(n) not in omega.terms:
        raise MissingLeadingTerm("cocycle has no e^1^e^n component")
    for mask in omega.terms:
        if Monomial(mask, n).degree != n + 1:
            raise NotHomogeneousTopDegree(
                f"term {Monomial(mask, n)} has degree != {n + 1}"
            )
    if differential(g)(omega):
        raise NotACocycle(f"d({omega}) != 0")


def central_extension(g: VergneAlgebra, omega: Form) -> VergneAlgebra:
    """The (n+1)-dimensional extension of g along omega.

    omega must be a homogeneous 2-cocycle of degree n+1 containing
    e^1^e^n; its other coefficients become the c_{i,j} with i+j = n+1.
    """
    _check_extension_cocycle(g, omega)
    n = g.n
    pairs = set(g.c)
    for mask in omega.terms:
        mono = Monomial(mask, n)
        i, j = mono.indices
        if i == 1:
            continue  # the leading term is the new [e_1, e_n] = e_{n+1} relation
        pairs.add((i, j))
    return VergneAlgebra(n + 1, pairs)


def admissible_cocycles(g: VergneAlgebra) -> list[Form]:
    """Every homogeneous degree-(n+1) 2-cocycle with the e^1^e^n term.

    Solved exactly: the e^1^e^n coefficient is pinned to 1 and d(omega)=0
    becomes an affine GF(2) system over the remaining slice coefficients.
    The full solution coset is enumerated; empty when inconsistent.
    """
    n = g.n
    d = differential(g)
    lead = _leading_mask(n)
    slice2 = graded_masks(n, 2)[n + 1]
    row = {q: 1 << r for r, q in enumerate(graded_masks(n, 3)[n + 1])}
    columns = dict(zip(slice2, image_columns(d, slice2, row)))
    rhs = columns.pop(lead)
    others = list(columns)
    solved = solve_affine(list(columns.values()), rhs)
    if solved is None:
        return []
    particular, kernel = solved
    coset = [particular]
    for v in kernel:
        coset += [x ^ v for x in coset]
    forms = []
    for x in coset:
        masks = {lead}
        for idx, mask in enumerate(others):
            if (x >> idx) & 1:
                masks.add(mask)
        forms.append(Form(n, masks))
    forms.sort(key=lambda f: tuple(mo.indices for mo in f.monomials()))
    return forms


def reduce(g: VergneAlgebra) -> tuple[VergneAlgebra, Form]:
    """Invert one extension: drop e_n and recover the cocycle.

    The base keeps every c_{i,j} with i+j <= n-1; the cocycle is
    e^1^e^{n-1} plus the c_{i,j} terms with i+j = n.  Extending the base
    by it gives g back exactly.
    """
    n = g.n
    if n <= MIN_DIMENSION:
        raise ValueError(f"cannot reduce below dimension {MIN_DIMENSION}")
    base = VergneAlgebra(n - 1, [(i, j) for (i, j) in g.c if i + j <= n - 1])
    masks = {_leading_mask(n - 1)}
    for (i, j) in g.c:
        if i + j == n:
            masks.add((1 << (i - 1)) | (1 << (j - 1)))
    return base, Form(n - 1, masks)


def decompose(g: VergneAlgebra) -> Decomposition:
    """Peel extensions down to the dimension-5 root and record the chain."""
    steps: list[ExtensionStep] = []
    cur = g
    while cur.n > MIN_DIMENSION:
        base, omega = reduce(cur)
        steps.append(ExtensionStep(base, omega))
        cur = base
    steps.reverse()
    return Decomposition(root=cur, steps=tuple(steps))


def partner(g: VergneAlgebra) -> VergneAlgebra:
    """A non-isomorphic algebra with the same Betti numbers.

    Decompose g, swap the dimension-5 root for the other model, and
    re-extend with the involution applied to every step cocycle.  The two
    roots are distinguished by the codimension-1 abelian ideal, and the
    conjugation squares transport along the extensions, so the Betti
    numbers agree at every dimension.  Involutive: partner(partner(g)) == g.
    """
    dec = decompose(g)
    swapped = m2(MIN_DIMENSION) if dec.root == m0(MIN_DIMENSION) else m0(MIN_DIMENSION)
    cur = swapped
    for step in dec.steps:
        cur = central_extension(cur, involution(step.omega))
    return cur


def has_codim1_abelian_ideal(g: VergneAlgebra) -> bool:
    """Whether g has an abelian ideal of codimension 1.

    Any codimension-1 ideal contains the derived subalgebra
    span(e_3..e_n); over GF(2) that leaves exactly three hyperplanes to
    test, spanned by e_3..e_n together with e_1, e_2 or e_1 + e_2.
    """
    n = g.n

    def brackets_to_zero(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
        coeffs = 0
        for i in u:
            for j in w:
                c, k = g.bracket_index(i, j)
                if c:
                    coeffs ^= 1 << k
        return coeffs == 0

    tail = [(k,) for k in range(3, n + 1)]
    for head in ((1,), (2,), (1, 2)):
        members = [head] + tail
        if all(
            brackets_to_zero(members[a], members[b])
            for a in range(len(members))
            for b in range(a + 1, len(members))
        ):
            return True
    return False
