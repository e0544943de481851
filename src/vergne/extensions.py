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

from typing import Iterable, NamedTuple, Sequence

from .core import (
    MIN_DIMENSION,
    JacobiViolation,
    VergneAlgebra,
    _from_rows,
    _image,
    _m2_rows,
    _not_an_algebra,
    _store,
    involution,
    m0,
    m2,
)
from .exterior import AmbientMismatch, Form, _indices, _text

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
    "partners",
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


def central_extension(g: VergneAlgebra, omega: Form) -> VergneAlgebra:
    """The (n+1)-dimensional extension of g along omega.

    omega must be a homogeneous 2-cocycle of degree n+1 containing
    e^1^e^n; its other coefficients become the c_{i,j} with i+j = n+1.
    The checks run in one pass, in this order: omega's ambient is n
    (AmbientMismatch), it holds e^1^e^n (MissingLeadingTerm), and then
    each term is a 2-form of degree n+1 (NotHomogeneousTopDegree).
    d_g(omega) = 0 is left to the extension's own validation (``_extended``).
    Before all of them, a g that is not a ``VergneAlgebra`` or an omega
    that is not a ``Form`` is refused (TypeError naming it).
    """
    return _extended(_extension_rows(g, omega), omega)


def _extended(rows: Sequence[int], omega: Form) -> VergneAlgebra:
    """The algebra of an extension's ``rows`` (``_extension_rows``) along
    omega, validated.  Validation checks exactly d_g(omega) = 0 (the proof
    is in ``_child_rows``), so its JacobiViolation is raised as NotACocycle,
    here only: ``central_extension`` and ``partners`` both call it."""
    try:
        return _from_rows(omega.ambient + 1, rows)
    except JacobiViolation:
        raise NotACocycle(f"d({omega}) != 0") from None


def _extension_rows(g: VergneAlgebra, omega: Form) -> list[int]:
    """The rows of g's extension along omega, after ``central_extension``'s
    shape checks on omega and in their order; nothing is validated."""
    try:
        n, rows = g.n, [*g.rows, 0]
    except AttributeError:
        raise _not_an_algebra(g) from None
    try:
        ambient, terms = omega.ambient, omega.terms
    except AttributeError:
        raise TypeError(f"not a Form: {omega!r}") from None
    if ambient != n:
        raise AmbientMismatch(f"cocycle ambient {ambient} != {n}")
    if 1 | 1 << (n - 1) not in terms:  # e^1 ^ e^n
        raise MissingLeadingTerm("cocycle has no e^1^e^n component")
    for mask in terms:
        indices = _indices(mask)
        if len(indices) != 2:
            raise NotHomogeneousTopDegree(f"term {_text(mask)} is not a 2-form")
        i, j = indices
        if i + j != n + 1:
            raise NotHomogeneousTopDegree(f"term {_text(mask)} has degree != {n + 1}")
        if i != 1:  # the leading term is the new [e_1, e_n] = e_{n+1} relation
            rows[i] |= 1 << j
    return rows


def _children(g: VergneAlgebra) -> list[VergneAlgebra]:
    """The extensions of g by its admissible cocycles, stored unchecked
    through ``core._store``: ``_child_rows`` proves each valid.
    ``enumerate_algebras`` calls it for n <= 63 only."""
    return [_store(g.n + 1, rows) for rows in _child_rows(g)]


def _child_rows(g: VergneAlgebra) -> list[list[int]]:
    """The rows of the extensions of g by its admissible cocycles, in the
    form ``core._fill`` states, with no algebra built.

    The candidates are omega_x = e^1^e^n + sum of x_i e^i^e^{n+1-i} over
    2 <= i <= n/2, with x_2 = x and x_{i+1} = x_i + c_{i,n-i} (bit n-i of
    ``g.rows[i]``), for x = 0, 1.  The child of omega_x has g's rows with
    bit n+1-i of row i set for each x_i = 1, as ``central_extension`` sets
    them, so its c_{s,t} with s + t = n + 1 are the coefficients of omega.
    It is kept when d_g(omega_x) vanishes, read off ``g.rows`` as below,
    with no Derivation or Form built.  At n = 64 the rows have the
    dimension 65, past ``MAX_AMBIENT``, and no algebra is built from them.

    *The extension is valid exactly when d_g(omega) = 0.*  Its d equals
    g's on e^1..e^n, and g is valid (every held instance is), so
    d(d(e^k)) = 0 at every k <= n.  It sends e^{n+1} to omega, so
    d(d(e^{n+1})) = d_g(omega).  That is the whole check ``core._fill``
    makes, so ``core._store`` may keep the child unchecked.

    d_g(omega) is a 3-form of degree n+1: Leibniz takes each term e^s^e^t
    of omega to d(e^s)^e^t + e^s^d(e^t), with d as ``core.differential``
    states it.

    *Terms with e^1.*  For 2 <= b < n/2 the coefficient of e^1^e^b^e^{n-b}
    is x_b + x_{b+1} + c_{b,n-b}: c_{b,n-b} from e^1^d(e^n), x_b and x_{b+1}
    from the e^1 parts of d(e^{n+1-b}) and d(e^{b+1}), with x_{(n+1)/2} = 0
    for odd n, since there is no e^i^e^i.  The recurrence zeroes each of
    them except, for odd n, the last: there the recurrence's last value
    x_{(n+1)/2} must be 0 (the diagonal).  So d(omega) = 0 fixes omega from
    x_2 alone, and no cocycle is missed.

    *The other terms* are e^a^e^b^e^c with 2 <= a < b < c and a + b + c =
    n + 1.  Write x(s, t) = x_{min(s,t)} for s + t = n + 1, the coefficient
    of e^s^e^t in omega, and 0 when s = t.  Such a term comes from the term
    of omega that holds one of its indices t, with the other two p, q from
    c_{p,q} e^p^e^q in d(e^{n+1-t}), so its coefficient is

        J(a, b, c) = x(a+b, c) c_{a,b} + x(a+c, b) c_{a,c} + x(b+c, a) c_{b,c},

    the child's Jacobi sum of (a, b, c).

    *a = 2 decides them.*  Once the e^1-terms vanish, the child satisfies
    c_{i,j} = c_{i+1,j} + c_{i,j+1} for all i, j >= 2 with i + j <= n: at
    i + j < n these are g's completion identities (the e^1^e^i^e^j
    coefficients of d(d(e^{i+j+1}))), and at i + j = n they are the
    e^1-terms of d_g(omega).  So ad e_1 is a derivation on every bracket
    [e_i, e_j] with i, j >= 2 and i + j <= n.  For 2 <= a < b < c with
    a + b + c = n, J(a, b, c) = 0 in g, hence in the child, and applying
    ad e_1 to it, [e_1, e_k] = e_{k+1}, gives

        J(a+1, b, c) = J(a, b+1, c) + J(a, b, c+1)

    on the new anti-diagonal.  J is symmetric and vanishes on a repeated
    index (char 2, c_{i,i} = 0), so each term on the right has smallest
    index a or is 0.  By induction on the smallest index, every J there
    vanishes once the J(2, b, c) do.

    *Read for all b at once.*  Let y have bit t = x(n+1-t, t) for
    2 <= t <= n-1, and c = n - 1 - b.  Bit b of

        (rows[2] & y >> 2) ^ (mirror & y) ^ (anti if bit 2 of y else 0)

    is J(2, b, c), product by product.  Bit b of y >> 2 is y_{b+2} =
    x(c, 2+b).  Bit b of mirror is c_{2,c}, as mirror is rows[2] reversed
    about n - 1, and y_b = x(2+c, b).  Bit b of anti is c_{b,c}, as anti is
    the anti-diagonal n - 1 (bit j is c_{j,n-1-j}, symmetric, 0 at
    j = (n-1)/2), and y_2 = x(b+c, 2).  With j = n-1-i, g's completion
    identities give anti = anti_n ^ anti_n >> 1 on bits 2..n-3, one step
    from the anti-diagonal anti_n, whose bits c_{i,n-i} the recurrence
    reads.  A term needs 2 < b < c, the window of bits 3..n//2-1, which is
    empty below n = 8.
    """
    n, rows = g.n, g.rows
    steps = [rows[i] >> (n - i) & 1 for i in range(2, n // 2 + 1)]  # c_{i,n-i}
    anti = sum([c << i | c << (n - i) for i, c in enumerate(steps, 2)])
    anti = (anti ^ anti >> 1) & ((1 << (n - 2)) - 4)  # the anti-diagonal n-1
    mirror = int(f"{rows[2]:0{n}b}"[::-1], 2)
    window = (1 << n // 2) - 1 & -8
    kept = []
    for x in (0, 1):
        child, y = [*rows, 0], 0
        for i, c in enumerate(steps, 2):
            if x:
                child[i] |= 1 << (n + 1 - i)
                y |= 1 << i | 1 << (n + 1 - i)
            x ^= c
        if n & 1 and x:  # the diagonal
            continue
        if not ((rows[2] & y >> 2) ^ (mirror & y) ^ (anti if y & 4 else 0)) & window:
            kept.append(child)
    return kept


def admissible_cocycles(g: VergneAlgebra) -> list[Form]:
    """Every homogeneous degree-(n+1) 2-cocycle with the e^1^e^n term,
    sorted by index tuples.

    Each is d(e^{n+1}) of one child's rows from ``_child_rows``, which
    keeps exactly the extensions by cocycles, read in g's ambient as
    ``reduce`` reads it.  No algebra is built.  A g that is not a
    ``VergneAlgebra`` is refused (TypeError naming it).
    """
    try:
        n = g.n
    except AttributeError:
        raise _not_an_algebra(g) from None
    forms = [Form(n, _image(rows, n + 1)) for rows in _child_rows(g)]
    forms.sort(key=lambda f: sorted(map(_indices, f.terms)))
    return forms


def _truncation(g: VergneAlgebra, m: int) -> VergneAlgebra:
    """g cut at dimension m, validated: the algebra of ``_truncation_rows``."""
    return _from_rows(m, _truncation_rows(g, m))


def _truncation_rows(g: VergneAlgebra, m: int) -> tuple[int, ...]:
    """The rows of g cut at dimension m: the c_{i,j} with i+j <= m, that is
    the bits j <= m - i of each row i <= m.  Refuses m > n (ValueError)."""
    if m > g.n:
        raise ValueError(f"cannot truncate at m = {m}: the algebra has dimension n = {g.n}")
    return tuple([r & ((1 << (m - i + 1)) - 1) for i, r in enumerate(g.rows[:m + 1])])


def reduce(g: VergneAlgebra) -> tuple[VergneAlgebra, Form]:
    """Invert one extension: drop e_n and recover the cocycle.

    The base is the truncation of g at n-1.  The cocycle is d(e^n),
    read in the base's ambient: e^1^e^{n-1} plus the c_{i,j} e^i^e^j with
    i+j = n, whose indices are all below n.  Extending the base by it gives
    g back exactly.  A g that is not a ``VergneAlgebra`` is refused
    (TypeError naming it).
    """
    try:
        n = g.n
    except AttributeError:
        raise _not_an_algebra(g) from None
    if n <= MIN_DIMENSION:
        raise ValueError(f"cannot reduce below dimension {MIN_DIMENSION}")
    return _truncation(g, n - 1), Form(n - 1, _image(g.rows, n))


def decompose(g: VergneAlgebra) -> Decomposition:
    """The truncations of g at m = 5..n-1, each with its cocycle d_g(e^{m+1}).

    This is the chain that iterating ``reduce`` builds: every index in
    d_g(e^{m+1}) and in the kept c_{i,j} is <= m, so the cut at m+1 has g's
    d(e^{m+1}), and cutting it at m keeps what cutting g at m keeps.
    A g that is not a ``VergneAlgebra`` is refused (TypeError naming it).
    """
    try:
        n, rows = g.n, g.rows
    except AttributeError:
        raise _not_an_algebra(g) from None
    steps = tuple([ExtensionStep(_truncation(g, m), Form(m, _image(rows, m + 1)))
                   for m in range(MIN_DIMENSION, n)])
    return Decomposition(root=steps[0].base if steps else g, steps=steps)


# The keys of the two dimension-5 roots in ``partners``' index.
_M0_ROOT = (MIN_DIMENSION, (0,) * (MIN_DIMENSION + 1))
_M2_ROOT = (MIN_DIMENSION, _m2_rows(MIN_DIMENSION))


def partners(family: Iterable[VergneAlgebra]) -> dict[VergneAlgebra, VergneAlgebra]:
    """Each algebra of ``family`` mapped to its partner, in one sweep.

    The partner is the paper's construction: decompose g, swap the
    dimension-5 root for the other model, and re-extend with the
    involution f applied to every step cocycle.  The two roots are
    distinguished by the codimension-1 abelian ideal, and the conjugation
    squares transport along the extensions, so the Betti numbers agree at
    every dimension.  Involutive: the partner of the partner is g.
    A member that is not a ``VergneAlgebra`` is refused (TypeError) before
    any work.

    Recursion: let (base, omega) = reduce(g).  The chain of g is its
    truncations with the cocycles d_g(e^{m+1}) (see ``decompose``), read
    off the c-table alone, so equal algebras have equal chains.  The base
    _truncation(g, n-1) has exactly g's chain below n-1, so the chain of g
    is the chain of base followed by the step (base, omega), from the same
    root.  The partner folds central_extension(., f(omega_i)) over the
    steps from the swapped root, and the fold over all but the last step
    is the partner of base, so

        partner(g) = central_extension(partner(base), f(omega)).

    The sweep starts from the root swap {m0(5): m2(5), m2(5): m0(5)} (every
    5-dimensional Vergne algebra is one of the two), walks down from each g
    only until it meets an algebra whose partner it already holds, and
    extends back up, recording the partner of every algebra on the way.
    So the truncations that many members share are extended once, and a
    single algebra costs what its full decomposition does.

    *The family's own instances.*  The family is indexed by (n, rows).  A
    step down computes the rows of _truncation(g, n-1)
    (``_truncation_rows``) and reads omega = d_g(e^n) as ``reduce`` does; a
    step up computes the rows of central_extension(p, f(omega)), with its
    shape checks on f(omega) (``_extension_rows``).  The roots are looked
    up by the rows of m0(5) and m2(5).  When the family holds those rows,
    the step takes the family's instance; on a miss it validates the rows
    the step computed, as ``_truncation`` and ``central_extension`` do.  A
    hit is exactly what that validation returns: two algebras with equal
    (n, rows) are equal (``VergneAlgebra.__eq__``), and every held instance
    is valid, so validating its rows passes (for an extension that is
    d_p(f(omega)) = 0, see ``_child_rows``) and gives an equal algebra.  So
    a family that holds every truncation and every partner it meets, such
    as all enumerated algebras of n = 5..N, is swept with no algebra built
    or validated, and each entry is the family's own instance.

    The index keys by all the rows, not by (n, ``rows[2]``) as equality
    does: its keys are rows computed before any validation.  A step up
    whose f(omega) is not a cocycle has rows that no valid algebra holds,
    yet their row 2 may be a member's; keyed by row 2, the step would hand
    out that member where ``central_extension`` raises NotACocycle.

    Every recorded partner is computed from that algebra's own chain: the
    sweep never records g as the partner of its partner.  So the entry of
    p = partner(g) equals g only if the truncation step inverts the
    extension along p's chain, f(f(omega)) = omega for each cocycle, and
    the root swap is an involution, and a caller that checks involutivity
    on p's own entry checks the construction.
    """
    family = tuple(family)
    for g in family:
        if not isinstance(g, VergneAlgebra):
            raise _not_an_algebra(g)
    held = {(g.n, g.rows): g for g in family}
    root0 = held.get(_M0_ROOT) or m0(MIN_DIMENSION)
    root2 = held.get(_M2_ROOT) or m2(MIN_DIMENSION)
    known = {root0: root2, root2: root0}
    for g in family:
        chain = []
        while g not in known:
            n = g.n
            rows = _truncation_rows(g, n - 1)
            chain.append((g, Form(n - 1, _image(g.rows, n))))
            g = held.get((n - 1, rows)) or _from_rows(n - 1, rows)
        p = known[g]
        for h, omega in reversed(chain):
            f = involution(omega)
            rows = tuple(_extension_rows(p, f))
            p = known[h] = held.get((p.n + 1, rows)) or _extended(rows, f)
    return {g: known[g] for g in family}


def partner(g: VergneAlgebra) -> VergneAlgebra:
    """A non-isomorphic algebra with the same Betti numbers; see ``partners``."""
    return partners((g,))[g]


def has_codim1_abelian_ideal(g: VergneAlgebra) -> bool:
    """Whether g has an abelian ideal of codimension 1: exactly when every
    row of g's c-table is 0.

    A codimension-1 ideal contains [g, g] = span(e_3..e_n), so over GF(2)
    it is span(e_3..e_n) together with e_1, e_2 or e_1 + e_2.  The first
    and the last are not abelian, since [e_1, e_3] and [e_1 + e_2, e_3]
    both contain e_4.  span(e_2..e_n) is abelian exactly when every
    c_{i,j} is 0, because [e_i, e_j] = c_{i,j} e_{i+j} for 2 <= i < j,
    that is when every int of ``g.rows`` (bit j of row i is c_{i,j}) is 0.
    A g that is not a ``VergneAlgebra`` is refused (TypeError naming it).
    """
    try:
        return not any(g.rows)
    except AttributeError:
        raise _not_an_algebra(g) from None
