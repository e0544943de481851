"""Independent oracles for the library's single paths.

``jacobi_failure`` checks a structure-constant table one identity at a
time (completion identities, then cyclic Jacobi triples), independently of
the d o d = 0 validation in ``VergneAlgebra``.  ``complete_row_pairs``
completes an e_2 row pair by pair, independently of the bitwise rows of
``core._complete_row``, and ``raw_differential`` builds the differential
of such a table, valid or not, from its pairs.  ``enumerate_rows`` walks all
2^(n-4) e_2 rows and keeps those the table check accepts, independently of
the forward search in ``enumerate_algebras``.  ``rank_naive`` eliminates on
unpacked 0/1 lists, independently of ``gf2.echelon`` and of the block kernel
``exterior.block_pivots``; ``cocycle_dim_full`` ranks the single unsliced
matrix with it.  ``tail_operator`` is the bracket part of the differential,
used by the cocycle identity checks.  ``involution_from_definition`` is f on
Forms, built from the lowering derivation, independently of the mask-level
``core.involution``; ``commuting_square_failures`` checks the square with it
on Forms, one monomial at a time, independently of the block-level
``square_failures``.  ``partner_by_decomposition`` is the partner
by the paper's construction over the whole chain, step by step from the
swapped root, independently of the sweep in ``extensions.partners``.
``decompose_by_reduce`` builds the chain by peeling one extension at a time
with ``reduce``, independently of ``decompose``'s read of the c-table.
``codim1_abelian_ideal_brute`` tests the kernel of every nonzero functional
with ``bracket_index``, independently of the derived-algebra argument behind
``has_codim1_abelian_ideal``.  ``graded_masks_brute`` buckets every k-subset
from ``itertools.combinations``, independently of the lowest-generator
recurrence and the packed shifts in ``graded_masks``.  ``betti_m0_cone``
derives the Betti numbers of m0(n) by a mapping cone over the abelian ideal
span(e_2..e_n), independently of the differential and the block ranks of
``cohomology.betti``.
"""

from __future__ import annotations

from array import array
from itertools import combinations, product
from types import MappingProxyType
from typing import Mapping, Sequence

from vergne.core import (
    MIN_DIMENSION,
    JacobiViolation,
    RowVector,
    VergneAlgebra,
    differential,
    from_row,
    involution,
    m0,
    m2,
)
from vergne.exterior import Derivation, Form, Monomial, matrix_of
from vergne.extensions import Decomposition, ExtensionStep, central_extension, decompose, reduce

from helpers import _mask_from_indices, lowering_operator, monomials, wedge


def _symmetric_get(c: Mapping[tuple[int, int], int], i: int, j: int) -> int:
    if i == j:
        return 0
    if i > j:
        i, j = j, i
    return c.get((i, j), 0)


def graded_masks_brute(n: int, k: int) -> Mapping[int, Sequence[int]]:
    """Degree -> masks of the k-monomials of that degree, in the form of
    ``graded_masks``: ascending keys, lexicographic buckets, each a read-only
    memoryview of packed 64-bit masks over bytes."""
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


def complete_row_pairs(row: RowVector) -> set[tuple[int, int]]:
    """The completed c-table of an e_2 row as pairs (i, j), i < j, filled
    pair by pair by c_{i+1,j} = c_{i,j} + c_{i,j+1}, with the derived
    diagonal treated as zero; independent of the bitwise rows of
    ``core._complete_row``."""
    n = row.n
    c = {(2, j) for j in range(3, n - 1) if row.bits[j - 2]}
    for i in range(2, n):
        nxt = i + 1
        for j in range(nxt + 1, n - nxt + 1):
            if ((i, j) in c) != ((i, j + 1) in c):
                c.add((nxt, j))
    return c


def raw_differential(n: int, pairs) -> Derivation:
    """The differential d(e^k) = e^1^e^{k-1} + sum of e^i^e^j over the
    pairs with i + j = k, for a table that need not be a Lie algebra."""
    images = {k: {1 | 1 << (k - 2)} for k in range(3, n + 1)}
    for i, j in pairs:
        images[i + j].add(1 << (i - 1) | 1 << (j - 1))
    return Derivation(n, images)


def jacobi_failure(c: Mapping[tuple[int, int], int], n: int) -> JacobiViolation | None:
    """First violated constraint among the e_1 identities and cyclic triples."""
    # e_1 identities: c_{i,j} + c_{i+1,j} + c_{i,j+1} = 0 whenever e_{i+j+1}
    # exists; with j = i+1 this forces the derived diagonal to vanish.
    for i in range(2, n):
        for j in range(i + 1, n - i):
            if _symmetric_get(c, i, j) ^ _symmetric_get(c, i + 1, j) ^ _symmetric_get(c, i, j + 1):
                if i + 1 == j:
                    return JacobiViolation(
                        f"derived diagonal entry c[{j},{j}] is nonzero", index=j
                    )
                return JacobiViolation(
                    f"completion identity fails at c[{i},{j}]", triple=(1, i, j)
                )
    for i in range(2, n):
        for j in range(i + 1, n):
            for k in range(j + 1, n - i - j + 1):
                total = (
                    _symmetric_get(c, j, k) & _symmetric_get(c, i, j + k)
                    ^ _symmetric_get(c, i, k) & _symmetric_get(c, j, i + k)
                    ^ _symmetric_get(c, i, j) & _symmetric_get(c, k, i + j)
                )
                if total:
                    return JacobiViolation(
                        f"Jacobi identity fails on (e{i}, e{j}, e{k})", triple=(i, j, k)
                    )
    return None


def jacobi_holds(c: Mapping[tuple[int, int], int], n: int) -> bool:
    """Check a raw structure-constant table: completion identities,
    vanishing derived diagonal, and all cyclic Jacobi triples."""
    table = {}
    for (i, j), v in c.items():
        if v not in (0, 1):
            raise ValueError("structure constants must be 0 or 1")
        if i == j:
            if v:
                return False
            continue
        if i > j:
            i, j = j, i
        if v:
            if not (2 <= i and i + j <= n):
                raise ValueError(f"constant c[{i},{j}] out of range for dimension {n}")
            table[(i, j)] = 1
    return jacobi_failure(table, n) is None


def all_rows(n: int):
    """Every candidate e_2 row of dimension n, lexicographically ascending."""
    for free in product((0, 1), repeat=n - 4):
        yield RowVector((0,) + free + (0, 0))


def enumerate_rows(n: int) -> tuple:
    """Brute force: the algebras of every row whose completed table passes
    ``jacobi_holds``, rows ascending."""
    return tuple(
        from_row(row) for row in all_rows(n)
        if jacobi_holds(dict.fromkeys(complete_row_pairs(row), 1), n)
    )


def rank_naive(vectors: list[int]) -> int:
    """Gaussian elimination on the vectors unpacked into 0/1 lists, no bit
    tricks."""
    width = max((v.bit_length() for v in vectors), default=0)
    a = [[(v >> c) & 1 for c in range(width)] for v in vectors]
    nrows, ncols = len(a), width
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if a[i][col] == 1:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        for i in range(r + 1, nrows):
            if a[i][col] == 1:
                a[i] = [x ^ y for x, y in zip(a[i], prow)]
        r += 1
        if r == nrows:
            break
    return r


def cocycle_dim_full(g: VergneAlgebra, k: int) -> int:
    """dim ker(d) on k-forms from the single unsliced matrix."""
    if not 0 <= k <= g.n:
        raise ValueError(f"topological degree {k} outside 0..{g.n}")
    columns = matrix_of(differential(g), monomials(g.n, k), monomials(g.n, k + 1))
    return len(columns) - rank_naive(columns)


def tail_operator(g: VergneAlgebra) -> Derivation:
    """The differential minus its leading e^1-part: e^k maps to the pure
    bracket terms sum of c_{i,j} e^i^e^j over i+j = k, 1 < i < j.

    Vanishes on e^1..e^4; its image avoids e^1 entirely.  Equals
    d + e^1 ^ lowering_operator(n, 1) (same thing over GF(2)).
    """
    n = g.n
    images: dict[int, set[int]] = {}
    for k in range(5, n + 1):
        masks = {
            _mask_from_indices((i, k - i), n)
            for i in range(2, k)
            if i < k - i and g.structure_constant(i, k - i)
        }
        if masks:
            images[k] = masks
    return Derivation(n, images)


def involution_from_definition(h: Form) -> Form:
    """f(h) = h + e^2^D(x), where x is the e^1-stripped part of the
    e^1-terms of h and D = lowering_operator(n, 1), the derivation that
    lowers each index by one."""
    n = h.ambient
    x = Form(n, [t ^ 1 for t in h.terms if t & 1])
    return h + wedge(Form(n, [2]), lowering_operator(n, 1)(x))


def commuting_square_failures(g1: VergneAlgebra, g2: VergneAlgebra, k: int) -> list[Monomial]:
    """The basis k-monomials h with d2(f(h)) != f(d1(h)), computed on Forms."""
    d1, d2 = differential(g1), differential(g2)
    f = involution_from_definition
    out = []
    for mono in monomials(g1.n, k):
        h = Form(g1.n, [mono])
        if d2(f(h)) != f(d1(h)):
            out.append(mono)
    return out


def commuting_square_holds(g1: VergneAlgebra, g2: VergneAlgebra, k: int) -> bool:
    """d2(f(h)) = f(d1(h)) on every basis k-monomial h, computed on Forms."""
    return not commuting_square_failures(g1, g2, k)


def partner_by_decomposition(g: VergneAlgebra) -> VergneAlgebra:
    """Decompose g, swap the dimension-5 root for the other model, and
    extend by the involution of every step cocycle, bottom-up."""
    dec = decompose(g)
    cur = m2(5) if dec.root == m0(5) else m0(5)
    for step in dec.steps:
        cur = central_extension(cur, involution(step.omega))
    return cur


def decompose_by_reduce(g: VergneAlgebra) -> Decomposition:
    """The chain of g by iterating ``reduce`` down to dimension 5, then
    reversing the steps into bottom-up order."""
    steps = []
    cur = g
    while cur.n > MIN_DIMENSION:
        base, omega = reduce(cur)
        steps.append(ExtensionStep(base, omega))
        cur = base
    steps.reverse()
    return Decomposition(root=cur, steps=tuple(steps))


def codim1_abelian_ideal_brute(g: VergneAlgebra) -> bool:
    """Whether some hyperplane ker(phi), phi a nonzero functional on g, is an
    abelian ideal.  Vectors are int masks with bit i for e_i; ker(phi) is
    spanned by the e_i with phi(e_i) = 0 and e_i + e_t for the other i, where
    t is the first index with phi(e_t) = 1."""
    n = g.n
    basis = [1 << i for i in range(1, n + 1)]

    def bracket(u: int, w: int) -> int:
        out = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if u >> i & 1 and w >> j & 1:
                    c, k = g.bracket_index(i, j)
                    out ^= c << k
        return out

    for phi in range(2, 1 << (n + 1), 2):
        t = phi & -phi
        kernel = [e if not e & phi else e | t for e in basis if e != t]
        in_kernel = lambda v: not (v & phi).bit_count() & 1
        if all(in_kernel(bracket(x, y)) for x in basis for y in kernel) and \
                all(not bracket(y, z) for y in kernel for z in kernel):
            return True
    return False


def betti_m0_cone(n: int, theta_zero: tuple[int, ...] = (2,)) -> tuple[int, ...]:
    """b_k(m0(n)) = dim ker theta|L^k + dim ker theta|L^(k-1), for k = 0..n.

    L is the exterior algebra on e^2..e^n and theta is the action of e_1,
    the derivation with theta(e^a) = e^(a-1), except theta(e^a) = 0 for a in
    ``theta_zero`` (only e^2 in m0).  Proof.  V = span(e_2..e_n) is an
    abelian ideal, so C(m0) = L + e^1^L with d(x) = e^1^theta(x) and
    d(e^1^y) = 0, over GF(2).  So Z_k = ker theta|L^k + e^1^L^(k-1) and
    B_k = e^1^theta(L^(k-1)), whose quotient has dimension
    dim ker theta|L^k + dim ker theta|L^(k-1).  The matrices come from
    ``itertools.combinations``, one column per sorted index tuple.
    """
    kernels = []
    for k in range(n + 1):
        basis = list(combinations(range(2, n + 1), k))
        index = {s: i for i, s in enumerate(basis)}
        pivots: dict[int, int] = {}
        for s in basis:
            v = 0
            for t, a in enumerate(s):
                if a not in theta_zero and a - 1 not in s:
                    v ^= 1 << index[s[:t] + (a - 1,) + s[t + 1:]]
            while v and v.bit_length() in pivots:
                v ^= pivots[v.bit_length()]
            if v:
                pivots[v.bit_length()] = v
        kernels.append(len(basis) - len(pivots))
    return tuple([kernels[k] + (kernels[k - 1] if k else 0) for k in range(n + 1)])
