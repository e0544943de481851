"""Independent oracles for the library's single paths.

``jacobi_failure`` checks a structure-constant table one identity at a
time (completion identities, then cyclic Jacobi triples), independently of
the d o d = 0 validation in ``VergneAlgebra``.  ``complete_row_pairs``
completes an e_2 row pair by pair, independently of the bitwise rows of
``core._complete_row``, and ``raw_differential`` builds the differential
of such a table, valid or not, from its pairs.  ``enumerate_rows`` walks all
2^(n-4) e_2 rows and keeps those the table check accepts, independently of
the forward search in ``enumerate_algebras``.  ``rank_naive`` eliminates on
unpacked 0/1 lists, independently of ``gf2.echelon`` and of the elimination
inside the block kernel ``cohomology._block_pivots``.  The tests feed it the
columns of ``exterior.matrix_of``, built from ``Derivation.apply_mask`` apart
from the kernel's own column loop, and ``cocycle_dim_full`` ranks the single
unsliced matrix with it.
``tail_operator`` is the bracket part of the differential,
used by the cocycle identity checks.  ``involution_from_definition`` is f on
Forms, h + e^2 ^ D(x), with the Form-level ``wedge`` and its own
``helpers.lowering_operator`` for D, independently of ``core._LOWERING`` and
of the mask-level formula in ``core.involution``.  It expands D by calling
the derivation, so it shares ``Derivation.apply_masks`` with the library,
and ``leibniz_by_factors`` is the check on that loop.
``commuting_square_failures`` checks the square with it
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
``cohomology.betti``, and ``betti_cone`` derives the graded Betti table of
any algebra by the mapping cone of theta on the cohomology of
V = span(e_2..e_n), from its own full matrices read off ``g.c``.
``leibniz_by_factors`` expands a derivation on a monomial factor by factor
with ``helpers.wedge``, independently of the mask-level Leibniz loop in
``Derivation.apply_masks``.  ``admissible_by_solve`` finds the admissible
cocycles by an affine solve over the whole degree-(n+1) 2-form slice with
``gf2.solve_affine``, independently of the free-bit recurrence in
``extensions._children``, and ``admissible_by_expansion`` keeps
each of the two free-bit candidates of ``cocycle_candidates`` whose
d_g(omega) vanishes under the built differential's ``apply_masks``,
independently of ``_children``' read of d_g(omega) off the rows.
``delta_by_strip`` reads δ off the
built differential, stripping e^1^e^{k-1} from each d(e^k), independently
of ``cohomology._delta_terms``' read of the c-table rows.
``violations_by_recount`` checks a Betti table's identities with the Euler
side recounted from the graded buckets, independently of the product that
``BettiTable.violations`` reads it from.  ``graded_duality_by_lookup`` looks
the mirror of each graded entry up, one at a time, independently of the
one comparison with the mirrored mapping in ``cli._graded_dual``.
``violation_by_e1_e2`` reads the first failing constraint of a table from
its e^1-terms and its (2, b, c) triples alone, independently of the whole
d(d(e^k)) = 0 check in ``core._fill``; it is the reference for a row check
that reads only those.  ``label_by_row`` labels an algebra from its
``RowVector``'s bits, with m2(n)'s row spelled out as bits, independently
of ``classify.label``'s read of the e_2 row int.
"""

from __future__ import annotations

from array import array
from itertools import combinations, product
from types import MappingProxyType
from typing import Mapping, Sequence

from vergne.classify import _LABELS
from vergne.cohomology import BettiTable
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
from vergne.exterior import (
    Derivation,
    Form,
    Monomial,
    _indices,
    _outside_codomain,
    graded_masks,
    matrix_of,
)
from vergne.extensions import Decomposition, ExtensionStep, central_extension, decompose, reduce
from vergne.gf2 import solve_affine

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


def violation_by_e1_e2(n: int, rows: Sequence[int]) -> JacobiViolation | None:
    """The first failing constraint of a c-table given as rows, read from
    the e^1-terms and the (2, b, c) terms of d(d(e^k)) alone, in the order
    ``core._violation`` reports (lexicographic on the index triple); None
    when all of them vanish.

    The coefficient of e^1^e^b^e^c in d(d(e^{1+b+c})) is the completion
    identity c_{b,c} + c_{b+1,c} + c_{b,c+1}, the derived diagonal when
    c = b + 1, and that of e^2^e^b^e^c is the Jacobi sum of (2, b, c).
    Once every e^1-term vanishes, ad e_1 is a derivation, so
    J(a+1, b, c) = J(a, b+1, c) + J(a, b, c+1) + [e_1, J(a, b, c)] and, by
    induction on the degree and then on a, every J vanishes with the
    J(2, b, c); so no term with a >= 3 can come first.
    """
    def c(i: int, j: int) -> int:  # symmetric, 0 on the diagonal and out of range
        i, j = min(i, j), max(i, j)
        return rows[i] >> j & 1 if 2 <= i < j and i + j <= n else 0

    for b in range(2, n):
        for k in range(b + 1, n - b):
            if c(b, k) ^ c(b + 1, k) ^ c(b, k + 1):
                if k == b + 1:
                    return JacobiViolation(f"derived diagonal entry c[{k},{k}] is nonzero",
                                           index=k)
                return JacobiViolation(f"completion identity fails at c[{b},{k}]",
                                       triple=(1, b, k))
    for b in range(3, n):
        for k in range(b + 1, n - 1 - b):
            if c(b, k) & c(2, b + k) ^ c(2, k) & c(b, 2 + k) ^ c(2, b) & c(k, 2 + b):
                return JacobiViolation(f"Jacobi identity fails on (e2, e{b}, e{k})",
                                       triple=(2, b, k))
    return None


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


def label_by_row(row: RowVector) -> str:
    """The label of the algebra with e_2 row ``row``: m0(n) for the zero
    row, m2(n) for the row with c_{2,j} = 1 exactly for 3 <= j <= n-2, the
    listed ``classify._LABELS`` name, else the row string."""
    n, bits = row.n, row.bits
    if not any(bits):
        return f"m0({n})"
    if bits == (0,) + (1,) * (n - 4) + (0, 0):
        return f"m2({n})"
    return _LABELS.get((n, bits), str(row))


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


def leibniz_by_factors(d: Derivation, mask: int) -> Form:
    """D(e^{i1}^...^e^{ik}) as the sum over t of the product of the factors
    with the t-th one replaced by D(e^{it}), each product built one factor
    at a time with ``wedge``; D(e^i) is read off the public ``images``."""
    n = d.ambient
    indices = Monomial(mask, n).indices
    total = Form(n)
    for t in indices:
        term = Form(n, [0])
        for i in indices:
            term = wedge(term, Form(n, d.images.get(i, ())) if i == t else Form(n, [1 << (i - 1)]))
        total = total + term
    return total


def betti_cone(g: VergneAlgebra, flip: frozenset = frozenset()) -> tuple[tuple[int, ...], dict]:
    """(b, graded) of g, with ``graded`` in the form of ``BettiTable.graded``,
    from the mapping cone of theta on H(V), V = span(e_2..e_n).

    The c-table is ``g.c`` with the pairs in ``flip`` toggled.  L is the
    exterior algebra on e^2..e^n, d_V(e^k) is the sum of c_{i,j} e^i^e^j
    over i + j = k, 1 < i < j, and theta is the derivation with
    theta(e^k) = e^(k-1) for k >= 3 and theta(e^2) = 0.  Proof.  V is an
    ideal of g, since [g, g] lies in V.  So C(g) = L + e^1^L, with
    d(x) = d_V(x) + e^1^theta(x) and d(e^1^y) = e^1^d_V(y) over GF(2), and
    d o d = 0 says d_V o d_V = 0 and theta o d_V = d_V o theta.  The short
    exact sequence 0 -> e^1^L -> C(g) -> L -> 0 has connecting map theta
    on H(V), so b_k = dim ker(theta on H^k(V)) + dim coker(theta on
    H^(k-1)(V)).  d_V keeps the weight (index sum) and theta lowers it by
    one, so in weight m: dim H^k_m(g) = dim ker(theta: H^k_m -> H^k_(m-1))
    + dim coker(theta: H^(k-1)_m -> H^(k-1)_(m-1)).  The rank of theta on
    H^k_m is dim(theta(Z^k_m) + B^k_(m-1)) - dim B^k_(m-1).

    Raises ValueError when the table breaks d_V o d_V = 0 or
    theta o d_V = d_V o theta, that is when it is no Lie algebra.
    """
    n = g.n
    pairs = set(g.c) ^ set(flip)
    basis = [list(combinations(range(2, n + 1), k)) for k in range(n + 2)]
    index = [{s: i for i, s in enumerate(b)} for b in basis]

    def column(s: tuple[int, ...], images, shift: int) -> int:
        # the Leibniz image of e^s, as bits over the basis of degree len(s) + shift
        v = 0
        for t, a in enumerate(s):
            rest = s[:t] + s[t + 1:]
            for img in images(a):
                if not set(img) & set(rest):
                    v ^= 1 << index[len(s) + shift][tuple(sorted(rest + img))]
        return v

    d_images = lambda a: [(i, a - i) for i in range(2, a) if (i, a - i) in pairs]
    theta_images = lambda a: [(a - 1,)] if a >= 3 else []
    d_v = [[column(s, d_images, 1) for s in b] for b in basis[:n]]
    theta = [[column(s, theta_images, 0) for s in b] for b in basis[:n]]

    def apply(columns: list[int], v: int) -> int:
        out = 0
        while v:
            low = v & -v
            out ^= columns[low.bit_length() - 1]
            v ^= low
        return out

    for k in range(n - 1):
        for j in range(len(basis[k])):
            if apply(d_v[k + 1], d_v[k][j]):
                raise ValueError(f"d_V o d_V != 0 on degree {k}")
            if apply(d_v[k], theta[k][j]) != apply(theta[k + 1], d_v[k][j]):
                raise ValueError(f"theta does not commute with d_V on degree {k}")

    h: dict[tuple[int, int], int] = {}
    theta_rank: dict[tuple[int, int], int] = {}
    for k in range(n):
        weights = sorted({sum(s) for s in basis[k]})
        cycles: dict[int, list[int]] = {}
        bounds: dict[int, list[int]] = {}
        for m in weights:
            # Z^k_m: eliminate (image, source) pairs; a zero image leaves a cycle
            pivots: dict[int, tuple[int, int]] = {}
            cycles[m] = []
            for j, s in enumerate(basis[k]):
                if sum(s) != m:
                    continue
                v, src = d_v[k][j], 1 << j
                while v and v.bit_length() in pivots:
                    pv, ps = pivots[v.bit_length()]
                    v, src = v ^ pv, src ^ ps
                if v:
                    pivots[v.bit_length()] = (v, src)
                else:
                    cycles[m].append(src)
            bounds[m] = [d_v[k - 1][j] for j, s in enumerate(basis[k - 1] if k else ())
                         if sum(s) == m]
            h[k, m] = len(cycles[m]) - rank_naive(bounds[m])
        for m in weights:
            below = bounds.get(m - 1, [])
            image = [apply(theta[k], v) for v in cycles[m]]
            theta_rank[k, m] = rank_naive(below + image) - rank_naive(below)

    graded = {}
    for k in range(n + 1):
        for m in range(k * (k + 1) // 2, k * n - k * (k - 1) // 2 + 1):
            kernel = h.get((k, m), 0) - theta_rank.get((k, m), 0)
            coker = h.get((k - 1, m - 1), 0) - theta_rank.get((k - 1, m), 0)
            if kernel + coker:
                graded[k, m] = kernel + coker
    b = [sum(v for (k, _), v in graded.items() if k == kk) for kk in range(n + 1)]
    return tuple(b), graded


def admissible_by_solve(g: VergneAlgebra) -> list[Form]:
    """Every homogeneous degree-(n+1) 2-cocycle with the e^1^e^n term, by an
    affine GF(2) solve: the e^1^e^n coefficient is pinned to 1, d(omega) = 0
    is solved over the other slice coefficients, and the whole solution coset
    is enumerated, sorted by index tuples.  A term of d(slice) outside the
    degree-(n+1) 3-forms raises ImageOutsideCodomain."""
    n = g.n
    lead = 1 | 1 << (n - 1)
    d = differential(g)
    row = {q: 1 << r for r, q in enumerate(graded_masks(n, 3)[n + 1])}
    columns = {}
    for mask in graded_masks(n, 2)[n + 1]:
        try:  # distinct terms, so their position bits add without carries
            columns[mask] = sum(row[t] for t in d.apply_mask(mask))
        except KeyError as exc:
            raise _outside_codomain(exc.args[0], mask) from None
    rhs = columns.pop(lead)
    others = list(columns)
    solved = solve_affine(list(columns.values()), rhs)
    if solved is None:
        return []
    particular, kernel = solved
    coset = [particular]
    for v in kernel:
        coset += [x ^ v for x in coset]
    forms = [Form(n, [lead] + [mask for idx, mask in enumerate(others) if x >> idx & 1])
             for x in coset]
    forms.sort(key=lambda f: sorted(map(_indices, f.terms)))
    return forms


def cocycle_candidates(g: VergneAlgebra) -> list[Form]:
    """omega_0 and omega_1, the two forms e^1^e^n + sum of x_i e^i^e^{n+1-i}
    over 2 <= i <= n/2 with x_2 = x and x_{i+1} = x_i + c_{i,n-i}, read pair
    by pair with ``structure_constant``; cocycles or not."""
    n = g.n
    candidates = []
    for x in (0, 1):
        terms = [1 | 1 << (n - 1)]
        for i in range(2, n // 2 + 1):
            if x:
                terms.append(1 << (i - 1) | 1 << (n - i))
            x ^= g.structure_constant(i, n - i)
        candidates.append(Form(n, terms))
    return candidates


def admissible_by_expansion(g: VergneAlgebra) -> list[Form]:
    """The candidates whose whole d_g(omega) vanishes, expanded by Leibniz
    through ``differential(g).apply_masks``, sorted by index tuples: the
    check the cocycle search made before ``extensions._children`` read
    d_g(omega) off the rows."""
    d = differential(g)
    forms = [omega for omega in cocycle_candidates(g) if not d.apply_masks(omega.terms)]
    forms.sort(key=lambda f: sorted(map(_indices, f.terms)))
    return forms


def delta_by_strip(g: VergneAlgebra) -> list[tuple[int, int, int]]:
    """δ = d + e^1^L of g as ``cohomology._block_pivots`` reads it: (low | t,
    low, low ^ t) for each term t of each δ(e^k), where low = 1 << (k-1) is
    the bit of e^k.  Read off the built differential: δ(e^k) is
    d(e^k) + e^1^e^{k-1} for k >= 3, and d(e^k) for k <= 2, where L
    vanishes."""
    terms = []
    for k, images in differential(g).images.items():
        low = 1 << (k - 1)
        if k > 2:
            images = images ^ {1 | low >> 1}
        terms += [(low | t, low, low ^ t) for t in images]
    return terms


def violations_by_recount(table: BettiTable) -> list[str]:
    """``BettiTable.violations`` with the Euler side recounted from the
    graded buckets: sum_k (-1)^k |C^k_m| as the signed sizes of the
    ``graded_masks(n, k)[m]``, independently of the product read off
    ``cohomology._chain_euler``."""
    out = []
    n = table.n
    if table.b[0] != 1:
        out.append(f"b_0 = {table.b[0]} != 1")
    if any(v < 0 for v in table.b):
        out.append("negative Betti number")
    totals = [0] * (n + 1)
    euler: dict[int, int] = {}
    lo = lambda k: k * (k + 1) // 2
    hi = lambda k: k * n - k * (k - 1) // 2
    for (k, m), v in table.graded.items():
        if 0 <= k <= n:
            totals[k] += v
        euler[m] = euler.get(m, 0) + (-1) ** k * v
        if v < 0:
            out.append(f"negative graded dimension at {(k, m)}")
        if not lo(k) <= m <= hi(k):
            out.append(f"graded degree {m} outside [{lo(k)}, {hi(k)}] for k={k}")
    for k in range(n + 1):
        if totals[k] != table.b[k]:
            out.append(f"graded sum {totals[k]} != b_{k} = {table.b[k]}")
        for m, masks in graded_masks(n, k).items():
            euler[m] = euler.get(m, 0) - (-1) ** k * len(masks)
    out.extend(f"Euler characteristic in degree {m} off by {e}"
               for m, e in sorted(euler.items()) if e)
    alternating = sum((-1) ** k * bk for k, bk in enumerate(table.b))
    if alternating != 0:
        out.append(f"alternating sum {alternating} != 0")
    return out


def graded_duality_by_lookup(table: BettiTable) -> bool:
    """Whether dim H^k_m = dim H^(n-k)_(n(n+1)/2-m) for every graded entry,
    an absent one read as 0, by one lookup per entry: the check
    ``verify``'s consistency suite made before ``cli._graded_dual``."""
    n = table.n
    top = n * (n + 1) // 2
    return all(table.graded.get((n - k, top - m), 0) == v for (k, m), v in table.graded.items())
