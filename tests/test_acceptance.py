"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL report per criterion.
"""

import random
import time

from vergne.classify import _LABELS, enumerate_algebras
from vergne.cohomology import betti, verify_commuting_square
from vergne.core import (
    differential,
    involution,
    m0,
    m2,
)
from vergne.exterior import (
    Form,
    Monomial,
    graded_masks,
    matrix_of,
)
from vergne.extensions import (
    admissible_cocycles,
    central_extension,
    has_codim1_abelian_ideal,
    partner,
    reduce,
)
from vergne.gf2 import rank, solve_affine

from helpers import (
    lowering_operator,
    monomials,
    parse_form,
    random_form,
    random_homogeneous_form,
    wedge,
)
from oracles import cocycle_dim_full, rank_naive, tail_operator


# one line per criterion; echoed live and replayed in the terminal summary
RESULTS: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {num:02d} {status} {name}{suffix}"
    RESULTS.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_01_model_betti_equality():
    start = time.perf_counter()
    mismatches = [
        n for n in range(5, 15) if betti(m0(n)).b != betti(m2(n)).b
    ]
    elapsed = time.perf_counter() - start
    _report(
        1,
        "equal Betti numbers of m0(n) and m2(n), n=5..14",
        not mismatches and elapsed < 30.0,
        f"elapsed {elapsed:.2f}s; mismatches {mismatches}",
    )


def test_criterion_02_first_betti_number():
    bad = []
    for n in range(5, 13):
        for g in enumerate_algebras(n):
            if betti(g).b[1] != 2:
                bad.append(str(g.row()))
    _report(2, "b_1 = 2 for every enumerated algebra, n=5..12", not bad, f"bad {bad}")


def test_criterion_03_second_betti_number():
    bad = []
    for n in range(5, 15):
        want = (n + 1) // 2
        for g in (m0(n), m2(n)):
            got = betti(g).b[2]
            if got != want:
                bad.append((n, str(g.row()), got))
    _report(3, "b_2 = floor((n+1)/2) on the models, n=5..14", not bad, f"bad {bad}")


def test_criterion_04_enumeration_reproduces_listing():
    expected_counts = {5: 2, 6: 2, 7: 4, 8: 4, 9: 6, 10: 6, 11: 10, 12: 10}
    problems = []
    for n in range(5, 13):
        rows = {g.row().bits for g in enumerate_algebras(n)}
        if len(rows) != expected_counts[n]:
            problems.append(f"n={n}: count {len(rows)} != {expected_counts[n]}")
        listed = {bits for (nn, bits) in _LABELS if nn == n}
        missing = listed - rows
        if missing:
            problems.append(f"n={n}: listed rows missing {sorted(missing)}")
        expected = listed | {m0(n).row().bits, m2(n).row().bits}
        surplus = rows - expected
        if surplus:
            problems.append(f"n={n}: surplus rows {sorted(surplus)}")
    detail = "; ".join(problems) if problems else (
        f"counts {list(expected_counts.values())}, {len(_LABELS)} listed rows present, no surplus"
    )
    _report(4, "enumeration matches the published listing", not problems, detail)


def test_criterion_05_pairing():
    problems = []
    for (n, bits), name in sorted(_LABELS.items()):
        if not name.startswith("g"):
            continue
        g = next(a for a in enumerate_algebras(n) if a.row().bits == bits)
        partner_name = "h" + name[1:]
        want = next(
            bits2 for (nn, bits2), nm in _LABELS.items() if nm == partner_name
        )
        if partner(g).row().bits != want:
            problems.append(f"partner({name}) != {partner_name}")
    for n in range(5, 13):
        for g in enumerate_algebras(n):
            if betti(g).b != betti(partner(g)).b:
                problems.append(f"betti mismatch at {g.row()}")
    _report(
        5,
        "partner reproduces the g/h pairing with equal Betti numbers",
        not problems,
        "; ".join(problems) if problems else "14 listed pairs, all enumerated pairs equal",
    )


def test_criterion_06_commuting_squares():
    problems = []
    for n in range(5, 13):
        pairs = [(m0(n), m2(n))] + [(g, partner(g)) for g in enumerate_algebras(n)]
        for g1, g2 in pairs:
            for k in range(2, n + 1):
                if not verify_commuting_square(g1, g2, k):
                    problems.append(f"n={n} k={k} {g1.row()} vs {g2.row()}")
    _report(
        6,
        "d2 o f = f o d1 on all basis monomials for all pairs, n<=12",
        not problems,
        "; ".join(problems[:3]) if problems else "models and partner pairs, k=2..n",
    )


def test_criterion_07_structural_invariants():
    problems = []

    # d o d = 0 and grading preservation on every basis monomial, n <= 12
    for n in range(5, 13):
        for g in enumerate_algebras(n):
            d = differential(g)
            for k in range(n + 1):
                for mono in monomials(n, k):
                    image = d.apply_mask(mono.mask)
                    if d.apply_masks(image):
                        problems.append(f"d^2 != 0 at {g.row()} {mono}")
                    for t in image:
                        tm = Monomial(t, n)
                        if tm.degree != mono.degree or t.bit_count() != k + 1:
                            problems.append(f"grading broken at {g.row()} {mono}")

    # involution is involutive on >= 500 random homogeneous forms
    rng = random.Random(1)
    checked = 0
    while checked < 500:
        n = rng.randrange(5, 13)
        h = random_homogeneous_form(rng, n, rng.randrange(2, n + 1))
        if not h:
            continue
        if involution(involution(h)) != h:
            problems.append(f"f o f != id at {h}")
        checked += 1

    # e^2 ^ D_2 = e^2 ^ D_1^2 on >= 500 random (mixed-degree) forms
    for _ in range(500):
        n = rng.randrange(5, 13)
        w = random_form(rng, n)
        e2 = parse_form("e2", n)
        d1 = lowering_operator(n, 1)
        d2 = lowering_operator(n, 2)
        if wedge(e2, d2(w)) != wedge(e2, d1(d1(w))):
            problems.append(f"shift identity broken at {w}")

    # cocycle identity e^2 ^ D_1(z) = e^2 ^ R(x) on kernel bases of every
    # graded slice (n <= 9) and on every admissible cocycle (n <= 11)
    def cocycle_identity_holds(g, form):
        n = g.n
        e2 = parse_form("e2", n)
        x = Form(n, [m ^ 1 for m in form.terms if m & 1])
        z = Form(n, [m for m in form.terms if not (m & 3)])
        lhs = wedge(e2, lowering_operator(n, 1)(z))
        rhs = wedge(e2, tail_operator(g)(x))
        return lhs == rhs

    for n in range(5, 10):
        for g in enumerate_algebras(n):
            d = differential(g)
            for k in range(2, n + 1):
                for m in graded_masks(n, k):
                    monos = monomials(n, k, m)
                    columns = matrix_of(d, monos, monomials(n, k + 1, m))
                    for vec in solve_affine(columns, 0)[1]:
                        cocycle = Form(
                            n,
                            [monos[i].mask for i in range(len(monos)) if (vec >> i) & 1],
                        )
                        if not cocycle_identity_holds(g, cocycle):
                            problems.append(f"cocycle identity broken {g.row()} k={k} m={m}")
    for n in range(5, 12):
        for g in enumerate_algebras(n):
            for omega in admissible_cocycles(g):
                if not cocycle_identity_holds(g, omega):
                    problems.append(f"cocycle identity broken on {omega} of {g.row()}")

    # reduce / central_extension round trips
    for n in range(5, 12):
        for g in enumerate_algebras(n):
            for omega in admissible_cocycles(g):
                if reduce(central_extension(g, omega)) != (g, omega):
                    problems.append(f"round trip broken at {g.row()} + {omega}")
            if n >= 6:
                base, omega = reduce(g)
                if central_extension(base, omega) != g:
                    problems.append(f"re-extension broken at {g.row()}")

    _report(
        7,
        "structural invariant suite",
        not problems,
        "; ".join(problems[:3]) if problems else
        "d^2, grading, involution, shift identity, cocycle identity, round trips",
    )


def test_criterion_08_oracle_equivalence():
    rng = random.Random(20240202)
    problems = []
    checked = 0

    def check(m):
        nonlocal checked
        if rank(m) != rank_naive(m):
            problems.append(f"rank mismatch at a {len(m)}-row matrix")
        checked += 1

    for _ in range(920):
        rows, cols = rng.randrange(41), rng.randrange(41)
        check([rng.getrandbits(cols) for _ in range(rows)])
    for _ in range(60):
        rows, cols = rng.randrange(101), rng.randrange(101)
        check([rng.getrandbits(cols) for _ in range(rows)])
    for _ in range(18):
        rows, cols = rng.randrange(201), rng.randrange(201)
        check([rng.getrandbits(cols) for _ in range(rows)])
    for _ in range(2):
        check([rng.getrandbits(200) for _ in range(200)])

    block_vs_full = []
    for n in range(5, 9):
        for g in enumerate_algebras(n):
            for k in range(n + 1):
                if betti(g).z[k] != cocycle_dim_full(g, k):
                    block_vs_full.append(f"{g.row()} k={k}")
    problems.extend(block_vs_full)

    _report(
        8,
        "packed rank == naive rank; block == full cocycle dims",
        not problems and checked >= 1000,
        f"{checked} matrices up to 200x200; block check n<=8",
    )


def test_criterion_09_betti_table_consistency():
    problems = []
    duality_breaks = []
    for n in range(5, 13):
        for g in enumerate_algebras(n):
            table = betti(g)
            bad = table.violations()
            if bad:
                problems.append(f"{g.row()}: {bad}")
            if table.b != table.b[::-1]:
                duality_breaks.append(str(g.row()))
    # the duality b_k == b_{n-k} is an observed regularity; a break is a
    # probable bug and is reported as a failure rather than ignored
    print(f"criterion 09 note: duality b_k == b_(n-k) breaks: {duality_breaks or 'none'}")
    _report(
        9,
        "BettiTable consistency identities for all enumerated algebras, n<=12",
        not problems and not duality_breaks,
        "; ".join(problems[:3]) if problems else "b_0, graded sums, alternating sum, duality",
    )


def test_criterion_10_abelian_ideal_witness():
    ok = has_codim1_abelian_ideal(m0(5)) and not has_codim1_abelian_ideal(m2(5))
    _report(
        10,
        "codimension-1 abelian ideal separates m0(5) from m2(5)",
        ok,
        f"m0(5)={has_codim1_abelian_ideal(m0(5))}, m2(5)={has_codim1_abelian_ideal(m2(5))}",
    )
