"""Command line surface: betti, enumerate, pair, tree, verify, reduce.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O
failure (stdout or a --dot file), 4 internal error.  Output is
deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from types import MappingProxyType
from typing import Mapping

from . import classify, core, extensions
from .cohomology import BettiTable, betti, betti_tables, square_failures
from .core import MIN_DIMENSION, JacobiViolation, VergneAlgebra, from_row, m0, m2, parse_row
from .exterior import MAX_AMBIENT, AmbientMismatch, ImageOutsideCodomain
from .extensions import _truncation, has_codim1_abelian_ideal, partner, partners

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# Bound on the size of one Betti table; its measured cost is README's
# feasibility table.
MAX_BETTI_DIM = 22


def _dimension(hi: int):
    """argparse type: an int in MIN_DIMENSION..hi, refused while parsing."""
    def dimension(text: str) -> int:
        n = int(text)
        try:
            core._check_dimension(n, hi=hi)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return n
    return dimension


def _algebra_from_arg(arg: str, n: int) -> VergneAlgebra:
    if arg == "m0":
        return m0(n)
    if arg == "m2":
        return m2(n)
    if arg.startswith("row:"):
        row = parse_row(arg[4:])
        if row.n != n:
            raise ValueError(f"row encodes dimension {row.n}, --dim says {n}")
        return from_row(row)
    raise ValueError(f"--algebra must be m0, m2 or row:<rowstring>, got {arg!r}")


def _cmd_betti(args: argparse.Namespace) -> int:
    g = _algebra_from_arg(args.algebra, args.dim)
    table = betti(g)
    if args.format == "json":
        payload = table.to_json_dict()
        if not args.graded:
            payload.pop("graded")
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        print(f"n: {g.n}")
        print(f"algebra: {classify.label(g)}")
        print(f"row: {g.row()}")
        print(f"betti: {list(table.b)}")
        print(f"cocycle_dims: {list(table.z)}")
        if args.graded:
            for k in range(g.n + 1):
                cells = " ".join(
                    f"m={m}:{v}" for (kk, m), v in sorted(table.graded.items()) if kk == k
                )
                print(f"graded k={k}: {cells}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if not args.tree and (args.max_dim is not None or args.dot is not None):
        raise ValueError("--max-dim and --dot need --tree")
    if args.tree and args.format == "json":  # JSON then DOT would not parse as JSON
        raise ValueError("--tree writes DOT and cannot follow --format json")
    algebras = classify.enumerate_algebras(args.dim)
    if args.format == "json":
        print(json.dumps(classify.dimension_json_dict(args.dim), indent=2))
    else:
        print(f"dimension {args.dim}: {len(algebras)} algebras")
        for g, table in zip(algebras, betti_tables(algebras)):
            print(f"{classify.label(g):10s} {g.row()}  betti={list(table.b)}")
    if args.tree:
        return _emit_tree(args.dim if args.max_dim is None else args.max_dim, args.dot)
    return EXIT_OK


def _emit_tree(max_dim: int, dot_path: str | None) -> int:
    dot = classify.to_dot(classify.extension_tree(max_dim))
    if dot_path is None:
        sys.stdout.write(dot)
        return EXIT_OK
    try:
        with open(dot_path, "w") as fh:
            fh.write(dot)
    except OSError as exc:
        print(f"error: cannot write {dot_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {dot_path}")
    return EXIT_OK


def _cmd_pair(args: argparse.Namespace) -> int:
    g = _algebra_from_arg(f"row:{args.row}", args.dim)
    p = partner(g)
    for name, a in (("input:  ", g), ("partner:", p)):
        print(f"{name} {a.row()}  label {classify.label(a)}  "
              f"root {classify.label(_truncation(a, MIN_DIMENSION))}")
    tg, tp = betti_tables((g, p))
    print(f"betti(input):   {list(tg.b)}")
    print(f"betti(partner): {list(tp.b)}")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _algebra_from_arg(f"row:{args.row}", args.dim)
    base, omega = extensions.reduce(g)
    print(f"base:  {base.row()}")
    print(f"omega: {omega}")
    return EXIT_OK


def _verify_thm1(max_dim: int, lines: list[str], failures: list[str]) -> None:
    for n in range(MIN_DIMENSION, max_dim + 1):
        # one batch ranks every table of n, which the other suites read too,
        # so each table is ranked once per run; m0(n) and m2(n) are the
        # enumeration's ends (``classify.enumerate_algebras``)
        tables = betti_tables(classify.enumerate_algebras(n))
        b0, b2_ = list(tables[0].b), list(tables[-1].b)
        ok = b0 == b2_
        lines.append(f"thm1 n={n} {'ok' if ok else 'FAIL'} b={b0}")
        if not ok:
            failures.append(f"thm1 n={n}: {b0} != {b2_}")
        want_b2 = (n + 1) // 2
        if b0[2] != want_b2:
            failures.append(f"thm1 n={n}: b_2 = {b0[2]} != {want_b2}")
            lines.append(f"thm1 n={n} FAIL b_2 formula")


@functools.cache
def _partner_sweep(max_dim: int) -> Mapping[VergneAlgebra, VergneAlgebra]:
    """The partner of each enumerated algebra of n = 5..max_dim, from one
    ``extensions.partners`` sweep; read-only.

    Memoised for one ``verify`` command: ``_cmd_verify`` clears it on entry
    and on exit, so thm2 and diagrams share one sweep and no sweep outlives
    its command."""
    return MappingProxyType(partners(g for n in range(MIN_DIMENSION, max_dim + 1)
                                     for g in classify.enumerate_algebras(n)))


def _verify_thm2(max_dim: int, lines: list[str], failures: list[str]) -> None:
    """Every enumerated g has a partner p with equal Betti numbers, another
    dimension-5 root, and g as the partner of p, read off p's own sweep
    entry, which ``extensions.partners`` builds along p's own chain.  The
    sweep hands out the enumerated instances themselves, so p's table is the
    one ranked in the batch of its n.

    *Distinct roots, hence non-isomorphic.*  With g^1 = [g, g] and
    g^{i+1} = [g, g^i], the lower central series of a Vergne-type g is
    g^i = span(e_{i+2}..e_n): [e_1, e_j] = e_{j+1} reaches each index, and
    [e_i, e_j] with i, j >= 2 lands at i + j, higher still.  Each g^i is
    characteristic, so an isomorphism g ≅ p maps g^4 onto p^4, and g/g^4 is
    an isomorphism invariant.  It is the truncation at 5
    (``extensions._truncation``), the root of ``extensions.decompose``:
    m0(5) when c_{2,3} = 0 and m2(5) when c_{2,3} = 1, bit 3 of
    ``rows[2]``.  m0(5) and m2(5) are told apart by
    ``extensions.has_codim1_abelian_ideal``, as the roots line checks.  So
    g and p are not isomorphic when their c_{2,3} differ, at every n, and
    ``distinct`` reads that bit; a partner of another dimension is distinct
    by its dimension."""
    roots = classify.enumerate_algebras(MIN_DIMENSION)  # m0(5), m2(5)
    root_ok = has_codim1_abelian_ideal(roots[0]) and not has_codim1_abelian_ideal(roots[-1])
    lines.append(f"thm2 roots distinguished by abelian ideal: {'ok' if root_ok else 'FAIL'}")
    if not root_ok:
        failures.append("thm2: dimension-5 roots not distinguished")
    mate = _partner_sweep(max_dim)
    for n in range(MIN_DIMENSION, max_dim + 1):
        algebras = classify.enumerate_algebras(n)
        betti_tables(algebras)
        for g in algebras:
            p = mate[g]
            same_betti = betti(g).b == betti(p).b
            distinct = g.n != p.n or bool((g.rows[2] ^ p.rows[2]) & 8)  # the roots differ
            q = mate.get(p)
            involutive = (partner(p) if q is None else q) == g
            ok = same_betti and distinct and involutive
            lines.append(
                f"thm2 n={n} {classify.label(g)} ~ {classify.label(p)} "
                f"{'ok' if ok else 'FAIL'}"
            )
            if not ok:
                failures.append(
                    f"thm2 n={n} {g.row()}: betti={same_betti} "
                    f"distinct={distinct} involutive={involutive}"
                )


def _verify_diagrams(max_dim: int, lines: list[str], failures: list[str]) -> None:
    mate = _partner_sweep(max_dim)
    for n in range(MIN_DIMENSION, max_dim + 1):
        algebras = classify.enumerate_algebras(n)
        pair_list = [(algebras[0], algebras[-1])] + [(g, mate[g]) for g in algebras]
        for g1, g2 in pair_list:
            if g2.n != n:
                # a wrong partner fails the check; the square would refuse it as bad input
                fault = f"dimension {g2.n}"
            else:
                bad = list(square_failures(g1, g2))
                fault = f"k={bad}" if bad else ""
            lines.append(
                f"diagrams n={n} {classify.label(g1)} ~ {classify.label(g2)} "
                f"{'FAIL at ' + fault if fault else 'ok'}"
            )
            if fault:
                failures.append(f"diagrams n={n} {g1.row()} vs {g2.row()}: {fault}")


def _graded_dual(table: BettiTable) -> bool:
    """Whether dim H^k_m = dim H^(n-k)_(top-m) for every (k, m), where
    top = n(n+1)/2 and an absent entry reads 0: the graded entries compared
    with their mirror {(n-k, top-m): v} once.  The mirror map is an
    involution, so equal mappings are that identity.  Entries of 0, which
    the constructor accepts and library tables omit, can make the key sets
    differ alone; then the items on one side only decide, as the identity
    holds exactly when each of them has the value 0."""
    n, graded = table.n, table.graded
    top = n * (n + 1) // 2
    mirror = {(n - k, top - m): v for (k, m), v in graded.items()}
    return mirror == graded or not any(v for _, v in mirror.items() ^ graded.items())


def _verify_consistency(max_dim: int, lines: list[str], failures: list[str]) -> None:
    """Every enumerated table of n = 5..max_dim: its own identities
    (``BettiTable.violations``), the observed duality b_k = b_(n-k), then
    the graded duality (``_graded_dual``), and b_1 = 2."""
    for n in range(MIN_DIMENSION, max_dim + 1):
        recorded = len(failures)
        top = n * (n + 1) // 2  # the degree of e^1^...^e^n
        algebras = classify.enumerate_algebras(n)
        for g, table in zip(algebras, betti_tables(algebras)):
            bad = table.violations()
            if bad:
                failures.append(f"consistency n={n} {g.row()}: {bad}")
                lines.append(f"consistency n={n} {classify.label(g)} FAIL {bad}")
            duality = all(table.b[k] == table.b[n - k] for k in range(n + 1))
            if not duality:
                # observed regularity, reported loudly but tracked as a failure
                failures.append(f"duality n={n} {g.row()}: b != reversed(b)")
            elif not _graded_dual(table):
                # the graded refinement, read only where its sums over m agree
                failures.append(f"graded duality n={n} {g.row()}: H^k_m != H^(n-k)_({top}-m)")
            if table.b[1] != 2:
                failures.append(f"consistency n={n} {g.row()}: b_1 = {table.b[1]} != 2")
        status = "ok" if len(failures) == recorded else "FAIL"
        lines.append(f"consistency n={n} {status} ({len(algebras)} algebras)")


def _cmd_verify(args: argparse.Namespace) -> int:
    lines: list[str] = []
    failures: list[str] = []
    _partner_sweep.cache_clear()
    try:
        if args.suite in ("thm1", "all"):
            _verify_thm1(args.max_dim, lines, failures)
        if args.suite in ("thm2", "all"):
            _verify_thm2(args.max_dim, lines, failures)
        if args.suite in ("diagrams", "all"):
            _verify_diagrams(args.max_dim, lines, failures)
        if args.suite == "all":
            _verify_consistency(args.max_dim, lines, failures)
    finally:
        _partner_sweep.cache_clear()
    for line in lines:
        print(line)
    if failures:
        print(f"{len(failures)} check(s) failed:")
        for f in failures:
            print(f"  {f}")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vergne",
        description="GF(2) cohomology and classification of Vergne-type filiform Lie algebras",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("betti", help="Betti table of one algebra")
    p.add_argument("--dim", type=_dimension(MAX_BETTI_DIM), required=True)
    p.add_argument("--algebra", required=True, help="m0, m2 or row:<rowstring>")
    p.add_argument("--graded", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("enumerate", help="all algebras of one dimension")
    p.add_argument("--dim", type=_dimension(MAX_BETTI_DIM), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tree", action="store_true", help="also emit the extension tree")
    p.add_argument("--max-dim", type=_dimension(MAX_AMBIENT), default=None)
    p.add_argument("--dot", default=None, help="write DOT here instead of stdout")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("tree", help="extension tree as DOT")
    p.add_argument("--max-dim", type=_dimension(MAX_AMBIENT), required=True)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=lambda args: _emit_tree(args.max_dim, args.dot))

    p = sub.add_parser("pair", help="Betti partner of a row")
    p.add_argument("--dim", type=_dimension(MAX_BETTI_DIM), required=True)
    p.add_argument("--row", required=True)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("reduce", help="strip one central extension")
    p.add_argument("--dim", type=_dimension(MAX_AMBIENT), required=True)
    p.add_argument("--row", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("thm1", "thm2", "diagrams", "all"), required=True)
    p.add_argument("--max-dim", type=_dimension(MAX_BETTI_DIM), default=12)
    p.set_defaults(func=_cmd_verify)

    return parser


def _internal_error(exc: Exception) -> int:
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    stdout = sys.stdout
    if stdout is None:  # started with fd 1 closed
        print("error: cannot write stdout", file=sys.stderr)
        return EXIT_IO
    if stdout is sys.__stdout__ and isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # Unbuffered (python -u): sys.stdout drops the count of a short write
        # to a pipe that closes, so write through a BufferedWriter, which
        # retries the rest and raises.  Line-buffered, the nearest to unbuffered.
        sys.stdout = open(stdout.fileno(), "w", buffering=1, encoding=stdout.encoding,
                          errors=stdout.errors, closefd=False)
    try:
        return _run(argv)
    finally:
        if sys.stdout is not stdout:
            with contextlib.suppress(OSError):  # _run reported what is left unwritten
                sys.stdout.close()
            sys.stdout = stdout


def _run(argv: list[str] | None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code  # 2 for a usage error, 0 after --help
        else:
            code = args.func(args)
        sys.stdout.flush()  # --help's text too: argparse drops its write errors
        return code
    except OSError as exc:  # stdout: the library does no I/O, and --dot reports its own
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:  # drop the buffer, or the exit's flush fails: 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (ImageOutsideCodomain, AmbientMismatch) as exc:
        # ValueErrors, but raised by the library's own grading bookkeeping:
        # no command line input can cause them.
        return _internal_error(exc)
    except JacobiViolation as exc:
        detail = ""
        if exc.triple is not None:
            detail = f" (triple {exc.triple})"
        elif exc.index is not None:
            detail = f" (index {exc.index})"
        print(f"error: not a Lie algebra: {exc}{detail}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        return _internal_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
