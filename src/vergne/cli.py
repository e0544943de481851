"""Command line surface: betti, enumerate, pair, tree, verify, reduce.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O
failure, 4 internal error.  Output is deterministic for identical
invocations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify, extensions
from .cohomology import betti, verify_commuting_square
from .core import MIN_DIMENSION, JacobiViolation, VergneAlgebra, from_row, m0, m2, parse_row
from .exterior import AmbientMismatch, ImageOutsideCodomain
from .extensions import decompose, has_codim1_abelian_ideal, partner

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# Largest n whose cold `betti --dim n --algebra m2` finishes within a minute:
# 26-31 s at n = 22 and 91 s at n = 23 on a 2-core Xeon VM with CPython 3.11.
MAX_BETTI_DIM = 22


def _check_feasible(flag: str, n: int) -> None:
    if n > MAX_BETTI_DIM:
        raise ValueError(
            f"{flag} {n} is past the feasibility bound: Betti tables are computed "
            f"up to dimension {MAX_BETTI_DIM}"
        )


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
    _check_feasible("--dim", args.dim)
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
    _check_feasible("--dim", args.dim)
    if not args.tree and (args.max_dim is not None or args.dot is not None):
        raise ValueError("--max-dim and --dot need --tree")
    if args.max_dim is not None and args.max_dim < MIN_DIMENSION:
        raise ValueError(f"--max-dim must be at least {MIN_DIMENSION}, got {args.max_dim}")
    algebras = classify.enumerate_algebras(args.dim)
    if args.format == "json":
        print(json.dumps(classify.dimension_json_dict(args.dim), indent=2))
    else:
        print(f"dimension {args.dim}: {len(algebras)} algebras")
        for g in algebras:
            print(f"{classify.label(g):10s} {g.row()}  betti={list(betti(g).b)}")
    if args.tree:
        return _emit_tree(args.dim if args.max_dim is None else args.max_dim, args.dot)
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    return _emit_tree(args.max_dim, args.dot)


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
    _check_feasible("--dim", args.dim)
    g = _algebra_from_arg(f"row:{args.row}", args.dim)
    p = partner(g)
    print(f"input:   {g.row()}  label {classify.label(g)}  root {classify.label(decompose(g).root)}")
    print(f"partner: {p.row()}  label {classify.label(p)}  root {classify.label(decompose(p).root)}")
    print(f"betti(input):   {list(betti(g).b)}")
    print(f"betti(partner): {list(betti(p).b)}")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _algebra_from_arg(f"row:{args.row}", args.dim)
    base, omega = extensions.reduce(g)
    print(f"base:  {base.row()}")
    print(f"omega: {omega}")
    return EXIT_OK


def _verify_thm1(max_dim: int, lines: list[str], failures: list[str]) -> None:
    for n in range(5, max_dim + 1):
        # the enumerated instance equal to each model, whose Betti table the
        # other suites read too, so each table is ranked once per run
        known = {g: g for g in classify.enumerate_algebras(n)}
        g0, g2 = (known.get(g, g) for g in (m0(n), m2(n)))
        b0, b2_ = list(betti(g0).b), list(betti(g2).b)
        ok = b0 == b2_
        lines.append(f"thm1 n={n} {'ok' if ok else 'FAIL'} b={b0}")
        if not ok:
            failures.append(f"thm1 n={n}: {b0} != {b2_}")
        want_b2 = (n + 1) // 2
        if b0[2] != want_b2:
            failures.append(f"thm1 n={n}: b_2 = {b0[2]} != {want_b2}")
            lines.append(f"thm1 n={n} FAIL b_2 formula")


def _verify_thm2(max_dim: int, lines: list[str], failures: list[str]) -> None:
    root_ok = (
        has_codim1_abelian_ideal(m0(5)) and not has_codim1_abelian_ideal(m2(5))
    )
    lines.append(f"thm2 roots distinguished by abelian ideal: {'ok' if root_ok else 'FAIL'}")
    if not root_ok:
        failures.append("thm2: dimension-5 roots not distinguished")
    for n in range(5, max_dim + 1):
        known = {g: g for g in classify.enumerate_algebras(n)}
        for g in known:
            p = partner(g)
            p = known.get(p, p)  # the enumerated instance, as in thm1
            same_betti = betti(g).b == betti(p).b
            distinct = g.row() != p.row()
            involutive = partner(p) == g
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
    for n in range(5, max_dim + 1):
        pair_list = [(m0(n), m2(n))] + [
            (g, partner(g)) for g in classify.enumerate_algebras(n)
        ]
        for g1, g2 in pair_list:
            bad = [k for k in range(2, n + 1) if not verify_commuting_square(g1, g2, k)]
            ok = not bad
            lines.append(
                f"diagrams n={n} {classify.label(g1)} ~ {classify.label(g2)} "
                f"{'ok' if ok else 'FAIL at k=' + str(bad)}"
            )
            if not ok:
                failures.append(f"diagrams n={n} {g1.row()} vs {g2.row()}: k={bad}")


def _verify_consistency(max_dim: int, lines: list[str], failures: list[str]) -> None:
    for n in range(5, max_dim + 1):
        recorded = len(failures)
        for g in classify.enumerate_algebras(n):
            table = betti(g)
            bad = table.violations()
            if bad:
                failures.append(f"consistency n={n} {g.row()}: {bad}")
                lines.append(f"consistency n={n} {classify.label(g)} FAIL {bad}")
            duality = all(table.b[k] == table.b[n - k] for k in range(n + 1))
            if not duality:
                # observed regularity, reported loudly but tracked as a failure
                failures.append(f"duality n={n} {g.row()}: b != reversed(b)")
            if table.b[1] != 2:
                failures.append(f"consistency n={n} {g.row()}: b_1 = {table.b[1]} != 2")
        status = "ok" if len(failures) == recorded else "FAIL"
        lines.append(f"consistency n={n} {status} ({len(classify.enumerate_algebras(n))} algebras)")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_dim < MIN_DIMENSION:
        raise ValueError(f"--max-dim must be at least {MIN_DIMENSION}, got {args.max_dim}")
    _check_feasible("--max-dim", args.max_dim)
    lines: list[str] = []
    failures: list[str] = []
    if args.suite in ("thm1", "all"):
        _verify_thm1(args.max_dim, lines, failures)
    if args.suite in ("thm2", "all"):
        _verify_thm2(args.max_dim, lines, failures)
    if args.suite in ("diagrams", "all"):
        _verify_diagrams(args.max_dim, lines, failures)
    if args.suite == "all":
        _verify_consistency(args.max_dim, lines, failures)
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
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--algebra", required=True, help="m0, m2 or row:<rowstring>")
    p.add_argument("--graded", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("enumerate", help="all algebras of one dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tree", action="store_true", help="also emit the extension tree")
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--dot", default=None, help="write DOT here instead of stdout")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("tree", help="extension tree as DOT")
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("pair", help="Betti partner of a row")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--row", required=True)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("reduce", help="strip one central extension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--row", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("thm1", "thm2", "diagrams", "all"), required=True)
    p.add_argument("--max-dim", type=int, default=12)
    p.set_defaults(func=_cmd_verify)

    return parser


def _internal_error(exc: Exception) -> int:
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
