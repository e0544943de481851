"""Mutants that guard the library's proof-backed shortcuts.

Usage, from the root of a checkout:

    python tests/mutants.py [name ...]

Each mutant breaks one shortcut that the library takes by proof: it
replaces one exact snippet of one file under ``src/`` and names the tests
that must fail once it is applied.  The runner copies ``src/`` to a
temporary directory, first runs every named test on the clean copy (they
must pass there, or a kill means nothing), then applies one mutant at a
time to a fresh copy and runs its tests against that copy, with the copy
first on the path.  A mutant is killed when every one of its tests fails.
The runner prints one line per mutant and exits 1 if any mutant survives
(one of its tests still passes) or pytest cannot run its tests.  With
names, it runs only those mutants.

``tests/test_api.py`` checks in every test run that each snippet still
occurs exactly once in its file, so a refactor cannot retire a mutant
silently.  A change that adds a shortcut by proof adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/vergne
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MUTANTS = (
    Mutant(
        "partners-index-keyed-by-n",
        "extensions.py",
        "held = {(g.n, g.rows): g for g in family}",
        'held = type("ByN", (dict,), {"get": lambda s, k: dict.get(s, k[0])})'
        "({g.n: g for g in family})",
        ("tests/test_extensions.py::test_partners_sweep_matches_the_decomposition_oracle",),
    ),
    Mutant(
        "partners-store-a-truncation-miss",
        "extensions.py",
        "held.get((n - 1, rows)) or _from_rows(n - 1, rows)",
        "held.get((n - 1, rows)) or _store(n - 1, rows)",
        ("tests/test_extensions.py::test_partners_validate_a_truncation_the_family_lacks",
         "tests/test_cli.py::test_pair_reduces_only_in_the_partner_walk"),
    ),
    Mutant(
        "partners-store-an-extension-miss",
        "extensions.py",
        "held.get((p.n + 1, rows)) or _extended(rows, f)",
        "held.get((p.n + 1, rows)) or _store(p.n + 1, rows)",
        ("tests/test_extensions.py::test_partners_validate_a_broken_cocycle_through_the_sweep",),
    ),
    Mutant(
        "square-read-off-row-3",
        "cohomology.py",
        "if g1.rows[2] ^ g2.rows[2] == _m2_row(n):",
        "if g1.rows[3] ^ g2.rows[3] == _m2_row(n):",
        ("tests/test_cohomology.py::test_square_failures_reads_row_two_as_the_whole_rows_decide",),
    ),
    Mutant(
        "square-without-the-m2-row",
        "cohomology.py",
        "if g1.rows[2] ^ g2.rows[2] == _m2_row(n):",
        "if g1.rows[2] == g2.rows[2]:",
        ("tests/test_cohomology.py::test_square_failures_reads_row_two_as_the_whole_rows_decide",),
    ),
    Mutant(
        "thm2-root-bit-read-as-4",
        "cli.py",
        "bool((g.rows[2] ^ p.rows[2]) & 8)",
        "bool((g.rows[2] ^ p.rows[2]) & 4)",
        ("tests/test_cli.py::test_verify_all_transcript_is_byte_identical",),
    ),
    Mutant(
        "graded-dual-mirrors-only-k",
        "cli.py",
        "mirror = {(n - k, top - m): v for (k, m), v in graded.items()}",
        "mirror = {(n - k, m): v for (k, m), v in graded.items()}",
        ("tests/test_cohomology.py::test_graded_duality_matches_the_lookup",),
    ),
    Mutant(
        "graded-dual-without-the-zero-entries",
        "cli.py",
        "return mirror == graded or not any(v for _, v in mirror.items() ^ graded.items())",
        "return mirror == graded",
        ("tests/test_cohomology.py::test_graded_duality_matches_the_lookup",),
    ),
    Mutant(
        "violations-without-the-side-dict",
        "cohomology.py",
        "apart[m] = apart.get(m, 0) + (-v if k & 1 else v)",
        "pass",
        ("tests/test_cohomology.py::test_violations_match_the_bucket_recount",),
    ),
    Mutant(
        "models-not-at-the-ends",
        "classify.py",
        'key=lambda h: f"{h.rows[2]:0{n + 1}b}"[::-1])',
        'key=lambda h: f"{h.rows[2]:0{n + 1}b}"[::-1], reverse=True)',
        ("tests/test_cli.py::test_verify_reads_the_models_at_the_enumerations_ends",
         "tests/test_cli.py::test_verify_all_transcript_is_byte_identical"),
    ),
    Mutant(
        "child-rows-store-without-the-triples",
        "extensions.py",
        "window = (1 << n // 2) - 1 & -8",
        "window = 0",
        ("tests/test_classify.py::test_forward_search_matches_row_enumeration",),
    ),
    Mutant(
        "child-rows-without-the-diagonal",
        "extensions.py",
        "if n & 1 and x:  # the diagonal",
        "if False:",
        ("tests/test_classify.py::test_forward_search_matches_row_enumeration",),
    ),
    Mutant(
        "complete-row-window-one-wider",
        "core.py",
        "& ((1 << (n - i)) - (1 << (i + 2)))",
        "& ((1 << (n - i + 1)) - (1 << (i + 2)))",
        ("tests/test_core.py::test_bitwise_completion_matches_pair_by_pair_oracle",),
    ),
    Mutant(
        "e1-read-one-position-off",
        "cohomology.py",
        "col = factor.get(r, 0)",
        "col = factor.get(r - 1, 0)",
        ("tests/test_cohomology.py::test_betti_tables_by_brute_force_blocks",
         "tests/test_cohomology.py::test_betti_tables_by_the_general_mapping_cone"),
    ),
    Mutant(
        "e2-read-without-the-drop",
        "cohomology.py",
        "col = second.get(r + lift, 0) >> drop",
        "col = second.get(r + lift, 0)",
        ("tests/test_cohomology.py::test_betti_tables_by_brute_force_blocks",
         "tests/test_cohomology.py::test_betti_tables_by_the_general_mapping_cone"),
    ),
    Mutant(
        "clearing-skips-one-more",
        "cohomology.py",
        "live = every ^ skip",
        "live = (every ^ skip) & (every ^ skip) - 1",
        ("tests/test_cohomology.py::test_betti_tables_by_brute_force_blocks",
         "tests/test_cohomology.py::test_betti_tables_by_the_general_mapping_cone"),
    ),
)


def _pytest(src: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """Run ``tests`` with the package imported from ``src``: the ini file's
    ``pythonpath`` would put the checkout's own ``src`` first, so it is
    overridden."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-rfp", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def _copy(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="vergne-mutants-") as tmp:
        clean = _pytest(_copy(Path(tmp) / "clean"), sorted({t for m in chosen for t in m.tests}))
        if clean.returncode != 0:
            print(clean.stdout + clean.stderr)
            print("the mutants' tests fail on the unmutated sources")
            return 1
        survivors = []
        for i, mutant in enumerate(chosen):
            src = _copy(Path(tmp) / str(i))
            target = src / "vergne" / mutant.path
            text = target.read_text()
            if text.count(mutant.snippet) != 1:
                print(f"{mutant.name}: snippet occurs {text.count(mutant.snippet)} times")
                return 1
            target.write_text(text.replace(mutant.snippet, mutant.replacement))
            t0 = time.perf_counter()
            run = _pytest(src, list(mutant.tests))
            outcome = {}  # "PASSED" or "FAILED" -> the node ids, parameters cut off
            for line in run.stdout.splitlines():
                word, _, rest = line.partition(" ")
                if word in ("PASSED", "FAILED"):
                    outcome.setdefault(word, set()).add(rest.split()[0].split("[")[0])
            if outcome.get("PASSED"):
                verdict = f"SURVIVED {sorted(outcome['PASSED'])}"
            elif outcome.get("FAILED", set()) >= set(mutant.tests):
                verdict = "killed"
            else:  # a test that neither passed nor failed did not run: a collection error
                verdict = f"ERROR (pytest exit {run.returncode})\n{run.stdout[-2000:]}"
            print(f"{mutant.name}: {verdict} ({time.perf_counter() - t0:.1f} s)")
            if verdict != "killed":
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
