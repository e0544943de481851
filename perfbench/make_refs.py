"""Write the reference outputs in perfbench/refs from the current code.

Usage: python3 perfbench/make_refs.py

Run it only at a commit whose answers are trusted: the benchmark counts
every later difference from these files as a failed item.  The Betti pool
is every Jacobi-valid row at n = 14, 15 and 16 (m0 and m2 included); the
classification reference covers n = 5..CLASSIFY_N_MAX; the transcript is
``vergne verify --suite all --max-dim VERIFY_MAX_DIM``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import CLASSIFY_N_MAX, POOL_DIMS, VERIFY_MAX_DIM  # noqa: E402


def main() -> None:
    from vergne import betti, classify, cli, extensions

    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    pool = {
        str(n): [{"row": str(g.row()), "betti": list(betti(g).b)}
                 for g in classify.enumerate_algebras(n)]
        for n in POOL_DIMS
    }
    algebras = {}
    for n in range(5, CLASSIFY_N_MAX + 1):
        algebras[str(n)] = [
            {
                "n": n,
                "row": str(g.row()),
                "partner": str(extensions.partner(g).row()),
                "label": classify.label(g),
                "root": classify.label(extensions.decompose(g).root),
                "ideal": extensions.has_codim1_abelian_ideal(g),
            }
            for g in classify.enumerate_algebras(n)
        ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "all", "--max-dim", str(VERIFY_MAX_DIM)])
    if code != 0:
        raise SystemExit(f"verify exited with {code}; not writing references")
    (refs / "betti_pool.json").write_text(json.dumps(pool, indent=1) + "\n")
    (refs / "classify.json").write_text(
        json.dumps({"n_max": CLASSIFY_N_MAX, "algebras": algebras}, indent=1) + "\n"
    )
    (refs / f"verify_all_{VERIFY_MAX_DIM}.txt").write_text(out.getvalue())


if __name__ == "__main__":
    main()
