"""Correctness gate: every job output against committed references and
against invariants that hold whatever the code under test does.

Each check returns (attempted, failed, problems).  ``problems`` holds one
line per mismatch so that a failing run says what went wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


def load_refs() -> dict:
    with open(REFS / "betti_pool.json") as fh:
        betti_pool = json.load(fh)
    with open(REFS / "classify.json") as fh:
        classify = json.load(fh)
    verify = {}
    for path in sorted(REFS.glob("verify_all_*.txt")):
        verify[int(path.stem.rsplit("_", 1)[1])] = path.read_text()
    return {"betti_pool": betti_pool, "classify": classify, "verify": verify}


def betti_problems(n: int, b: list[int], graded: list[list[int]], want: list[int]) -> list[str]:
    """Mismatches of one Betti table against its reference and the identities
    b_0 = 1, b_1 = 2, b_k = b_{n-k}, alternating sum 0, graded sums = b_k."""
    out = []
    if b != want:
        out.append(f"betti {b} != reference {want}")
    if len(b) != n + 1:
        return out + [f"{len(b)} Betti numbers for n = {n}"]
    if b[0] != 1 or b[1] != 2:
        out.append(f"b_0, b_1 = {b[0]}, {b[1]} (expected 1, 2)")
    if b != b[::-1]:
        out.append("b_k != b_(n-k)")
    if sum((-1) ** k * v for k, v in enumerate(b)) != 0:
        out.append("alternating sum != 0")
    sums = [0] * (n + 1)
    for k, _, v in graded:
        sums[k] += v
    if sums != b:
        out.append(f"graded sums {sums} != betti")
    return out


def check_betti(items: list[dict], pool: dict[str, list[dict]]) -> tuple[int, int, list[str]]:
    want = {e["row"]: e["betti"] for rows in pool.values() for e in rows}
    failed, problems = 0, []
    for item in items:
        if "error" in item:
            bad = [f"raised {item['error']}"]
        elif item["row"] not in want:
            bad = ["row is not in the pool"]
        else:
            bad = betti_problems(item["n"], item["b"], item["graded"], want[item["row"]])
        if bad:
            failed += 1
            problems += [f"betti {item['row']}: {p}" for p in bad]
    return len(items), failed, problems


def _truncation(key: str) -> str:
    # Dropping e_n keeps every c_{i,j} with i + j <= n-1: the parent row is the
    # child row without its last free position, padded with zeros again.
    n, bits = key.split(":")
    bits = json.loads(bits)
    return f"{int(n) - 1}:{bits[:-3] + [0, 0]}"


def check_classify(out: dict, ref: dict) -> tuple[int, int, list[str]]:
    """One classify job: per-dimension rows, partner pairing (distinct and
    involutive), labels, roots, the extension tree and the cross-check.

    One item per algebra visit, and at least one per reference algebra."""
    want = {(e["n"], e["row"]): e for rows in ref["algebras"].values() for e in rows}
    if "error" in out:
        return len(want), len(want), [f"classify job raised {out['error']}"]
    attempted = max(len(want), len(out["items"]))
    problems = []
    failed = 0
    for n, rows in ref["algebras"].items():
        got = out["enumerated"].get(n, [])
        if got != [e["row"] for e in rows]:
            missing = {e["row"] for e in rows} ^ set(got)
            failed += len(missing) or 1
            problems.append(f"enumerate n={n}: {len(got)} rows, reference {len(rows)}")
    seen = set()
    for item in out["items"]:
        key = (item["n"], item["row"])
        seen.add(key)
        e = want.get(key)
        if e is None:
            bad = ["not a reference algebra"]
        elif "error" in item:
            bad = [f"raised {item['error']}"]
        else:
            bad = [f"{f} {item[f]!r} != reference {e[f]!r}"
                   for f in ("partner", "label", "root", "ideal") if item[f] != e[f]]
            back = want.get((item["n"], item["partner"]))
            if item["partner"] == item["row"] or back is None or back["partner"] != item["row"]:
                bad.append("partner is not a distinct involutive pairing")
            if item["steps"] != item["n"] - 5:
                bad.append(f"{item['steps']} extension steps for n = {item['n']}")
        if bad:
            failed += 1
            problems += [f"classify {key}: {p}" for p in bad]
    failed += len(want.keys() - seen)
    n_max = str(ref["n_max"])
    top = [e["row"] for e in ref["algebras"][n_max]]
    if out["by_extension"] != top:
        failed += len(set(out["by_extension"]) ^ set(top)) or 1
        problems.append("enumerate_by_extension != enumerate_algebras")
    if out["tree_nodes"] != len(want) or len(out["tree_edges"]) != len(want) - 2:
        failed += 1
        problems.append(f"tree has {out['tree_nodes']} nodes, {len(out['tree_edges'])} edges")
    bad_edges = [c for c, p in out["tree_edges"] if _truncation(c) != p]
    if bad_edges:
        failed += len(bad_edges)
        problems.append(f"tree edges not truncations: {bad_edges[:3]}")
    return attempted, min(failed, attempted), problems


def check_verify(out: dict, transcript: str) -> tuple[int, int, list[str]]:
    """Byte-for-byte transcript check; one item per reference line."""
    want = transcript.splitlines(keepends=True)
    attempted = len(want)
    if "error" in out:
        return attempted, attempted, [f"verify job raised {out['error']}"]
    got = out["stdout"].splitlines(keepends=True)
    failed = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
    problems = []
    if failed:
        problems.append(f"verify transcript differs on {failed} line(s)")
    if out["exit"] != 0:
        failed = attempted
        problems.append(f"verify exited with {out['exit']}")
    return attempted, min(failed, attempted), problems
