"""Tests of the benchmark harness itself, on inputs small enough to run in seconds.

Run: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import read_spans  # noqa: E402

SMALL = {
    "betti": {"kind": "betti", "warm": [[7, list(range(8))], [8, list(range(9))]], "seed": 3,
              "pool": {"7": ["[0, 0, 0, 1, 0, 0]", "[0, 1, 1, 0, 0, 0]"],
                       "8": ["[0, 0, 0, 0, 0, 0, 0]", "[0, 1, 1, 0, 1, 0, 0]"]},
              "rounds": 2, "seconds": 0},
    "classify": {"kind": "classify", "warm": [[n, [2, 3]] for n in range(5, 10)], "seed": 3,
                 "n_max": 9, "rounds": 2, "seconds": 0},
    "verify": {"kind": "verify", "warm": [[n, list(range(n + 1))] for n in range(5, 7)],
               "max_dim": 6},
}
COUNT_METRICS = ("gf2.rank.sum", "gf2.rank.cells", "gf2.rank.max_cells",
                 "exterior.matrix_of.nnz", "core.from_row.accept_ratio",
                 "cohomology.betti.hit_ratio", "cli.stdout_bytes")


def _spawn(spec, **extra):
    out = run.spawn(dict(spec, **extra), time.monotonic() + 120)
    assert "error" not in out, out.get("error")
    return out


def test_traced_and_untraced_jobs_agree_and_counts_repeat(tmp_path):
    for kind, spec in SMALL.items():
        untraced = _spawn(spec)
        first = _spawn(spec, trace=True, trace_path=str(tmp_path / f"{kind}.bin"))
        second = _spawn(spec, trace=True)
        assert run.answers(first) == run.answers(untraced) == run.answers(second), kind
        a = run.layer_metrics(first, untraced)
        b = run.layer_metrics(second, untraced)
        counted = [k for k in a if k.endswith(".calls") or k in COUNT_METRICS]
        assert {k: a[k] for k in counted} == {k: b[k] for k in counted}, kind
        assert sum(a[k][0] for k in a if k.endswith(".calls")) > 0, kind
        names, spans = read_spans(tmp_path / f"{kind}.bin")
        assert len(spans) == sum(c for c, _ in first["trace"]["spans"].values())
        assert {names[s[0]] for s in spans} == set(first["trace"]["spans"])


def test_per_layer_metrics_cover_benchmark_json():
    declared = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    out = _spawn(SMALL["betti"], trace=True)
    assert set(run.layer_metrics(out, out)) == declared


def test_wrong_answers_count_as_failed_items():
    from vergne import betti, from_row

    refs = checks.load_refs()
    entry = refs["betti_pool"]["14"][0]
    table = betti(from_row(entry["row"]))
    item = {"row": entry["row"], "n": 14, "b": list(table.b),
            "graded": [[k, m, v] for (k, m), v in table.graded.items()]}
    assert checks.check_betti([item], refs["betti_pool"]) == (1, 0, [])
    wrong = dict(item, b=item["b"][:3] + [item["b"][3] + 1] + item["b"][4:])
    attempted, failed, problems = checks.check_betti([item, wrong], refs["betti_pool"])
    assert (attempted, failed) == (2, 1) and problems

    ref = refs["classify"]
    good = _classify_output_from(ref)
    assert checks.check_classify(good, ref)[1:] == (0, [])
    bad = json.loads(json.dumps(good))
    bad["items"][0]["partner"] = bad["items"][0]["row"]
    assert checks.check_classify(bad, ref)[1] >= 1

    transcript = refs["verify"][run.VERIFY_MAX_DIM]
    assert checks.check_verify({"exit": 0, "stdout": transcript}, transcript)[1] == 0
    altered = transcript.replace(" ok", " FAIL", 1)
    assert checks.check_verify({"exit": 0, "stdout": altered}, transcript)[1] == 1
    assert checks.check_verify({"exit": 1, "stdout": transcript}, transcript)[1] == len(
        transcript.splitlines())


def _classify_output_from(ref):
    rows = {n: [e["row"] for e in es] for n, es in ref["algebras"].items()}
    items = [dict(e, steps=e["n"] - 5) for es in ref["algebras"].values() for e in es]
    keys = [f"{e['n']}:{json.loads(e['row'])}" for e in items]
    edges = [[k, checks._truncation(k)] for k in keys if not k.startswith("5:")]
    return {"enumerated": rows, "items": items, "tree_nodes": len(items),
            "tree_edges": edges, "by_extension": rows[str(ref["n_max"])]}


def test_percentile_reports_sample_count():
    value, count = run.percentile([float(x) for x in range(1, 101)], 90)
    assert abs(value - 90.5) < 1e-6 and count == 100
    value, count = run.percentile([5.0, 1.0, 3.0], 50)
    assert abs(value - 3.0) < 1e-12 and count == 3
    assert abs(run._betainc(2.0, 3.0, 0.4) - 0.5248) < 1e-12
    assert abs(run._betainc(3.0, 2.0, 0.6) + run._betainc(2.0, 3.0, 0.4) - 1.0) < 1e-12
    assert run.percentile([2.0], 90) == (2.0, 1)
    assert run.percentile([], 50) == (0.0, 0)


def test_latency_samples_are_each_items_median_scaled_visit():
    ref = run.PROBE_REF_MS
    jobs = [{"items": [{"n": 7, "row": "a", "ms": 5.0, "probe_ms": ref},
                       {"n": 7, "row": "b", "ms": 4.0, "probe_ms": 2 * ref},
                       {"n": 7, "row": "a", "ms": 3.0, "probe_ms": ref}],
             "once_s": 2.0, "once_probe_ms": 2 * ref},
            {"items": [{"n": 7, "row": "a", "ms": 9.0, "probe_ms": ref}]},
            {"error": "job timed out"}]
    items = run.item_ms(jobs[:1])
    assert items == {(7, "a"): 4.0, (7, "b"): 2.0}
    assert run.pass_rate([{"items": []}], items) == 2 / 0.006
    assert run.pass_rate(jobs, items) == 2 / 1.006
    assert run.item_ms(jobs)[(7, "a")] == 5.0
    lines = [{"items": [{"line": 0, "ms": 9.0, "probe_ms": ref}]},
             {"items": [{"line": 0, "ms": 7.0, "probe_ms": ref}]}]
    assert run.item_ms(lines) == {0: 8.0}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
