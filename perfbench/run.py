"""Benchmark of the vergne package: three workloads, end-to-end and per-layer.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload betti-cold|classify|verify-all \
      --seed N --seconds S --trace 0|1

Load model: one client in a closed loop, one process and one thread at a
time, because a user of the library or the CLI waits for each answer.
Every job runs in a fresh interpreter (perfbench/worker.py), so caches are
cold and peak memory is the job's own.

Workloads, and why each was chosen:
  betti-cold  betti(from_row(row)) on a fresh instance per item, rows taken
              from the Jacobi-valid rows at n = 14, 15, 16 (every fourth row
              of each dimension), visited in seeded rounds.  Large graded
              blocks: matrix building and GF(2) rank do nearly all the work,
              extensions and classify none.
  classify    enumerate_algebras(n) for n = 5..20, extension_tree and the
              enumerate_by_extension cross-check, then rounds of partner,
              decompose, label and the abelian-ideal witness on every
              algebra in seeded order.  Row validation and extension round
              trips do the work; no Betti tables, so rank is bypassed.
  verify-all  cli.main(["verify", "--suite", "all", "--max-dim", "12"]), whose
              stdout must match the committed transcript byte for byte.  Many
              tiny blocks, per-monomial Derivation calls, cached tables: a
              kernel that wins on big blocks but adds per-call cost loses here.

Items: a Betti table, an algebra's round trip, or a verify check line (timed
from the end of the previous line of its suite).  Each item is visited
several times in a run, and its latency sample is the median of its visits.
items_per_s is one pass of the workload at those latencies: items per second
of the summed item times, plus, for classify, the enumeration, tree and
cross-check time of its job.

The shared host's speed drifts by a third or more over seconds and minutes,
and the slow stretches can outlast a run.  So every time is scaled by the
host's speed when it was taken: a fixed kernel in the worker
(worker.probe_ms) runs every quarter second, between items or from a timer
signal during a long call, and right after each set-up probe.  A time t
taken when the kernel ran in p ms is reported as t * PROBE_REF_MS / p, the
time on a host where the kernel takes PROBE_REF_MS.  The kernel is part of
the benchmark, so a change to the program moves only t.

With --trace 0 the run measures for about --seconds seconds and prints the
end-to-end metrics.  With --trace 1 it runs a fixed amount of work twice on
identical inputs, untraced and traced, checks that both give the same
answers, and prints the per-layer metrics; span files go to .perfbench/.
The last line of stdout is the JSON result; the line before it records the
run (seed, counts, machine, Python, source version).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_betti, check_classify, check_verify, load_refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

POOL_DIMS = (14, 15, 16)
CLASSIFY_N_MAX = 20
VERIFY_MAX_DIM = 12
PROBE_REF_MS = 0.8  # the kernel's time on a 2-core Xeon VM, CPython 3.11
POOL_STRIDE = 4  # 14 of the 52 pool rows: about 5 s a round, 6 rounds a run
SETUP_PROBES = 11
RUN_BUDGET_S = 170  # every run must end within 180 s

WORKLOADS = ("betti-cold", "classify", "verify-all")

# Graded-basis slices each workload touches, warmed up during set-up.
WARM = {
    "betti-cold": [[n, list(range(n + 1))] for n in POOL_DIMS],
    "classify": [[n, [2, 3]] for n in range(5, CLASSIFY_N_MAX + 1)],
    "verify-all": [[n, list(range(n + 1))] for n in range(5, VERIFY_MAX_DIM + 1)],
}

SPAN_NAMES = [
    "gf2.rank", "gf2.solve_affine", "exterior.matrix_of", "exterior.graded_masks",
    "exterior.derivation_call", "core.algebra_init", "core.from_row", "core.involution",
    "cohomology.betti", "cohomology.verify_commuting_square", "extensions.partner",
    "extensions.decompose", "extensions.reduce", "extensions.central_extension",
    "extensions.admissible_cocycles", "classify.enumerate_algebras",
    "classify.extension_tree", "classify.enumerate_by_extension", "cli.main",
]
TIMING_KEYS = {"ms", "probe_ms", "wall_s", "once_s", "once_probe_ms", "setup_s", "peak_rss_mb",
               "trace"}


def spawn(spec: dict, deadline: float) -> dict:
    """Run one job in a fresh interpreter; a crash becomes an ``error`` entry.

    ``deadline`` is a ``time.monotonic()`` value the job may not outlive.
    """
    payload = json.dumps(dict(spec, spawned=time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=payload, cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"error": "job timed out"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) (continued fraction)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            frac *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * frac


def percentile(values: list[float], q: int) -> tuple[float, int]:
    """The Harrell-Davis estimate of the q-th percentile, and the sample count.

    It weighs every order statistic by a Beta((n+1)q/100, (n+1)(1-q/100))
    mass, so it does not jump when two items trade places across a gap in
    the sorted samples, as a single interpolated order statistic does.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return (xs[0] if xs else 0.0), n
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:])), n


def job_spec(workload: str, refs: dict, seed: int) -> dict:
    spec = {"warm": WARM[workload], "seed": seed}
    if workload == "betti-cold":
        pool = {n: [e["row"] for e in rows[::POOL_STRIDE]]
                for n, rows in refs["betti_pool"].items()}
        return dict(spec, kind="betti", pool=pool, rounds=1, seconds=0)
    if workload == "classify":
        return dict(spec, kind="classify", n_max=CLASSIFY_N_MAX, rounds=1, seconds=0)
    return dict(spec, kind="verify", max_dim=VERIFY_MAX_DIM)


def check(workload: str, refs: dict, out: dict, planned: int) -> tuple[int, int, list[str]]:
    if workload == "betti-cold":
        if "error" in out:
            return planned, planned, [out["error"]]
        return check_betti(out["items"], refs["betti_pool"])
    if workload == "classify":
        return check_classify(out, refs["classify"])
    return check_verify(out, refs["verify"][VERIFY_MAX_DIM])


def check_jobs(workload: str, refs: dict, jobs: list[dict], planned: int):
    """Summed (attempted, failed, problems) over the jobs of one run."""
    attempted, failed, problems = 0, 0, []
    for out in jobs:
        a, f, p = check(workload, refs, out, planned)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems


def answers(out: dict) -> dict:
    """A job's output without its timings, to compare traced and untraced jobs."""
    res = {k: v for k, v in out.items() if k not in TIMING_KEYS}
    if "items" in res:
        res["items"] = [{k: v for k, v in i.items() if k not in TIMING_KEYS}
                        for i in res["items"]]
    return res


def item_count(out: dict) -> int:
    """Items one job completed: printed lines, Betti tables or algebra visits."""
    if "error" in out:
        return 0
    return len(out["stdout"].splitlines()) if "stdout" in out else len(out["items"])


def scaled(t: float, probe_ms: float) -> float:
    """A time taken while the probe kernel ran in ``probe_ms``, scaled to a
    host where it runs in PROBE_REF_MS."""
    return t * PROBE_REF_MS / probe_ms


def item_ms(jobs: list[dict]) -> dict:
    """Each item's median scaled visit in the run: one latency sample per item."""
    visits: dict = {}
    for i in (i for j in jobs if "error" not in j for i in j["items"] if "ms" in i):
        key = i["line"] if "line" in i else (i["n"], i["row"])
        visits.setdefault(key, []).append(scaled(i["ms"], i["probe_ms"]))
    return {k: statistics.median(v) for k, v in visits.items()}


def pass_rate(jobs: list[dict], items: dict) -> float:
    """items_per_s of one pass of the workload at its items' latencies, with
    the time of the once-per-job steps (classify's enumeration) added."""
    ok = [j for j in jobs if "error" not in j]
    if not ok or not items:
        return 0.0
    busy = sum(items.values()) / 1000
    once = [scaled(j["once_s"], j["once_probe_ms"]) for j in ok if "once_s" in j]
    if once:
        busy += statistics.median(once)
    return len(items) / busy


def measure(workload: str, refs: dict, seed: int, seconds: int, deadline: float):
    """Untraced run: set-up probes, then jobs for about ``seconds``."""
    probes = [spawn({"kind": "setup", "warm": WARM[workload]}, deadline)
              for _ in range(SETUP_PROBES)]
    spec = job_spec(workload, refs, seed)
    jobs: list[dict] = []
    if workload == "verify-all":
        t0 = time.monotonic()
        while not jobs or time.monotonic() - t0 < seconds:
            jobs.append(spawn(spec, deadline))
    else:
        jobs.append(spawn(dict(spec, seconds=seconds), deadline))
    planned = sum(map(len, spec.get("pool", {}).values()))
    attempted, failed, problems = check_jobs(workload, refs, jobs, planned)
    probe_errors = [p["error"] for p in probes if "error" in p]
    attempted, failed = attempted + len(probe_errors), failed + len(probe_errors)
    problems += probe_errors
    ok = [j for j in probes if "error" not in j]
    items = item_ms(jobs)
    p50, samples = percentile(list(items.values()), 50)
    p90, _ = percentile(list(items.values()), 90)
    metrics = {
        "setup_s": (statistics.median([scaled(j["setup_s"], j["probe_ms"]) for j in ok]
                                      or [0.0]), "s"),
        "items_per_s": (pass_rate(jobs, items), "1/s"),
        "item_p50_ms": (p50, "ms"),
        "item_p90_ms": (p90, "ms"),
        "peak_rss_mb": (max([j["peak_rss_mb"] for j in jobs if "error" not in j] or [0.0]), "MB"),
        "pass_frac": (1 - failed / max(attempted, 1), "frac"),
    }
    info = {"jobs": len(jobs), "setup_samples": len(ok), "latency_samples": samples,
            "items_per_job": [item_count(j) for j in jobs]}
    return attempted, failed, problems, metrics, info


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced job; overhead is against its untraced twin."""
    spans = traced["trace"]["spans"]
    counts = traced["trace"]["counts"]
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = spans.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in ("gf2.rank.cells", "gf2.rank.max_cells", "gf2.rank.sum",
                 "exterior.matrix_of.nnz"):
        metrics[name] = (counts.get(name, 0), "count")
    from_row_calls = spans.get("core.from_row", (0, 0.0))[0]
    metrics["core.from_row.accept_ratio"] = (
        counts.get("core.from_row.accepted", 0) / from_row_calls if from_row_calls else 0.0, "frac")
    betti_calls = spans.get("cohomology.betti", (0, 0.0))[0]
    metrics["cohomology.betti.hit_ratio"] = (
        counts.get("cohomology.betti.hits", 0) / betti_calls if betti_calls else 0.0, "frac")
    build = spans.get("exterior.matrix_of", (0, 0.0))[1]
    elim = spans.get("gf2.rank", (0, 0.0))[1]
    metrics["betti.build_frac"] = (build / (build + elim) if elim else 0.0, "frac")
    metrics["cli.stdout_bytes"] = (len(traced.get("stdout", "").encode()), "bytes")
    rates = [pass_rate([job], item_ms([job])) for job in (traced, untraced)]
    metrics["trace.overhead_frac"] = (1 - rates[0] / rates[1] if rates[1] else 0.0, "frac")
    covered = sum(s for _, s in spans.values())
    metrics["trace.coverage_frac"] = (covered / traced["trace"]["job_wall_s"], "frac")
    return metrics


def trace_run(workload: str, refs: dict, seed: int, deadline: float):
    """Traced run: the same fixed job untraced and traced, answers compared."""
    spec = job_spec(workload, refs, seed)  # one round, or one command
    untraced = spawn(spec, deadline)
    traced = spawn(dict(spec, trace=True, trace_path=f".perfbench/trace-{workload}.bin"),
                   deadline)
    planned = sum(map(len, spec.get("pool", {}).values()))
    attempted, failed, problems = check_jobs(workload, refs, [untraced, traced], planned)
    if "error" in untraced or "error" in traced:
        return attempted, max(failed, 1), problems, {}, {}
    if answers(traced) != answers(untraced):
        failed += 1
        problems.append("traced and untraced jobs gave different answers")
    metrics = layer_metrics(traced, untraced)
    info = {"jobs": 2, "spans": sum(c for c, _ in traced["trace"]["spans"].values())}
    if workload == "betti-cold":
        build = metrics["betti.build_frac"][0]
        verdict = "agrees with" if abs(build - 0.70) <= 0.10 else "disagrees with"
        info["split_note"] = (
            f"matrix build / rank self time = {100 * build:.0f}/{100 * (1 - build):.0f} "
            f"over {planned} tables at n = 14-16; this {verdict} the ROADMAP "
            f"profile of about 70/30, taken on one n = 17 table"
        )
    return attempted, failed, problems, metrics, info


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vergne").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vergne" / "__init__.py").is_file():
        print(f"error: no vergne sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = load_refs()
    deadline = time.monotonic() + RUN_BUDGET_S
    run = trace_run if args.trace else measure
    extra = () if args.trace else (args.seconds,)
    attempted, failed, problems, metrics, info = run(
        args.workload, refs, args.seed, *extra, deadline)
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed, **info,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
