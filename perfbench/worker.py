"""Run one benchmark job in a fresh interpreter and print its result as JSON.

Usage: python3 perfbench/worker.py < spec.json

The spec names the job kind ("setup", "betti", "classify" or "verify"), the
graded-basis slices to warm up, whether to trace, and the job's inputs.
Every timed item carries ``probe_ms``, the host's speed when it ran (see
``probe_ms``).  Everything the job's code prints goes to a buffer; the
worker's own stdout carries only the one JSON result line.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

PROBE_EVERY_S = 0.25


def _probe_kernel() -> int:
    table, x = {}, 1
    for i in range(4000):
        x = (x * 0x5DEECE66D + i) & 0xFFFFFFFFFFFF
        table[x & 1023] = x.bit_count()
    return x


def probe_ms() -> float:
    """The host's current speed: the fastest of three runs of a fixed
    pure-Python kernel (integer and dict work, like the program's), in ms.

    The kernel is part of the benchmark, so a change to the program cannot
    move it; the collector is off so that the program's heap cannot either.
    """
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            _probe_kernel()
            best = min(best, time.perf_counter() - t)
    finally:
        gc.enable()
    return best * 1000


class HostProbe:
    """The latest probe, taken again once it is PROBE_EVERY_S old."""

    def __init__(self) -> None:
        self.taken = -float("inf")
        self.ms = 0.0

    def _take(self) -> float:
        self.ms = probe_ms()
        self.taken = time.perf_counter()
        return self.ms

    def current(self) -> float:
        if time.perf_counter() - self.taken >= PROBE_EVERY_S:
            self._take()
        return self.ms

    def around(self, call):
        """(result, seconds, probe) of one long call.

        The probe runs before and after the call, and every PROBE_EVERY_S
        during it from a timer signal; the time those probes take is not
        counted in the call's seconds, and the call's probe is their mean.
        """
        samples = [self.current()]
        paused = 0.0

        def on_timer(signum, frame):
            nonlocal paused
            t = time.perf_counter()
            samples.append(probe_ms())
            paused += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t = time.perf_counter()
        try:
            out = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t - paused
        samples.append(self._take())
        return out, seconds, sum(samples) / len(samples)


def rounds(job_start: float, spec: dict):
    """Yield round numbers: at least ``spec["rounds"]``, then more while one
    more round, as long as the last, still ends within ``spec["seconds"]``
    of ``job_start``."""
    clock = time.perf_counter
    done, last = 0, 0.0
    while done < spec["rounds"] or clock() - job_start + last <= spec["seconds"]:
        t = clock()
        yield done
        done, last = done + 1, clock() - t


def betti_job(spec: dict) -> dict:
    """Rounds over the pool, each row once per round in a fresh seeded order.

    Whole rounds keep the mix of n = 14, 15 and 16 tables the same in every
    run, so the seed moves the order of the work and not its amount.
    """
    from vergne import betti, from_row

    rng = random.Random(spec["seed"])
    rows = [row for n in sorted(spec["pool"], key=int) for row in spec["pool"][n]]
    probe = HostProbe()
    items = []
    clock = time.perf_counter
    t0 = clock()
    for _ in rounds(t0, spec):
        rng.shuffle(rows)
        for row in rows:
            try:
                table, seconds, speed = probe.around(lambda: betti(from_row(row)))
            except Exception as exc:  # an item that raises is a failed item
                items.append({"row": row, "error": repr(exc)})
                continue
            items.append({
                "row": row,
                "n": table.n,
                "b": list(table.b),
                "graded": [[k, m, v] for (k, m), v in sorted(table.graded.items())],
                "ms": seconds * 1000,
                "probe_ms": speed,
            })
    return {"items": items, "wall_s": clock() - t0}


def classify_job(spec: dict) -> dict:
    """Enumeration, extension tree and cross-check once, then rounds of
    partner, decompose, label and the abelian-ideal witness on every algebra,
    each round in a fresh seeded order."""
    from vergne import classify, extensions

    n_max = spec["n_max"]
    probe = HostProbe()
    clock = time.perf_counter
    t0 = clock()
    steps = []

    def step(call):
        out, seconds, speed = probe.around(call)
        steps.append((seconds, speed))
        return out

    algebras = [g for n in range(5, n_max + 1)
                for g in step(lambda: classify.enumerate_algebras(n))]
    tree = step(lambda: classify.extension_tree(n_max))
    by_extension = step(lambda: classify.enumerate_by_extension(n_max))
    once_s = sum(s for s, _ in steps)
    enumerated = {}
    for g in algebras:
        enumerated.setdefault(str(g.n), []).append(str(g.row()))
    order = list(range(len(algebras)))
    rng = random.Random(spec["seed"])
    items = []
    for _ in rounds(t0, spec):
        rng.shuffle(order)
        for i in order:
            g = algebras[i]
            speed = probe.current()
            t = clock()
            try:
                p = extensions.partner(g)
                dec = extensions.decompose(g)
                name = classify.label(g)
                ideal = extensions.has_codim1_abelian_ideal(g)
            except Exception as exc:
                items.append({"n": g.n, "row": str(g.row()), "error": repr(exc)})
                continue
            ms = (clock() - t) * 1000
            items.append({
                "n": g.n,
                "row": str(g.row()),
                "partner": str(p.row()),
                "label": name,
                "root": classify.label(dec.root),
                "steps": len(dec.steps),
                "ideal": ideal,
                "ms": ms,
                "probe_ms": speed,
            })
    key = {node: f"{n}:{list(bits)}" for (n, bits), node in tree.nodes.items()}
    return {
        "enumerated": enumerated,
        "items": items,
        "tree_nodes": len(tree.nodes),
        "tree_edges": [[key[c], key[p]] for c, p in tree.edges],
        "by_extension": [str(g.row()) for g in by_extension],
        "once_s": once_s,
        # Time-weighted probe over enumeration, tree and cross-check.
        "once_probe_ms": sum(s * p for s, p in steps) / once_s,
        "wall_s": clock() - t0,
    }


SUITES = ("thm1", "thm2", "diagrams", "consistency")


class _StampedLines(list):
    """The list a verify suite appends its check lines to, timing each line
    from the end of the previous one; probes run between lines."""

    def __init__(self, probe: HostProbe) -> None:
        super().__init__()
        self.probe = probe
        self.times: list[tuple[float, float]] = []
        self._speed = probe.current()
        self._start = time.perf_counter()

    def append(self, line: str) -> None:
        end = time.perf_counter()
        super().append(line)
        self.times.append(((end - self._start) * 1000, self._speed))
        self._speed = self.probe.current()
        self._start = time.perf_counter()


def verify_job(spec: dict) -> dict:
    """One ``verify --suite all`` command; each check line is an item.

    The suites are found as ``cli._verify_<suite>``; without them the whole
    command is the one timed item.
    """
    from vergne import cli

    probe = HostProbe()
    items = []

    def timed(fn):
        def run_suite(max_dim, lines, failures):
            mine = _StampedLines(probe)
            try:
                return fn(max_dim, mine, failures)
            finally:
                for i, (ms, speed) in enumerate(mine.times):
                    items.append({"line": len(lines) + i, "ms": ms, "probe_ms": speed})
                lines.extend(mine)
        return run_suite

    for name in SUITES:
        fn = getattr(cli, f"_verify_{name}", None)
        if fn is not None:
            setattr(cli, f"_verify_{name}", timed(fn))
    out = io.StringIO()
    speed = probe_ms()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(["verify", "--suite", "all", "--max-dim", str(spec["max_dim"])])
        except SystemExit as exc:
            code = exc.code
    wall = time.perf_counter() - t0
    return {"exit": code, "stdout": out.getvalue(), "wall_s": wall,
            "items": items or [{"line": "all", "ms": wall * 1000, "probe_ms": speed}]}


JOBS = {"setup": lambda spec: {"probe_ms": probe_ms()}, "betti": betti_job,
        "classify": classify_job, "verify": verify_job}


def main() -> None:
    spec = json.loads(sys.stdin.read())
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, instrument
        tracer = Tracer()
    import vergne.exterior

    t_job = time.perf_counter()
    if tracer is not None:
        instrument(tracer)
    for n, ks in spec["warm"]:
        for k in ks:
            vergne.exterior.graded_masks(n, k)
    result = {"setup_s": time.monotonic() - spec["spawned"]}
    result.update(JOBS[spec["kind"]](spec))
    if tracer is not None:
        wall = time.perf_counter() - t_job
        tracer.restore()
        result["trace"] = {
            "spans": {k: list(v) for k, v in tracer.self_times().items()},
            "counts": dict(tracer.counts),
            "job_wall_s": wall,
        }
        if spec.get("trace_path"):
            tracer.write(ROOT / spec["trace_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
