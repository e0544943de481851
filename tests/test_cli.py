"""Command line wiring: verbs, formats, exit codes, determinism."""

import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

from vergne import classify, cli, cohomology, core, extensions
from vergne.cli import main
from vergne.cohomology import betti
from vergne.core import m0, m2
from vergne.exterior import AmbientMismatch, ImageOutsideCodomain

from helpers import count_batches, count_reduce_calls, parse_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def zeros(n):
    """The row of m0(n) as a --row argument."""
    return "[" + ", ".join(["0"] * (n - 1)) + "]"


def test_betti_text(capsys):
    code, out, _ = run(capsys, "betti", "--dim", "7", "--algebra", "m0")
    assert code == 0
    assert "algebra: m0(7)" in out
    assert f"betti: {list(betti(m0(7)).b)}" in out
    assert out.splitlines()[3].startswith("betti: [1, 2, 4,")


def test_betti_json_and_csv(capsys):
    code, out, _ = run(
        capsys, "betti", "--dim", "6", "--algebra", "m2", "--format", "json", "--graded"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "betti", "graded", "cocycle_dims"}
    assert payload["n"] == 6
    assert payload["betti"] == list(betti(m0(6)).b)

    code, out, _ = run(capsys, "betti", "--dim", "6", "--algebra", "m2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,betti,cocycle_dim,graded"
    assert len(lines) == 8


def test_betti_row_pairing(capsys):
    _, out1, _ = run(capsys, "betti", "--dim", "8", "--algebra", "row:[0,0,0,1,0,0,0]")
    _, out2, _ = run(capsys, "betti", "--dim", "8", "--algebra", "row:[0,1,1,0,1,0,0]")
    line = next(l for l in out1.splitlines() if l.startswith("betti:"))
    assert line in out2


def test_betti_invalid_row_exit_2(capsys):
    code, _, err = run(capsys, "betti", "--dim", "5", "--algebra", "row:[0,1,1,0]")
    assert code == 2
    assert "not a Lie algebra" in err


def test_betti_jacobi_violation_triple_reported(capsys):
    code, _, err = run(capsys, "betti", "--dim", "7", "--algebra", "row:[0,1,0,0,0,0]")
    assert code == 2
    assert "index 3" in err


def test_betti_bad_algebra_spec(capsys):
    code, _, err = run(capsys, "betti", "--dim", "7", "--algebra", "m3")
    assert code == 2
    code, _, err = run(capsys, "betti", "--dim", "8", "--algebra", "row:[0,0,0,0]")
    assert code == 2
    assert "dimension" in err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "5")
    assert code == 0
    assert out.startswith("dimension 5: 2 algebras")
    assert "m0(5)" in out and "m2(5)" in out

    code, out, _ = run(capsys, "enumerate", "--dim", "11")
    assert code == 0
    assert "dimension 11: 10 algebras" in out


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 7
    assert [a["label"] for a in payload["algebras"]] == [
        "m0(7)",
        "g(7,1)",
        "h(7,1)",
        "m2(7)",
    ]
    assert all(a["betti"][1] == 2 for a in payload["algebras"])


def test_enumerate_with_tree_writes_dot(tmp_path, capsys):
    target = tmp_path / "out.dot"
    code, out, _ = run(
        capsys,
        "enumerate", "--dim", "7", "--tree", "--max-dim", "12", "--dot", str(target),
    )
    assert code == 0
    nodes, edges = parse_dot(target.read_text())
    assert len(nodes) == 44
    assert len(edges) == 42


def test_enumerate_tree_max_dim_zero_is_refused(capsys):
    # 0 is a given --max-dim, not a missing one: refused like `tree --max-dim 0`
    code, out, err = run(capsys, "enumerate", "--dim", "6", "--tree", "--max-dim", "0")
    assert code == 2
    assert out == ""
    assert "argument --max-dim: dimension must be in 5..64, got 0" in err
    code, _, _ = run(capsys, "tree", "--max-dim", "0")
    assert code == 2
    code, out, _ = run(capsys, "enumerate", "--dim", "6", "--tree")
    assert code == 0
    assert parse_dot(out[out.index("digraph"):])[0] == ["m0(5)", "m2(5)", "m0(6)", "m2(6)"]


def test_enumerate_tree_options_need_tree(tmp_path, capsys):
    target = tmp_path / "out.dot"
    for extra in (["--max-dim", "7"], ["--dot", str(target)]):
        code, out, err = run(capsys, "enumerate", "--dim", "6", *extra)
        assert code == 2
        assert out == ""
        assert "need --tree" in err
    assert not target.exists()


def test_enumerate_json_with_tree_is_refused(tmp_path, capsys, monkeypatch):
    # JSON followed by DOT (or by "wrote <path>") is not one JSON document
    def refused(n):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(classify, "enumerate_algebras", refused)
    target = tmp_path / "out.dot"
    for extra in ([], ["--max-dim", "7"], ["--dot", str(target)]):
        code, out, err = run(capsys, "enumerate", "--dim", "6", "--format", "json", "--tree",
                             *extra)
        assert (code, out) == (2, "")
        assert err == "error: --tree writes DOT and cannot follow --format json\n"
    assert not target.exists()


def test_enumerate_json_and_text_tree_are_unchanged(capsys):
    # digests taken before the json/--tree refusal was added
    for argv, digest in (
        (("--dim", "7", "--format", "json"),
         "0832f78d77f67083602b793b1ce72031ac66a706c0017de4a8a02984214231c3"),
        (("--dim", "8", "--tree"),
         "8d5d51b9b510a91919adaf813cc6765e4709ea4320d6067a0a02b0fecc1f9b00"),
        (("--dim", "7", "--tree", "--max-dim", "9", "--format", "text"),
         "b9933399989db4d4663727fe406b756e7d307d3c9d13524623ee2ab74713da48"),
    ):
        code, out, _ = run(capsys, "enumerate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_tree_stdout_and_io_failure(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "tree", "--max-dim", "6")
    assert code == 0
    nodes, edges = parse_dot(out)
    assert len(nodes) == 4
    assert len(edges) == 2

    missing = tmp_path / "no" / "such" / "dir" / "x.dot"
    code, _, err = run(capsys, "tree", "--max-dim", "5", "--dot", str(missing))
    assert code == 3
    assert f"cannot write {missing}" in err

    # a full disk fails fh.write, whose OSError carries no filename
    class FullFile(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda path, mode: FullFile(), raising=False)
    code, out, err = run(capsys, "tree", "--max-dim", "5", "--dot", "x.dot")
    assert (code, out) == (cli.EXIT_IO, "")
    assert err == "error: cannot write x.dot: [Errno 28] No space left on device\n"


class FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` raises, as a closed pipe or a
    full disk does."""

    def __init__(self, method, exc):
        super().__init__()
        self.method, self.exc = method, exc

    def write(self, text):
        if self.method == "write":
            raise self.exc
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.exc


def test_stdout_write_failure_exits_3(capsys, monkeypatch):
    # buffered output fails only at the flush, which main makes before it returns
    for exc in (BrokenPipeError(errno.EPIPE, "Broken pipe"),
                OSError(errno.ENOSPC, "No space left on device")):
        for method in ("write", "flush"):
            for argv in (["betti", "--dim", "6", "--algebra", "m0"], ["tree", "--max-dim", "6"],
                         ["verify", "--suite", "thm1", "--max-dim", "6"]):
                monkeypatch.setattr(sys, "stdout", FailingStdout(method, exc))
                assert main(argv) == cli.EXIT_IO == 3, (exc, method, argv)
                assert capsys.readouterr().err == f"error: cannot write stdout: {exc}\n"


CLI = [sys.executable, "-m", "vergne.cli"]


def child_env(unbuffered):
    """The environment of a `python -m vergne.cli` child, buffered or not."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_into_closed_pipe(argv, env):
    """Run the CLI with stdout a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(CLI + argv, stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)


def test_broken_pipe_exits_3_without_shutdown_noise():
    # `enumerate --dim 14 | head -1`, each line its own write: the pipe
    # closes while the Betti tables are still being ranked
    child = subprocess.Popen(CLI + ["enumerate", "--dim", "14"], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env=child_env(unbuffered=True))
    head = subprocess.Popen(["head", "-1"], stdin=child.stdout, stdout=subprocess.PIPE)
    child.stdout.close()  # head holds the only read end
    assert head.communicate(timeout=120)[0] == b"dimension 14: 14 algebras\n"
    _, err = child.communicate(timeout=120)
    assert child.returncode == cli.EXIT_IO
    assert err.decode() == "error: cannot write stdout: [Errno 32] Broken pipe\n"
    # buffered output to a pipe with no reader fails at main's flush, and
    # the bytes left in the buffer must not fail the exit's flush again
    done = run_into_closed_pipe(["betti", "--dim", "6", "--algebra", "m0"],
                                child_env(unbuffered=False))
    assert done.returncode == cli.EXIT_IO
    assert done.stderr.decode() == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_that_cannot_be_written_exits_3(unbuffered):
    # argparse drops the write error of --help; buffered, the exit's flush
    # used to fail (exit 120), unbuffered the text was lost with exit 0
    env = child_env(unbuffered)
    done = run_into_closed_pipe(["--help"], env)
    assert done.returncode == cli.EXIT_IO
    assert done.stderr.decode() == "error: cannot write stdout: [Errno 32] Broken pipe\n"
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            done = subprocess.run(CLI + ["betti", "--help"], stdout=full,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        assert done.returncode == cli.EXIT_IO
        assert done.stderr.decode() == (
            "error: cannot write stdout: [Errno 28] No space left on device\n")
    done = subprocess.run(CLI + ["--help"], capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode() == cli.build_parser().format_help()
    done = subprocess.run(CLI + ["betti", "--dim", "3"], capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (cli.EXIT_BAD_INPUT, b"")
    assert "dimension must be in 5..22, got 3" in done.stderr.decode()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_3(unbuffered):
    # started with fd 1 closed, the child has no sys.stdout: the command is
    # refused before it runs, and --help's text does not go to stderr
    for argv in (["betti", "--dim", "6", "--algebra", "m0"], ["--help"]):
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *CLI, *argv],
                              stderr=subprocess.PIPE, env=child_env(unbuffered), timeout=120)
        assert done.returncode == cli.EXIT_IO, argv
        assert done.stderr.decode() == "error: cannot write stdout\n", argv


def test_short_unbuffered_write_exits_3():
    # `tree --max-dim 40` is one write of 411 KB, more than a pipe holds: the
    # reader closes while it blocks, and the write returns short
    child = subprocess.Popen(CLI + ["tree", "--max-dim", "40"], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env=child_env(unbuffered=True))
    try:
        assert child.stdout.readline() == b"digraph vergne_extensions {\n"
        child.stdout.close()
        _, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == cli.EXIT_IO
    assert err.decode() == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_pair(capsys):
    code, out, _ = run(capsys, "pair", "--dim", "7", "--row", "[0,0,0,1,0,0]")
    assert code == 0
    assert "partner: [0, 1, 1, 0, 0, 0]" in out
    assert "root m0(5)" in out and "root m2(5)" in out
    betti_lines = [l for l in out.splitlines() if l.startswith("betti")]
    assert betti_lines[0].split(":")[1].strip() == betti_lines[1].split(":")[1].strip()

    code, out, _ = run(capsys, "pair", "--dim", "9", "--row", "[0,0,0,0,0,0,0,0]")
    assert code == 0
    assert "partner: [0, 1, 1, 1, 1, 1, 0, 0]" in out


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--dim", "8", "--row", "[0,0,0,1,0,0,0]")
    assert code == 0
    assert out.splitlines() == [
        "base:  [0, 0, 0, 1, 0, 0]",
        "omega: e1^e7 + e3^e5",
    ]


def test_reduce_invalid_row(capsys):
    code, _, _ = run(capsys, "reduce", "--dim", "7", "--row", "[0,1,0,0,0,0]")
    assert code == 2


def test_verify_suites(capsys):
    for suite in ("thm1", "thm2", "diagrams"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-dim", "6")
        assert code == 0, (suite, out)
        assert "all checks passed" in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "6")
    assert code == 0
    assert "thm1 n=6 ok" in out
    assert "consistency n=6 ok" in out


def test_verify_all_transcript_is_byte_identical(capsys):
    # the committed transcript of `verify --suite all --max-dim 12`
    ref = Path(__file__).parents[1] / "perfbench" / "refs" / "verify_all_12.txt"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "12")
    assert code == 0
    assert out == ref.read_text()


# SHA-256 of the stdout of each command, taken when it was first pinned:
# - verify-diagrams-14: as the block-by-block check of every square at
#   every k printed it
# - verify-all-14: as printed when thm1 and thm2 ranked fresh model and
#   partner instances
# - betti-m2-16-graded-json: where clearing skips the most columns, as the
#   level-by-level rank cache printed it
# - pair-12: g(12,1), both labels, both roots and both Betti vectors
# - reduce-12: g(12,1), the base row and omega, which is d(e^12) read in
#   the base's ambient
# - tree-14: one truncation edge per algebra
# - enumerate-13: a label, a row and a Betti vector per algebra
PINNED_TRANSCRIPTS = [
    pytest.param(
        ("verify", "--suite", "diagrams", "--max-dim", "14"),
        "5ff89f8a062a22e70ac0134b73dee523e6c8835f216a12281f0bd7023c0c9190",
        id="verify-diagrams-14",
    ),
    pytest.param(
        ("verify", "--suite", "all", "--max-dim", "14"),
        "801c7996f527af2c8b9170de5d2f2b506abf011591fcb0b397f62e8db4514a29",
        id="verify-all-14",
    ),
    pytest.param(
        ("betti", "--dim", "16", "--algebra", "m2", "--graded", "--format", "json"),
        "87bf43fc20da3167a7baafd585891478c92059aad41839143cc6b8df87026759",
        id="betti-m2-16-graded-json",
    ),
    pytest.param(
        ("pair", "--dim", "12", "--row", "[0,0,0,1,0,0,1,0,0,0,0]"),
        "8c5a66ff83563a8cac661ec5ade32d1d7e7c4e66228c34b585ac98249e839d62",
        id="pair-12",
    ),
    pytest.param(
        ("reduce", "--dim", "12", "--row", "[0,0,0,1,0,0,1,0,0,0,0]"),
        "3b008a1e0a7e3d6d05a7de178f279c99a7fda9fdeba9b3a6d9e37b2fb40ca22a",
        id="reduce-12",
    ),
    pytest.param(
        ("tree", "--max-dim", "14"),
        "6ec1276d569e6d7141a72d3ec1e7a84d6073fdcf21f314bd35c52b938a2b9b5f",
        id="tree-14",
    ),
    pytest.param(
        ("tree", "--max-dim", "40"),
        "53bfd947b0cf652837eb516877f6d4e4edf68e8e315e880d4d51be5e6f1eb220",
        id="tree-40",
    ),
    pytest.param(
        ("enumerate", "--dim", "14", "--format", "json"),
        "9bf1a710c304e96e48c33fe45b9d87f2ea1e6017d31b7c5f2836e0683a18f49d",
        id="enumerate-14-json",
    ),
    pytest.param(
        ("enumerate", "--dim", "13"),
        "075c0e38e0fdc3ae7b382438e78b2f4e48455fbd1d65b92d108776414285e65f",
        id="enumerate-13",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_TRANSCRIPTS)
def test_transcript_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pair_reduces_only_in_the_partner_walk(capsys, monkeypatch):
    # partner(g) peels g(12,1) down to dimension 5 (7 reduce calls); each
    # printed root is the 5-dimensional truncation, read with no reduce call
    calls = count_reduce_calls(monkeypatch)
    code, out, _ = run(capsys, "pair", "--dim", "12", "--row", "[0,0,0,1,0,0,1,0,0,0,0]")
    assert code == 0
    assert "root m0(5)" in out and "root m2(5)" in out
    assert calls == [12, 11, 10, 9, 8, 7, 6]


def test_tree_makes_no_reduce_calls(capsys, monkeypatch):
    # each edge keys the parent by the child's own row, cut at n-1
    calls = count_reduce_calls(monkeypatch)
    code, out, _ = run(capsys, "tree", "--max-dim", "14")
    assert code == 0
    assert out.count(" -> ") == sum(len(classify.enumerate_algebras(n)) for n in range(6, 15))
    assert calls == []


def test_oversized_row_is_refused_before_completion(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("row completion started")

    monkeypatch.setattr(core, "_complete_row", work)
    code, out, err = run(capsys, "reduce", "--dim", "100", "--row", "[" + ",".join("0" * 99) + "]")
    assert code == cli.EXIT_BAD_INPUT == 2
    assert out == ""
    assert "5..64" in err


def test_verify_ranks_each_enumerated_complex_once(capsys, monkeypatch):
    # thm1's models and thm2's partners are enumerated algebras too, so the
    # 44 algebras of n = 5..12 are the only complexes ranked from scratch,
    # in one batch per n that thm1 ranks; thm2 and consistency read them
    classify.enumerate_algebras.cache_clear()
    batches = count_batches(monkeypatch)
    code, _, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "12")
    assert code == 0
    assert sum(len(classify.enumerate_algebras(n)) for n in range(5, 13)) == 44
    assert batches == [classify.enumerate_algebras(n) for n in range(5, 13)]
    cold = [g for batch in batches for g in batch]
    assert len(cold) == 44
    assert len(set(map(id, cold))) == 44


def test_verify_reads_the_models_off_the_enumeration(capsys, monkeypatch):
    # thm1, thm2's roots and the first pair of each n in diagrams are the
    # enumerated instances, found by their rows, so no model is built
    built = []
    monkeypatch.setattr(cli, "m0", lambda n: built.append(("m0", n)) or m0(n))
    monkeypatch.setattr(cli, "m2", lambda n: built.append(("m2", n)) or m2(n))
    ref = Path(__file__).parents[1] / "perfbench" / "refs" / "verify_all_12.txt"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "12")
    assert (code, out, built) == (0, ref.read_text(), [])


def test_verify_builds_a_model_the_enumeration_lacks(capsys, monkeypatch):
    # an enumeration without m2(7): thm1 builds it and prints the same lines
    def thm1_lines():
        code, out, _ = run(capsys, "verify", "--suite", "thm1", "--max-dim", "8")
        return code, [line for line in out.splitlines() if line.startswith("thm1 ")]

    real = classify.enumerate_algebras
    real(8)  # cached, so the search below n = 9 never reaches the patched lookup
    code, want = thm1_lines()
    assert code == 0 and len(want) == 4
    built = []
    monkeypatch.setattr(cli, "m2", lambda n: built.append(n) or m2(n))
    monkeypatch.setattr(classify, "enumerate_algebras",
                        lambda n: tuple(g for g in real(n) if g != m2(7)))
    assert thm1_lines() == (0, want)
    assert built == [7]


def test_verify_builds_each_suites_partners_in_one_sweep(capsys, monkeypatch):
    # thm2 and diagrams share one sweep per command, which reads every
    # truncation and partner of n = 5..12 off the enumeration: no extension
    # and no validated build, where the sweep once made 42 extensions, a
    # sweep per suite 84 and one partner call per algebra and per partner 618
    for n in range(5, 13):
        classify.enumerate_algebras(n)
    calls, sweeps = [], []
    real_extension, real_fill, real_partners = extensions.central_extension, core._fill, cli.partners

    def extending(g, omega):
        calls.append(("central_extension", g.n))
        return real_extension(g, omega)

    def filling(g, n, rows):
        calls.append(("_fill", n))
        return real_fill(g, n, rows)

    monkeypatch.setattr(extensions, "central_extension", extending)
    monkeypatch.setattr(core, "_fill", filling)
    monkeypatch.setattr(cli, "partners", lambda family: sweeps.append(1) or real_partners(family))
    code, _, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "12")
    assert code == 0
    assert len(calls) == 0
    assert len(sweeps) == 1


def test_verify_labels_and_checks_pairs_from_the_row_ints(capsys, monkeypatch):
    # each label and each thm2 check reads (n, e_2 row int): with the
    # enumeration warm and the labels cold, the command builds no RowVector
    # and formats no row, and the label cache holds no algebra
    for n in range(5, 13):
        classify.enumerate_algebras(n)
    classify._row_label.cache_clear()
    built, formatted, keys = [], [], []
    real_init, real_text, real_label = core.RowVector.__init__, core._row_text, classify._row_label

    def init(self, bits):
        built.append(bits)
        real_init(self, bits)

    monkeypatch.setattr(core.RowVector, "__init__", init)
    monkeypatch.setattr(core, "_row_text", lambda bits: formatted.append(bits) or real_text(bits))
    monkeypatch.setattr(classify, "_row_label", lambda *key: keys.append(key) or real_label(*key))
    ref = Path(__file__).parents[1] / "perfbench" / "refs" / "verify_all_12.txt"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "12")
    assert (code, out) == (0, ref.read_text())
    assert (built, formatted) == ([], [])
    assert keys and all(len(key) == 2 and all(type(x) is int for x in key) for key in keys)
    assert real_label.cache_info().currsize == len(set(keys))


def test_each_verify_command_builds_its_own_sweep(capsys, monkeypatch):
    # a sweep lasts one command: a second command in the same process, with
    # other partners, prints its own lines, and a third its own again
    def diagram_lines():
        code, out, _ = run(capsys, "verify", "--suite", "diagrams", "--max-dim", "6")
        return code, [line for line in out.splitlines() if line.startswith("diagrams ")]

    real = cli.partners
    code, sound = diagram_lines()
    assert code == 0 and len(sound) == 6 and all(line.endswith(" ok") for line in sound)
    monkeypatch.setattr(cli, "partners", lambda family: {g: g for g in family})
    code, selfish = diagram_lines()
    assert code == cli.EXIT_VERIFY_FAILED
    assert selfish[::3] == sound[::3]  # the m0(n) ~ m2(n) pairs take no partner
    assert all(" FAIL at k=[2" in line for i, line in enumerate(selfish) if i % 3)
    monkeypatch.setattr(cli, "partners", real)
    assert diagram_lines() == (0, sound)


def test_no_sweep_outlives_its_command(capsys, monkeypatch):
    # the sweep is read-only, held while the suites run, and dropped when
    # the command returns, also when a suite raises
    assert isinstance(cli._partner_sweep(6), MappingProxyType)
    code, _, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "6")
    assert code == 0
    assert cli._partner_sweep.cache_info().currsize == 0
    held = []

    def failing(max_dim, lines, failures):
        held.append(cli._partner_sweep.cache_info().currsize)
        raise RuntimeError("suite failed")

    monkeypatch.setattr(cli, "_verify_consistency", failing)
    code, _, err = run(capsys, "verify", "--suite", "all", "--max-dim", "6")
    assert (code, err) == (cli.EXIT_INTERNAL, "internal error: RuntimeError: suite failed\n")
    assert held == [1]
    assert cli._partner_sweep.cache_info().currsize == 0


def test_verify_suites_alone_print_their_lines_within_all(capsys):
    _, everything, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "9")
    for suite in ("thm2", "diagrams"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-dim", "9")
        assert code == 0
        alone = out.splitlines()
        assert alone[-1] == "all checks passed"
        within = [line for line in everything.splitlines() if line.startswith(suite + " ")]
        assert alone[:-1] == within, suite


def test_verify_thm2_ranks_a_partner_outside_the_enumeration(capsys, monkeypatch):
    # a partner missing from the enumerated instances is ranked as it is,
    # so a wrong partner reads as a failed check, not an internal error;
    # the sweep does not know m0(8), so n = 7 reads its partner by ``partner``
    monkeypatch.setattr(cli, "partners", lambda family: {g: m0(g.n + 1) for g in family})
    code, out, _ = run(capsys, "verify", "--suite", "thm2", "--max-dim", "7")
    assert code == cli.EXIT_VERIFY_FAILED
    assert "thm2 n=5 m0(5) ~ m0(6) FAIL" in out.splitlines()
    assert sum(line.startswith("thm2 n=") and line.endswith(" FAIL") for line in out.splitlines()) == 8
    # m0(6) has m0(5)'s e_2 row int, so the distinct check reads the dimension too
    assert m0(6).rows[2] == m0(5).rows[2]
    assert "  thm2 n=5 [0, 0, 0, 0]: betti=False distinct=True involutive=False" in out.splitlines()


def test_verify_thm2_involution_reads_the_partners_own_entry(capsys, monkeypatch):
    # m0(7) ~ m2(7) has equal Betti numbers and distinct rows, so only the
    # involution check can fail its line: it reads the entry of m2(7)
    real = cli.partners

    def wrong_entry(family):
        mate = real(family)
        mate[m2(7)] = m2(7)
        return mate

    monkeypatch.setattr(cli, "partners", wrong_entry)
    code, out, _ = run(capsys, "verify", "--suite", "thm2", "--max-dim", "7")
    assert code == cli.EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert "thm2 n=7 m0(7) ~ m2(7) FAIL" in lines
    assert "thm2 n=7 m2(7) ~ m2(7) FAIL" in lines
    assert "2 check(s) failed:" in lines
    assert "  thm2 n=7 [0, 0, 0, 0, 0, 0]: betti=True distinct=True involutive=False" in lines


def test_verify_diagrams_fails_a_partner_of_another_dimension(capsys, monkeypatch):
    # the square refuses mismatched dimensions as bad input, but no command
    # line input makes such a partner: it is a failed check, not exit 2
    monkeypatch.setattr(cli, "partners", lambda family: {g: m0(g.n + 1) for g in family})
    code, out, err = run(capsys, "verify", "--suite", "diagrams", "--max-dim", "6")
    assert (code, err) == (cli.EXIT_VERIFY_FAILED, "")
    lines = out.splitlines()
    assert "diagrams n=5 m0(5) ~ m2(5) ok" in lines
    assert "diagrams n=5 m0(5) ~ m0(6) FAIL at dimension 6" in lines
    assert sum(line.startswith("diagrams n=") and " FAIL at dimension " in line
               for line in lines) == 4
    assert "4 check(s) failed:" in lines


def test_verify_diagrams_fails_an_algebra_paired_with_itself(capsys, monkeypatch):
    # m0(6) as its own partner: the pair is decided once and fails at the k
    # the per-k check names, as (m2(6), m2(6)) does
    real = cli.partners
    monkeypatch.setattr(cli, "partners", lambda family: {**real(family), m0(6): m0(6)})
    code, out, err = run(capsys, "verify", "--suite", "diagrams", "--max-dim", "6")
    assert (code, err) == (cli.EXIT_VERIFY_FAILED, "")
    lines = out.splitlines()
    assert "diagrams n=6 m0(6) ~ m0(6) FAIL at k=[2, 3, 4]" in lines
    assert "1 check(s) failed:" in lines
    for g in (m0(6), m2(6)):
        per_k = [k for k in range(2, 7) if not cohomology.verify_commuting_square(g, g, k)]
        assert per_k == [2, 3, 4], g


def test_verify_consistency_reports_broken_graded_duality(capsys, monkeypatch):
    # one unit of dim H^1_1 moved to degree 3 keeps every b_k and every sum
    # per k, so only the Euler identity and the graded duality can see it
    real = cli.betti

    def moved(g):
        table = real(g)
        if g != m0(6):
            return table
        graded = dict(table.graded)
        del graded[(1, 1)]
        graded[(1, 3)] = 1
        return cohomology.BettiTable(table.n, table.b, graded, table.z)

    monkeypatch.setattr(cli, "betti", moved)
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-dim", "6")
    assert (code, err) == (cli.EXIT_VERIFY_FAILED, "")
    lines = out.splitlines()
    euler = ["Euler characteristic in degree 1 off by 1",
             "Euler characteristic in degree 3 off by -1"]
    assert f"consistency n=6 m0(6) FAIL {euler}" in lines
    assert "consistency n=6 FAIL (2 algebras)" in lines
    assert "consistency n=5 ok (2 algebras)" in lines
    assert "2 check(s) failed:" in lines
    assert "  graded duality n=6 [0, 0, 0, 0, 0]: H^k_m != H^(n-k)_(21-m)" in lines


def test_verify_consistency_line_reports_recorded_failures(capsys, monkeypatch):
    # a duality or b_1 failure is recorded without a FAIL line of its own,
    # so the per-n line must say FAIL too
    class Broken:
        def __init__(self, table):
            self.b = (table.b[0], 3) + table.b[2:]

        def violations(self):
            return []

    real = cli.betti
    monkeypatch.setattr(cli, "betti", lambda g: Broken(real(g)) if g.n == 6 else real(g))
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "7")
    assert code == cli.EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert "consistency n=5 ok (2 algebras)" in lines
    assert "consistency n=6 FAIL (2 algebras)" in lines
    assert "consistency n=7 ok (4 algebras)" in lines
    assert "4 check(s) failed:" in lines
    assert sum("b_1 = 3 != 2" in line for line in lines) == 2


def test_verify_rejects_max_dim_below_minimum(capsys):
    for suite in ("thm1", "all"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-dim", "3")
        assert code == 2
        assert out == ""
        assert "argument --max-dim: dimension must be in 5..22, got 3" in err


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(max_dim, lines, failures):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(cli, "_verify_thm1", broken)
    code, out, err = run(capsys, "verify", "--suite", "thm1", "--max-dim", "5")
    assert code == cli.EXIT_INTERNAL == 4
    assert code != cli.EXIT_VERIFY_FAILED
    assert out == ""
    assert err.startswith("internal error: AssertionError: broken invariant")


def test_grading_errors_are_internal_errors(capsys, monkeypatch):
    # both subclass ValueError, which otherwise means invalid input (exit 2)
    for exc in (ImageOutsideCodomain("image term e1^e2 of e4 not in codomain"),
                AmbientMismatch("5 != 6")):
        def broken(g, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "betti", broken)
        code, out, err = run(capsys, "betti", "--dim", "5", "--algebra", "m0")
        assert code == cli.EXIT_INTERNAL == 4, exc
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_infeasible_betti_work_is_refused_up_front(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("work started")

    for target, name in ((cli, "betti"), (cli, "betti_tables"), (cli, "partner"),
                         (cli, "partners"), (cli, "square_failures"),
                         (cli.classify, "enumerate_algebras")):
        monkeypatch.setattr(target, name, work)
    assert cli.MAX_BETTI_DIM == 22  # the messages below spell it out
    # the bounded flag and its value come first: argv[1:3]
    for argv in (
        ["betti", "--dim", "30", "--algebra", "m0"],
        ["betti", "--dim", "23", "--algebra", "m2"],
        ["betti", "--dim", "4", "--algebra", "m0"],
        ["enumerate", "--dim", "30"],
        ["enumerate", "--dim", "30", "--format", "json"],
        ["enumerate", "--dim", "23"],
        ["enumerate", "--dim", "4"],
        ["pair", "--dim", "30", "--row", zeros(30)],
        ["pair", "--dim", "23", "--row", zeros(23)],
        ["pair", "--dim", "4", "--row", zeros(4)],
        ["verify", "--max-dim", "30", "--suite", "diagrams"],
        ["verify", "--max-dim", "23", "--suite", "all"],
        ["verify", "--max-dim", "4", "--suite", "thm2"],
    ):
        flag, value = argv[1:3]
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_BAD_INPUT == 2, argv
        assert out == ""
        assert f"argument {flag}: dimension must be in 5..22, got {value}" in err, argv
    code, out, err = run(capsys, "betti", "--dim", "abc", "--algebra", "m0")
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert "argument --dim: invalid dimension value: 'abc'" in err
    # the bounds themselves are accepted: the work starts (and here fails)
    for argv in (
        ["betti", "--dim", "5", "--algebra", "m0"],
        ["betti", "--dim", "22", "--algebra", "m2"],
        ["enumerate", "--dim", "5"],
        ["enumerate", "--dim", "22", "--format", "json"],
        ["pair", "--dim", "5", "--row", zeros(5)],
        ["pair", "--dim", "22", "--row", zeros(22)],
        ["verify", "--max-dim", "5", "--suite", "thm1"],
        ["verify", "--max-dim", "22", "--suite", "diagrams"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_INTERNAL and "work started" in err, argv


def test_tree_bound_is_refused_before_any_work(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("work started")

    # reduce's work starts with the completion of its row
    monkeypatch.setattr(cli.classify, "enumerate_algebras", work)
    monkeypatch.setattr(core, "_complete_row", work)
    # the bounded flag and its value come first: argv[1:3]
    for argv in (
        ["tree", "--max-dim", "65"],
        ["tree", "--max-dim", "4"],
        ["enumerate", "--max-dim", "65", "--dim", "6", "--tree"],
        ["enumerate", "--max-dim", "4", "--dim", "6", "--tree"],
        ["reduce", "--dim", "65", "--row", zeros(65)],
        ["reduce", "--dim", "4", "--row", zeros(4)],
    ):
        flag, value = argv[1:3]
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_BAD_INPUT == 2, argv
        assert out == ""
        assert f"argument {flag}: dimension must be in 5..64, got {value}" in err, argv
    code, out, err = run(capsys, "reduce", "--dim", "abc", "--row", zeros(5))
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert "argument --dim: invalid dimension value: 'abc'" in err
    # the bounds themselves are accepted: the work starts (and here fails)
    for argv in (
        ["tree", "--max-dim", "5"],
        ["tree", "--max-dim", "64"],
        ["enumerate", "--max-dim", "5", "--dim", "6", "--tree"],
        ["enumerate", "--max-dim", "64", "--dim", "6", "--tree"],
        ["reduce", "--dim", "5", "--row", zeros(5)],
        ["reduce", "--dim", "64", "--row", zeros(64)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_INTERNAL and "work started" in err, argv
    with pytest.raises(ValueError, match="5..64, got 65"):
        classify.extension_tree(65)


def test_unknown_verb_exits_2(capsys):
    # main returns argparse's exit codes instead of raising SystemExit
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: vergne")


def test_identical_invocations_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "enumerate", "--dim", "8", "--format", "json")
    _, out2, _ = run(capsys, "enumerate", "--dim", "8", "--format", "json")
    assert out1 == out2
    _, out3, _ = run(capsys, "betti", "--dim", "9", "--algebra", "m2", "--graded")
    _, out4, _ = run(capsys, "betti", "--dim", "9", "--algebra", "m2", "--graded")
    assert out3 == out4
