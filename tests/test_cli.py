"""Command line wiring: verbs, formats, exit codes, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from vergne import classify, cli, cohomology
from vergne.cli import main
from vergne.cohomology import betti
from vergne.core import m0
from vergne.exterior import AmbientMismatch, ImageOutsideCodomain

from helpers import parse_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert "--max-dim must be at least 5" in err
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


def test_tree_stdout_and_io_failure(tmp_path, capsys):
    code, out, _ = run(capsys, "tree", "--max-dim", "6")
    assert code == 0
    nodes, edges = parse_dot(out)
    assert len(nodes) == 4
    assert len(edges) == 2

    missing = tmp_path / "no" / "such" / "dir" / "x.dot"
    code, _, err = run(capsys, "tree", "--max-dim", "5", "--dot", str(missing))
    assert code == 3
    assert "cannot write" in err


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


def test_verify_diagrams_transcript_is_pinned(capsys):
    # SHA-256 of the stdout of `verify --suite diagrams --max-dim 14` as the
    # block-by-block check of every square at every k printed it
    code, out, _ = run(capsys, "verify", "--suite", "diagrams", "--max-dim", "14")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5ff89f8a062a22e70ac0134b73dee523e6c8835f216a12281f0bd7023c0c9190"


def test_verify_all_transcript_is_pinned(capsys):
    # SHA-256 of the stdout of `verify --suite all --max-dim 14` as it was
    # printed when thm1 and thm2 ranked fresh model and partner instances
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "14")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "801c7996f527af2c8b9170de5d2f2b506abf011591fcb0b397f62e8db4514a29"


def test_verify_ranks_each_enumerated_complex_once(capsys, monkeypatch):
    # thm1's models and thm2's partners are enumerated algebras too, so the
    # 44 algebras of n = 5..12 are the only complexes ranked from scratch
    classify.enumerate_algebras.cache_clear()
    cold = []
    real = cohomology._block_ranks

    def counting(g, top):
        if g._ranks is None:
            cold.append(g)
        return real(g, top)

    monkeypatch.setattr(cohomology, "_block_ranks", counting)
    code, _, _ = run(capsys, "verify", "--suite", "all", "--max-dim", "12")
    assert code == 0
    assert sum(len(classify.enumerate_algebras(n)) for n in range(5, 13)) == 44
    assert len(cold) == 44
    assert len(set(map(id, cold))) == 44


def test_verify_thm2_ranks_a_partner_outside_the_enumeration(capsys, monkeypatch):
    # a partner missing from the enumerated instances is ranked as it is,
    # so a wrong partner reads as a failed check, not an internal error
    monkeypatch.setattr(cli, "partner", lambda g: m0(g.n + 1))
    code, out, _ = run(capsys, "verify", "--suite", "thm2", "--max-dim", "7")
    assert code == cli.EXIT_VERIFY_FAILED
    assert "thm2 n=5 m0(5) ~ m0(6) FAIL" in out.splitlines()
    assert sum(line.startswith("thm2 n=") and line.endswith(" FAIL") for line in out.splitlines()) == 8


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
        assert "--max-dim must be at least 5" in err


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

    for target, name in ((cli, "betti"), (cli, "partner"), (cli, "verify_commuting_square"),
                         (cli.classify, "enumerate_algebras")):
        monkeypatch.setattr(target, name, work)
    zeros = "[" + ", ".join(["0"] * 29) + "]"
    for argv in (
        ["betti", "--dim", "30", "--algebra", "m0"],
        ["betti", "--dim", str(cli.MAX_BETTI_DIM + 1), "--algebra", "m2"],
        ["enumerate", "--dim", "30"],
        ["enumerate", "--dim", "30", "--format", "json"],
        ["pair", "--dim", "30", "--row", zeros],
        ["verify", "--suite", "diagrams", "--max-dim", "30"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_BAD_INPUT == 2, argv
        assert out == ""
        assert "past the feasibility bound" in err and str(cli.MAX_BETTI_DIM) in err
    # the bound itself is accepted: the work starts (and here fails)
    code, _, err = run(capsys, "betti", "--dim", str(cli.MAX_BETTI_DIM), "--algebra", "m0")
    assert code == cli.EXIT_INTERNAL and "work started" in err


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_identical_invocations_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "enumerate", "--dim", "8", "--format", "json")
    _, out2, _ = run(capsys, "enumerate", "--dim", "8", "--format", "json")
    assert out1 == out2
    _, out3, _ = run(capsys, "betti", "--dim", "9", "--algebra", "m2", "--graded")
    _, out4, _ = run(capsys, "betti", "--dim", "9", "--algebra", "m2", "--graded")
    assert out3 == out4
