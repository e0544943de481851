"""The public surface: what ``vergne`` exports, and what it no longer does."""

import ast
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import pytest

import vergne

PUBLIC = [
    "AmbientMismatch", "BettiTable", "Decomposition", "Derivation", "ExtensionStep",
    "ExtensionTree", "Form", "ImageOutsideCodomain", "JacobiViolation", "MAX_AMBIENT",
    "MIN_DIMENSION", "MissingLeadingTerm", "Monomial", "NotACocycle",
    "NotHomogeneousTopDegree", "RowVector", "VergneAlgebra", "admissible_cocycles",
    "betti", "betti_tables", "central_extension", "decompose", "differential", "dimension_json_dict",
    "enumerate_algebras", "extension_tree", "from_row", "has_codim1_abelian_ideal",
    "involution", "label", "m0", "m2", "parse_row", "partner", "partners", "reduce",
    "to_dot", "verify_commuting_square",
]

# test helpers now (tests/helpers.py), or reads of betti(g), or module-level only
RETIRED = ["cocycle_dim", "graded_betti", "lowering_operator", "matrix_of", "parse_form",
           "rank", "wedge"]


def test_package_exports_exactly_the_public_names():
    assert sorted(vergne.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(vergne, name) is not None, name


@pytest.mark.parametrize(
    "module", ["classify", "cohomology", "core", "exterior", "extensions", "gf2"]
)
def test_every_module_all_resolves(module):
    mod = importlib.import_module(f"vergne.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), (module, name)


def test_retired_names_are_not_importable():
    for name in RETIRED:
        assert not hasattr(vergne, name), name
        with pytest.raises(ImportError):
            exec(f"from vergne import {name}", {})
    assert not hasattr(vergne.Monomial, "from_indices")
    assert not hasattr(vergne.Monomial, "top_degree")
    for method in ("replay", "to_json", "to_json_dict"):
        assert not hasattr(vergne.Decomposition, method), method
    assert not hasattr(vergne.BettiTable, "to_json")
    assert hasattr(vergne.BettiTable, "to_json_dict") and hasattr(vergne.BettiTable, "to_csv")


def test_the_differential_has_one_representation():
    # the second copy of a Derivation's generator images, the row helpers,
    # the separate column builder and the one-table block kernel (the
    # batch kernel is cohomology._block_pivots) are gone, and a Derivation
    # holds its images in one table
    for name in ("GeneratorTable", "generator_table", "_mask_from_indices", "image_columns",
                 "block_pivots"):
        assert not hasattr(vergne.exterior, name), name
    assert vergne.Derivation.__slots__ == ("ambient", "_table")
    assert not hasattr(vergne.differential(vergne.m0(7)), "_pairs")
    assert not hasattr(vergne.core, "_symmetric_get")
    assert not hasattr(vergne.RowVector, "bit")
    # and the square has one path: verify_commuting_square reads square_failures,
    # which compares the c-tables and has no generator or column checks of its own
    for name in ("_square_failures", "_check_generator_images", "_generators_conjugate",
                 "_block_square_holds"):
        assert not hasattr(vergne.cohomology, name), name


# Each public entry refuses an argument of another type by name, with the
# TypeError of its first attribute read; one case per entry.
REFUSALS = {
    "from_row": (lambda: vergne.from_row(None), "not a RowVector or row string: None"),
    "parse_row": (lambda: vergne.parse_row(None), "not a row string: None"),
    "involution": (lambda: vergne.involution(None), "not a Form: None"),
    "Derivation": (lambda: vergne.Derivation(0, None), "not a mapping of generator images: None"),
    "differential": (lambda: vergne.differential(None), "not a VergneAlgebra: None"),
    "central_extension-g": (lambda: vergne.central_extension(None, vergne.Form(6)),
                            "not a VergneAlgebra: None"),
    "central_extension-omega": (lambda: vergne.central_extension(vergne.m0(6), "x"),
                                "not a Form: 'x'"),
    "admissible_cocycles": (lambda: vergne.admissible_cocycles(6), "not a VergneAlgebra: 6"),
    "reduce": (lambda: vergne.reduce(None), "not a VergneAlgebra: None"),
    "decompose": (lambda: vergne.decompose("x"), "not a VergneAlgebra: 'x'"),
    "has_codim1_abelian_ideal": (lambda: vergne.has_codim1_abelian_ideal(None),
                                 "not a VergneAlgebra: None"),
    "to_dot": (lambda: vergne.to_dot(None), "not an ExtensionTree: None"),
}


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_an_argument_of_another_type_is_refused_by_name(entry):
    call, message = REFUSALS[entry]
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message
    assert info.value.__cause__ is None and info.value.__suppress_context__


SRC = Path(__file__).resolve().parents[1] / "src" / "vergne"
TESTS = Path(__file__).resolve().parent


def test_the_betti_path_reads_delta_off_the_rows():
    # _delta_terms reads δ off g.rows, so cohomology builds a differential
    # only for the square's per-monomial fallback, and never reads a
    # Derivation's private table
    tree = ast.parse((SRC / "cohomology.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "_table"]
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "differential"}
    assert callers == {"_failures"}
    # and a topological degree is range-checked by exterior._check_ambient alone
    assert not hasattr(vergne.core, "_check_involution_degree")


# __init__.py imports to re-export, and __future__ imports change the
# compiler, so neither needs a use
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
                         + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_form_is_built_by_its_constructor(path):
    # Form.__init__ is the one constructor: a Form.__new__(Form) or
    # object.__new__(Form) call would build a Form past its checks
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert "Form" not in names, f"{path.name}:{node.lineno} calls __new__ on Form"
    assert not hasattr(vergne.exterior, "_from_masks")
    assert not hasattr(vergne.extensions, "_check_extension_cocycle")


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "gf2.py"),
                         ids=lambda p: p.name)
def test_no_library_module_imports_gf2(path):
    # the cocycle search reads its free bit and the Betti kernel eliminates
    # in place, so gf2 is left to the tests as a reference
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            dotted = [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        else:
            continue
        assert not any("gf2" in name.split(".") for name in dotted), \
            f"{path.name}:{node.lineno} imports gf2"
    assert not hasattr(vergne.extensions, "solve_affine")


# `module.name` or ``module.name`` in prose, for the modules of the package
CODE_REFERENCE = re.compile(r"`(classify|cohomology|core|exterior|extensions|gf2|cli)"
                            r"\.(\w+(?:\.\w+)*)")
# tests/oracles.py::name and tests/helpers.py::name, for the test toolkit
TEST_REFERENCE = re.compile(r"tests/(oracles|helpers)\.py::(\w+)")


def _top_level_names(path):
    """The functions and classes defined at the top level of ``path``."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_dotted_code_reference_in_the_docs_resolves():
    paths = [*sorted(SRC.glob("*.py")), SRC.parents[1] / "README.md", TESTS / "oracles.py"]
    texts = {path.name: path.read_text() for path in paths}
    refs = [(where, m.group(1), m.group(2))
            for where, text in texts.items() for m in CODE_REFERENCE.finditer(text)]
    dangling = []
    for where, module, dotted in refs:
        owner = importlib.import_module(f"vergne.{module}")
        for part in dotted.split("."):
            if not hasattr(owner, part):
                dangling.append(f"{where}: {module}.{dotted}")
                break
            owner = getattr(owner, part)
    toolkit = {name: _top_level_names(TESTS / f"{name}.py") for name in ("oracles", "helpers")}
    test_refs = [(where, m.group(1), m.group(2))
                 for where, text in texts.items() for m in TEST_REFERENCE.finditer(text)]
    dangling += [f"{where}: tests/{module}.py::{name}" for where, module, name in test_refs
                 if name not in toolkit[module]]
    assert len(refs) >= 20, refs  # the patterns still find the references
    assert {module for _, module, _ in test_refs} == {"oracles", "helpers"}, test_refs
    assert not dangling, dangling


def test_the_readme_example_gives_the_results_its_comments_state():
    # the python block of the README's Library section: a comment that is a
    # Python literal, trailing a statement or on the line after it, states
    # that statement's value; other comments are prose
    library = (SRC.parents[1] / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    comments = {tok.start[0]: tok.string.lstrip("# ")
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, []
    for stmt in ast.parse(block).body:
        end = stmt.end_lineno
        text = comments.get(end)
        if text is None and end < len(lines) and lines[end].lstrip().startswith("#"):
            text = comments[end + 1]
        try:
            want = ast.literal_eval(text or "")
        except (SyntaxError, ValueError):  # prose, or no comment
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), f"README line {end} states a value for a statement"
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert got == want, (ast.get_source_segment(block, stmt), got)
        checked.append(want)
    assert (1, 2, 3, 6, 6, 3, 2, 1) in checked and "h(7,1)" in checked
    assert ("m0(5)", ["e1^e5", "e1^e6 + e2^e5 + e3^e4"]) in checked


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_constant(filename, name):
    """A literal assigned at the top level of a perfbench file, read without importing it."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} no longer assigns {name}")


def test_names_the_benchmark_reaches_still_resolve():
    # the tracer patches these by name and the worker wraps the verify
    # suites to time each line; a rename otherwise shows up only as a worker
    # error in the traced benchmark jobs
    for module, attr, _ in _perfbench_constant("tracer.py", "TARGETS"):
        owner = importlib.import_module(f"vergne.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"perfbench/tracer.py TARGETS: vergne.{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"perfbench/tracer.py TARGETS: vergne.{module}.{attr}"
    cli = importlib.import_module("vergne.cli")
    for suite in _perfbench_constant("worker.py", "SUITES"):
        fn = getattr(cli, f"_verify_{suite}", None)
        assert fn is not None, f"perfbench/worker.py SUITES: cli._verify_{suite} is gone"
        params = list(inspect.signature(fn).parameters)
        assert params == ["max_dim", "lines", "failures"], (
            f"perfbench/worker.py wraps cli._verify_{suite}(max_dim, lines, failures), "
            f"which now takes {params}"
        )


def test_every_mutant_still_applies_and_names_its_tests():
    # tests/mutants.py runs outside this suite; this keeps it from going
    # stale: each snippet occurs exactly once in its file, and each killing
    # test is a test function of the file it names
    import mutants

    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (SRC / m.path).read_text().count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert name in _top_level_names(SRC.parents[1] / path), (m.name, test)


def test_code_lines_counts_a_fixed_snippet():
    # tests/code_lines.py counts a line holding a token other than a comment,
    # a docstring or layout as code, each line of a multi-line token included,
    # and the lines a docstring spans as docstring lines
    import code_lines

    source = '''"""A module docstring,
on two lines."""

import os  # a comment


# a comment alone
def f(x):
    """One line."""
    text = """not a
docstring"""
    return (x +
            1)


class C:
    "A docstring in plain quotes."
    y = os.sep
'''
    assert code_lines.count(source) == (8, 4)
    assert code_lines.count("") == (0, 0)
