"""The public surface: what ``vergne`` exports, and what it no longer does."""

import ast
import importlib
import inspect
import re
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


SRC = Path(__file__).resolve().parents[1] / "src" / "vergne"
TESTS = Path(__file__).resolve().parent


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


def test_every_dotted_code_reference_in_the_docs_resolves():
    paths = [*sorted(SRC.glob("*.py")), SRC.parents[1] / "README.md", TESTS / "oracles.py"]
    refs = [(path.name, m.group(1), m.group(2))
            for path in paths for m in CODE_REFERENCE.finditer(path.read_text())]
    dangling = []
    for where, module, dotted in refs:
        owner = importlib.import_module(f"vergne.{module}")
        for part in dotted.split("."):
            if not hasattr(owner, part):
                dangling.append(f"{where}: {module}.{dotted}")
                break
            owner = getattr(owner, part)
    assert len(refs) >= 20, refs  # the pattern still finds the references
    assert not dangling, dangling


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
