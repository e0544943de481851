"""The public surface: what ``vergne`` exports, and what it no longer does."""

import importlib

import pytest

import vergne

PUBLIC = [
    "AmbientMismatch", "BettiTable", "Decomposition", "Derivation", "ExtensionStep",
    "ExtensionTree", "Form", "ImageOutsideCodomain", "JacobiViolation", "MAX_AMBIENT",
    "MIN_DIMENSION", "MissingLeadingTerm", "Monomial", "NotACocycle",
    "NotHomogeneousTopDegree", "RowVector", "VergneAlgebra", "admissible_cocycles",
    "betti", "central_extension", "decompose", "differential", "dimension_json_dict",
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
    # image_columns and block_pivots read the Derivation itself; the second
    # copy of its generator images and the row helpers are gone
    for name in ("GeneratorTable", "generator_table", "_mask_from_indices"):
        assert not hasattr(vergne.exterior, name), name
    assert not hasattr(vergne.core, "_symmetric_get")
    assert not hasattr(vergne.RowVector, "bit")
