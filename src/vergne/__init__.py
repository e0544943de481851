"""Exact GF(2) toolkit for filiform Lie algebras of Vergne type.

Computes Chevalley-Eilenberg cohomology with trivial coefficients,
enumerates all Vergne-type algebras per dimension, decomposes them into
chains of central extensions over the two dimension-5 models, and pairs
every algebra with a non-isomorphic one sharing its Betti numbers.
"""

from .classify import (
    ExtensionTree,
    dimension_json_dict,
    enumerate_algebras,
    extension_tree,
    label,
    to_dot,
)
from .cohomology import (
    BettiTable,
    betti,
    betti_tables,
    verify_commuting_square,
)
from .core import (
    MIN_DIMENSION,
    JacobiViolation,
    RowVector,
    VergneAlgebra,
    differential,
    from_row,
    involution,
    m0,
    m2,
    parse_row,
)
from .exterior import (
    MAX_AMBIENT,
    AmbientMismatch,
    Derivation,
    Form,
    ImageOutsideCodomain,
    Monomial,
)
from .extensions import (
    Decomposition,
    ExtensionStep,
    MissingLeadingTerm,
    NotACocycle,
    NotHomogeneousTopDegree,
    admissible_cocycles,
    central_extension,
    decompose,
    has_codim1_abelian_ideal,
    partner,
    partners,
    reduce,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "BettiTable",
    "Decomposition",
    "Derivation",
    "ExtensionStep",
    "ExtensionTree",
    "Form",
    "ImageOutsideCodomain",
    "JacobiViolation",
    "MAX_AMBIENT",
    "MIN_DIMENSION",
    "MissingLeadingTerm",
    "Monomial",
    "NotACocycle",
    "NotHomogeneousTopDegree",
    "RowVector",
    "VergneAlgebra",
    "admissible_cocycles",
    "betti",
    "betti_tables",
    "central_extension",
    "decompose",
    "differential",
    "dimension_json_dict",
    "enumerate_algebras",
    "extension_tree",
    "from_row",
    "has_codim1_abelian_ideal",
    "involution",
    "label",
    "m0",
    "m2",
    "parse_row",
    "partner",
    "partners",
    "reduce",
    "to_dot",
    "verify_commuting_square",
]
