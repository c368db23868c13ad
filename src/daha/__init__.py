"""Exact double affine Hecke algebra engine on the polynomial representation.

Computes nonsymmetric and symmetric Macdonald polynomials by Cherednik's
intertwiners over Q(q, t), verifies the Hecke operator relations at the
character level, and independently rebuilds the rank-one module theory
(deformed blocks, fusion products, degree filtrations) to cross-validate
dimensions, supercharacters, and eigenvalues.
"""

from .qt import QTPoly, RatQT, rat
from .roots import RootSystem, root_system
from .polyring import (
    QTLaurent,
    integral_form,
    laurent_from_json,
    laurent_to_json,
    laurent_to_latex,
    laurent_to_text,
    orbit_sum,
    specialize_dim,
)
from .hecke import (
    demazure_char,
    demazure_op,
    dl_inv,
    dl_op,
    symmetrizer,
    verify_demazure,
    verify_relations,
    verify_symmetrizer,
    word_op,
    y_op,
)
from .macdonald import (
    EigenResult,
    eigen_check,
    monomial_expand,
    nonsym_e,
    sym_p,
    weyl_character,
)
from .orders import verify_order
from .sl2 import (
    FiniteRep,
    cross_validate,
    deformed_block,
    fusion,
    graded_character,
    pi_twist,
    recursion_e,
    twist_cocycle,
)

__all__ = [
    "QTPoly",
    "RatQT",
    "rat",
    "RootSystem",
    "root_system",
    "QTLaurent",
    "integral_form",
    "laurent_from_json",
    "laurent_to_json",
    "laurent_to_latex",
    "laurent_to_text",
    "orbit_sum",
    "specialize_dim",
    "demazure_char",
    "demazure_op",
    "dl_inv",
    "dl_op",
    "symmetrizer",
    "verify_demazure",
    "verify_relations",
    "verify_symmetrizer",
    "word_op",
    "y_op",
    "EigenResult",
    "eigen_check",
    "monomial_expand",
    "nonsym_e",
    "sym_p",
    "weyl_character",
    "verify_order",
    "FiniteRep",
    "cross_validate",
    "deformed_block",
    "fusion",
    "graded_character",
    "pi_twist",
    "recursion_e",
    "twist_cocycle",
]

__version__ = "0.1.0"
