"""Exact symbolic kernel for twisted derivations on Laurent polynomials,
the brackets they carry, and the deformed Witt, sl(2) and Virasoro
families built from them.

Everything is computed over Q(p,q) with arbitrary-precision rational
coefficients; every identity the package claims is checked by exact
equality, never numerically.
"""

from .algebra import Combo, GradedAlgebra, algebras_equal_on_window, perturb_algebra
from .bracket import (
    bracket_forced,
    bracket_general,
    bracket_general_operator_oracle,
    check_forced_conditions,
    index_triples,
    twist_coefficient,
    verify_hom_jacobi,
    verify_quasi_jacobi,
)
from .derivation import (
    DerivationContext,
    DerivationElement,
    SigmaSigmaContext,
    commutator_derivation,
    leibniz_extension,
    make_context,
    monomial_pairs,
    rescale_generator,
    verify_leibniz,
)
from .errors import (
    BadPerturbation,
    BadSize,
    CocycleConditionFailed,
    ConditionsFailed,
    DivisionByZero,
    EqualMorphisms,
    ExprSyntaxError,
    HomlieError,
    HypothesisViolated,
    InvalidGcd,
    NotAUnit,
    NotDivisible,
    NotInvertible,
    NotWeakMorphism,
    PoleAtPoint,
    PoleAtSpecialization,
    UsageError,
)
from .extension import (
    Cocycle,
    make_central_extension,
    verify_cocycle_condition,
    verify_f_compatibility,
    virasoro_cocycle,
    virasoro_pq,
)
from .families import (
    GeneratorMap,
    check_morphism,
    classical_sl2,
    classical_witt,
    diagram_report,
    inverse_twist_example,
    sigma_sigma_witt,
    sigma_sigma_witt_forced,
    sl2_pp,
    sl2_pp_forced,
    sl2_pq,
    sl2_r,
    solve_scale_isomorphism,
    twist_algebra,
    witt_pq,
    witt_pq_forced,
    witt_r,
)
from .laurent import Endo, LaurentPoly, apply_endo, compose_endo, exact_div, gcd_up_to_unit, invert_endo
from .opcat import CatalogueEntry, PlainPoly, catalogue, seeded_corpus, verify_catalogue, verify_entry
from .parser import parse_laurent, parse_rational, parse_scalar
from .report import Entry, Report
from .scalar import ParamPoly, Scalar, pq_number_of

__version__ = "0.1.0"
