"""Exact toolkit for many-valued logic over the rational unit interval.

Formula evaluation, piecewise-linear term functions in Max-Min form,
formula synthesis from piecewise-linear data, semantic decision procedures
by exact linear programming, and a de Finetti coherence checker with
verifiable certificates.  All arithmetic is exact rational.
"""

from .errors import BudgetExceededError, RangeViolationError
from .kernel import (
    UnitRational,
    dist,
    implies,
    join,
    meet,
    neg,
    odot,
    oplus,
    parse_rational,
    scalar_mul,
)
from .formula import (
    Delta,
    Formula,
    Iff,
    Implies,
    Join,
    Meet,
    Nabla,
    Neg,
    Odot,
    Ominus,
    Oplus,
    ParseError,
    RConst,
    Var,
    arity,
    evaluate,
    expand,
    format_formula,
    nnf,
    parse,
    program,
)
from .pwl import (
    Affine,
    MaxMin,
    affine_eval,
    components,
    constant,
    linear_combination,
    maxmin_eval,
    maxmin_from_json,
    maxmin_to_json,
    mm_add,
    mm_join,
    mm_meet,
    mm_neg_affine,
    mm_negate,
    mm_scale,
    projection,
    prune,
    term_pwl,
    trunc,
)
from .geometry import (
    delta_norm,
    extrema,
    is_invalid,
    is_valid,
    maximum,
    minimum,
    semantic_equiv,
    unit_norm,
    vertices_from_components,
)
from .synthesis import synth_pwl, synth_trunc_affine
from .coherence import (
    Book,
    Coherent,
    DutchBook,
    Incoherent,
    StateWitness,
    book_from_json,
    book_to_json,
    certificate_from_json,
    certificate_to_json,
    check_coherent,
    event_image,
    nabla_combination,
    shortfall_span_member,
    signed_difference,
    span_combination,
    span_member,
    state_eval,
    verify_certificate,
)

# the names imported above, without the submodules that importing them binds
__all__ = [name for name in dir() if not name.startswith("_") and type(globals()[name]) is not type(kernel)]
__version__ = "0.1.0"
