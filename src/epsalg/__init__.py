"""Exact symbolic computation in epsilon-graded algebras.

The package builds algebras from graded reduction systems (six
number-operator families, the quantum plane, epsilon-exterior algebras and
a rank counterexample), normalizes words against them, checks confluence
by resolving overlap ambiguities, and verifies the graded Lie, Poisson and
deformation identities that the normal forms are supposed to satisfy.  All
arithmetic is exact over Q(i, sqrt2) adjoined a formal parameter h.
"""

from .brackets import (
    BracketContext,
    OscillatorReport,
    OscillatorSet,
    commutator,
    epsilon_commutator,
    oscillator_set,
    oscillator_table,
    poisson_bracket,
    sample_homogeneous,
    sample_triples,
    verify_lie_axioms,
    verify_poisson_axioms,
)
from .deformation import (
    DeformationExpansion,
    check_deformation_identity,
)
from .exprparse import (
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Pow,
    Sym,
    element_from_text,
    evaluate,
    parse,
    print_expr,
    scalar_from_text,
)
from .freealg import (
    EMPTY_WORD,
    Element,
    Generator,
    Word,
    grade_of,
    homogeneous_components,
)
from .grading import (
    FACTOR_PRESETS,
    CommutationFactor,
    Grade,
    counterexample_factor,
    eps_a,
    eps_a_prime,
    eps_c,
    eps_c_prime,
    eps_q,
    verify_factor_axioms,
)
from .matrices import (
    GradedMatrix,
    IbnReport,
    RankProfile,
    augmentation_violations,
    gm_mul,
    ibn_probe,
    invertible_pair,
    rank_profile,
    unit_coefficient,
)
from .presets import (
    FAMILY_NAMES,
    NOA_FAMILIES,
    PRESET_NAMES,
    Algebra,
    build_counterexample,
    build_epsilon_exterior,
    build_exterior_preset,
    build_noa,
    build_quantum_plane,
    classical_limit,
    parse_preset,
    with_h,
)
from .rewrite import (
    Ambiguity,
    ReductionSystem,
    RewriteError,
    Rule,
    StepBudgetExceeded,
)
from .scalars import H, H_ONE, H_ZERO, HALF, I, MINUS_ONE, ONE, R2, ZERO, HPoly, Scalar
from .structure import (
    RescalingMap,
    apply_J,
    apply_phi,
    apply_sigma,
    number_operator_check,
    number_operator_element,
    rescale,
    verify_J_well_defined,
    verify_rescaling,
    verify_sigma,
)

__version__ = "0.1.0"
