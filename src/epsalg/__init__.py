"""Exact symbolic computation in epsilon-graded algebras.

The package builds algebras from graded reduction systems (six
number-operator families, the quantum plane, epsilon-exterior algebras and
a rank counterexample), normalizes words against them, checks confluence
by resolving overlap ambiguities, and verifies the graded Lie, Poisson and
deformation identities that the normal forms are supposed to satisfy.  All
arithmetic is exact over Q(i, sqrt2) adjoined a formal parameter h.

Submodules load on first use.  `import epsalg` puts each library module in
`sys.modules` through `importlib.util.LazyLoader`, so its code runs when one
of its attributes is first read, and a module-level `__getattr__` resolves
the names of `__all__` from the table below and caches them here.  A cold
`epsalg` command that never reaches, say, `matrices` never compiles it.
"""

import importlib.util
import sys

# submodule -> the names the package exports from it
_EXPORTS = {
    "brackets": (
        "BracketContext",
        "OscillatorReport",
        "OscillatorSet",
        "commutator",
        "epsilon_commutator",
        "oscillator_set",
        "oscillator_table",
        "poisson_bracket",
        "sample_homogeneous",
        "sample_triples",
        "verify_lie_axioms",
        "verify_poisson_axioms",
    ),
    "deformation": (
        "DeformationExpansion",
        "check_deformation_identity",
    ),
    "exprparse": (
        "BinOp",
        "Call",
        "EvalError",
        "Neg",
        "Num",
        "ParseError",
        "Pow",
        "Sym",
        "element_from_text",
        "evaluate",
        "parse",
        "print_expr",
        "scalar_from_text",
    ),
    "freealg": (
        "EMPTY_WORD",
        "Element",
        "Generator",
        "Word",
        "grade_of",
        "homogeneous_components",
    ),
    "grading": (
        "FACTOR_PRESETS",
        "CommutationFactor",
        "Grade",
        "counterexample_factor",
        "eps_a",
        "eps_a_prime",
        "eps_c",
        "eps_c_prime",
        "eps_q",
        "verify_factor_axioms",
    ),
    "matrices": (
        "GradedMatrix",
        "IbnReport",
        "RankProfile",
        "augmentation_violations",
        "gm_mul",
        "ibn_probe",
        "invertible_pair",
        "rank_profile",
        "unit_coefficient",
    ),
    "presets": (
        "FAMILY_NAMES",
        "NOA_FAMILIES",
        "PRESET_NAMES",
        "Algebra",
        "build_counterexample",
        "build_epsilon_exterior",
        "build_exterior_preset",
        "build_noa",
        "build_quantum_plane",
        "classical_limit",
        "parse_preset",
        "with_h",
    ),
    "rewrite": (
        "Ambiguity",
        "ReductionSystem",
        "RewriteError",
        "Rule",
        "StepBudgetExceeded",
    ),
    "scalars": (
        "H",
        "H_ONE",
        "H_ZERO",
        "HALF",
        "I",
        "MINUS_ONE",
        "ONE",
        "R2",
        "ZERO",
        "HPoly",
        "Scalar",
    ),
    "structure": (
        "RescalingMap",
        "apply_J",
        "apply_phi",
        "apply_sigma",
        "number_operator_check",
        "number_operator_element",
        "rescale",
        "verify_J_well_defined",
        "verify_rescaling",
        "verify_sigma",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def _register_lazily(name: str):
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
