"""The package namespace: the same names, resolved on first use.

`epsalg` loads a submodule when one of its names is first read; every name
the package exports is still reachable from it and is the submodule's own
object.
"""
import importlib
import sys

import pytest

import epsalg

# submodule -> the names `from epsalg import *` has always exported
EXPORTS = {
    "brackets": [
        "BracketContext", "OscillatorReport", "OscillatorSet", "commutator",
        "epsilon_commutator", "oscillator_set", "oscillator_table", "poisson_bracket",
        "sample_homogeneous", "sample_triples", "verify_lie_axioms", "verify_poisson_axioms",
    ],
    "deformation": ["DeformationExpansion", "check_deformation_identity"],
    "exprparse": [
        "BinOp", "Call", "EvalError", "Neg", "Num", "ParseError", "Pow", "Sym",
        "element_from_text", "evaluate", "parse", "print_expr", "scalar_from_text",
    ],
    "freealg": ["EMPTY_WORD", "Element", "Generator", "Word", "grade_of",
                "homogeneous_components"],
    "grading": [
        "FACTOR_PRESETS", "CommutationFactor", "Grade", "counterexample_factor", "eps_a",
        "eps_a_prime", "eps_c", "eps_c_prime", "eps_q", "verify_factor_axioms",
    ],
    "matrices": [
        "GradedMatrix", "IbnReport", "RankProfile", "augmentation_violations", "gm_mul",
        "ibn_probe", "invertible_pair", "rank_profile", "unit_coefficient",
    ],
    "presets": [
        "FAMILY_NAMES", "NOA_FAMILIES", "PRESET_NAMES", "Algebra", "build_counterexample",
        "build_epsilon_exterior", "build_exterior_preset", "build_noa",
        "build_quantum_plane", "classical_limit", "parse_preset", "with_h",
    ],
    "rewrite": ["Ambiguity", "ReductionSystem", "RewriteError", "Rule", "StepBudgetExceeded"],
    "scalars": ["H", "H_ONE", "H_ZERO", "HALF", "I", "MINUS_ONE", "ONE", "R2", "ZERO",
                "HPoly", "Scalar"],
    "structure": [
        "RescalingMap", "apply_J", "apply_phi", "apply_sigma", "number_operator_check",
        "number_operator_element", "rescale", "verify_J_well_defined", "verify_rescaling",
        "verify_sigma",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_lists_the_ninety_names():
    assert len(NAMES) == 90
    assert sorted(epsalg.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodules_object(module):
    owner = importlib.import_module(f"epsalg.{module}")
    assert getattr(epsalg, module) is owner is sys.modules[f"epsalg.{module}"]
    for name in EXPORTS[module]:
        assert getattr(epsalg, name) is getattr(owner, name)


def test_dir_lists_the_names():
    assert set(NAMES) <= set(dir(epsalg))


def test_star_import_gives_the_names():
    namespace = {}
    exec("from epsalg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        epsalg.no_such_name
    assert not hasattr(epsalg, "cli_run")

