"""Acceptance gate: one test per contract criterion, run at contract scale.

Each criterion is a single test function so the verbose run shows one
pass/fail line per criterion.  conftest orders this module last, which lets
the runtime criterion measure the whole session.
"""
import itertools
import random
import time

import conftest
import pytest

from epsalg import (
    BracketContext,
    DeformationExpansion,
    Element,
    Grade,
    GradedMatrix,
    H,
    I,
    ReductionSystem,
    Rule,
    Scalar,
    Word,
    build_counterexample,
    build_exterior_preset,
    build_noa,
    build_quantum_plane,
    check_deformation_identity,
    classical_limit,
    epsilon_commutator,
    ibn_probe,
    invertible_pair,
    number_operator_check,
    oscillator_set,
    oscillator_table,
    poisson_bracket,
    rank_profile,
    rescale,
    sample_triples,
    verify_J_well_defined,
    verify_lie_axioms,
    verify_poisson_axioms,
    verify_rescaling,
    verify_sigma,
    with_h,
)

ALL_FAMILIES = ["a", "a'", "b", "b'", "c", "c'"]
COMMUTATIVE_LIMITS = ["a", "a'", "c", "c'"]
UNIT_CONSTANTS = {Scalar.of(1), Scalar.of(-1), I, -I}


def _mutated_fermion() -> ReductionSystem:
    """The fermion presentation with the sign of the mixed relation flipped."""
    base = build_noa("a", 1)
    a, ad = base.gen("a1"), base.gen("ad1")
    return ReductionSystem(
        base.system.generators,
        [
            Rule(Word((a, a)), Element.zero()),
            Rule(Word((ad, ad)), Element.zero()),
            Rule(Word((a, ad)), Element.from_word(Word((ad, a))) + Element.scalar(H)),
        ],
    )


def test_criterion_01_confluence():
    t0 = time.monotonic()
    clean = (
        [build_noa(f, 3) for f in COMMUTATIVE_LIMITS]
        + [build_noa(f, n) for f in ("b", "b'") for n in (1, 2, 3)]
        + [build_quantum_plane(2), build_counterexample()]
        + [build_exterior_preset(2), build_exterior_preset(3)]
    )
    for alg in clean:
        assert alg.system.check_confluence() == [], alg.label
    unresolved = _mutated_fermion().check_confluence()
    assert len(unresolved) >= 1
    base = build_noa("a", 1)
    marker = base.parse("a1") * H * 2
    assert any(amb.residual in (marker, -marker) for amb in unresolved)
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_dimension_counts():
    for n, dim in ((1, 4), (2, 9), (3, 16)):
        alg = build_noa("b", n)
        assert alg.system.basis_is_complete(2)
        assert len(alg.basis(2)) == dim
    ferm = classical_limit(build_noa("a", 2))
    assert ferm.system.basis_is_complete(4)
    assert len(ferm.basis(4)) == 16


@pytest.mark.parametrize("family", COMMUTATIVE_LIMITS)
def test_criterion_03_classical_epsilon_commutativity(family):
    alg = classical_limit(build_noa(family, 3))
    ctx = BracketContext.quantum(alg)
    words = [Element.from_word(w) for w in alg.basis(3)]
    for x, y in itertools.combinations_with_replacement(words, 2):
        bracket = epsilon_commutator(ctx, x, y)
        assert bracket.is_zero(), (family, str(x), str(y), str(bracket))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_criterion_04_lie_axioms(family):
    alg = build_noa(family, 2)
    ctx = BracketContext.quantum(alg)
    triples = sample_triples(alg, 200, seed=100 + ALL_FAMILIES.index(family))
    assert verify_lie_axioms(ctx, triples) == []


@pytest.mark.parametrize("family", COMMUTATIVE_LIMITS)
def test_criterion_05_poisson_axioms(family):
    exp = DeformationExpansion(build_noa(family, 2))
    ctx = BracketContext.classical(exp)
    triples = sample_triples(
        exp.classical, 200, seed=200 + COMMUTATIVE_LIMITS.index(family)
    )
    assert verify_poisson_axioms(ctx, triples) == []


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_criterion_06_deformation_identity(family):
    exp = DeformationExpansion(build_noa(family, 2))
    words = exp.classical.basis(3)
    rng = random.Random(300 + ALL_FAMILIES.index(family))
    for _ in range(100):
        x, y, z = (Element.from_word(rng.choice(words)) for _ in range(3))
        for order in range(4):
            residual = check_deformation_identity(exp, x, y, z, order)
            assert residual.is_zero(), (family, str(x), str(y), str(z), order)
    for wx, wy in itertools.product(words, repeat=2):
        x, y = Element.from_word(wx), Element.from_word(wy)
        assert exp.mu_n(x, y, 0) == exp.classical.normalize(x * y)


@pytest.mark.parametrize("family", COMMUTATIVE_LIMITS)
def test_criterion_07_first_order_correspondence(family):
    quantum = build_noa(family, 2)
    exp = DeformationExpansion(quantum)
    qctx = BracketContext.quantum(quantum)
    cctx = BracketContext.classical(exp)
    words = [Element.from_word(w) for w in exp.classical.basis(3)]
    for x, y in itertools.product(words, repeat=2):
        lhs = epsilon_commutator(qctx, x, y).h_coefficient(1)
        rhs = poisson_bracket(cctx, x, y)
        assert lhs == rhs, (family, str(x), str(y))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_criterion_08_noa_structure(family):
    alg = build_noa(family, 3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert number_operator_check(alg, i, j) == [], (family, i, j)
    assert verify_J_well_defined(alg) == []
    assert verify_sigma(alg, (2, 3, 1)) == []
    assert verify_sigma(alg, (2, 1, 3)) == []
    source = with_h(alg, H * 2)
    m = rescale(source, Scalar(1, 1, 0, 0))
    assert m.norm == Scalar.of(2)
    assert m.target is alg
    assert verify_rescaling(m) == []


def test_criterion_09_rank_counterexample():
    alg = build_counterexample()
    moduli = (2, 2)
    gx, gy = Grade((1, 0), moduli), Grade((0, 1), moduli)
    P = GradedMatrix(alg, [gx], [gy], [[alg.parse("X*y")]])
    Q = GradedMatrix(alg, [gy], [gx], [[alg.parse("Y*x")]])
    assert invertible_pair(P, Q)
    rows = rank_profile(P.row_grades, alg.factor)
    cols = rank_profile(P.col_grades, alg.factor)
    assert rows != cols
    assert str(rows) == "{(1,0):1} (even 1 | odd 0, total 1)"
    assert str(cols) == "{(0,1):1} (even 1 | odd 0, total 1)"
    assert not ibn_probe(P, Q).ok


def test_criterion_10_oscillator_table():
    exp = DeformationExpansion(build_noa("c", 2))
    report = oscillator_table(exp)
    assert report.pattern_ok
    assert report.c in UNIT_CONSTANTS
    assert report.c_prime in UNIT_CONSTANTS
    sets = {i: oscillator_set(exp.classical, i) for i in (1, 2)}
    one = Element.one()
    zero = Element.zero()
    for i in (1, 2):
        for j in (1, 2):
            delta = i == j
            assert report.entries[("p", "p", i, j)] == zero
            assert report.entries[("q", "q", i, j)] == zero
            assert report.entries[("p", "q", i, j)] == (
                one * report.c if delta else zero
            )
            assert report.entries[("H", "p", i, j)] == (
                sets[j].q * report.c_prime if delta else zero
            )
            assert report.entries[("H", "q", i, j)] == (
                sets[j].p * -report.c_prime if delta else zero
            )


def test_criterion_11_runtime():
    elapsed = time.monotonic() - conftest.SESSION_T0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
