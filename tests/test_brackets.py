"""Commutators, Poisson brackets, their axioms, and the oscillator table."""
import itertools

import pytest

from epsalg import (
    BracketContext,
    DeformationExpansion,
    Element,
    Generator,
    Grade,
    H,
    H_ZERO,
    I,
    Algebra,
    ReductionSystem,
    Scalar,
    build_noa,
    commutator,
    eps_c,
    eps_q,
    epsilon_commutator,
    oscillator_set,
    oscillator_table,
    poisson_bracket,
    sample_homogeneous,
    sample_triples,
    verify_lie_axioms,
    verify_poisson_axioms,
)
from epsalg.brackets import _lie_residuals

FAMILIES = ["a", "a'", "b", "b'", "c", "c'"]


def _words(alg, max_len):
    return [Element.from_word(w) for w in alg.basis(max_len)]


# ---------------------------------------------------------------- commutator


def test_commutator_values():
    ctx = BracketContext.quantum(build_noa("c", 1))
    a, ad = ctx.algebra.parse("a1"), ctx.algebra.parse("ad1")
    assert str(commutator(ctx, a, ad)) == "h"
    assert str(epsilon_commutator(ctx, a, ad)) == "h"
    fctx = BracketContext.quantum(build_noa("a", 1))
    fa, fad = fctx.algebra.parse("a1"), fctx.algebra.parse("ad1")
    # odd times odd: the epsilon-commutator is the anticommutator
    assert str(epsilon_commutator(fctx, fa, fad)) == "h"
    assert str(commutator(fctx, fa, fad)) == "-2*ad1*a1 + h"


def test_epsilon_commutator_is_bilinear_on_components():
    ctx = BracketContext.quantum(build_noa("a", 2))
    alg = ctx.algebra
    x = alg.parse("a1 + ad2*a1*a2")
    y = alg.parse("ad1")
    split = Element.zero()
    for part in alg.components(x).values():
        split = split + epsilon_commutator(ctx, part, y)
    assert epsilon_commutator(ctx, x, y) == alg.normalize(split)


def _central(ctx, x):
    """x epsilon-commutes with every generator."""
    return all(epsilon_commutator(ctx, x, Element.from_word(g)).is_zero()
               for g in ctx.algebra.generators)


def test_center_membership():
    quantum = BracketContext.quantum(build_noa("c", 1))
    assert _central(quantum, Element.one())
    assert _central(quantum, Element.scalar(H))
    assert not _central(quantum, quantum.algebra.parse("a1"))
    assert not _central(quantum, quantum.algebra.parse("ad1*a1"))
    # the classical limit is epsilon-commutative, so everything is central
    classical = BracketContext.classical(DeformationExpansion(build_noa("c", 1)))
    assert _central(classical, classical.algebra.parse("ad1*a1"))


@pytest.mark.parametrize("family", ["a", "a'", "c", "c'"])
def test_classical_limits_are_epsilon_commutative(family):
    exp = DeformationExpansion(build_noa(family, 2))
    ctx = BracketContext.quantum(exp.classical)
    words = _words(exp.classical, 2)
    for x, y in itertools.product(words, repeat=2):
        assert epsilon_commutator(ctx, x, y).is_zero()


def test_exclusion_limits_are_not_epsilon_commutative():
    # the summed relation survives at h = 0, so these limits stay noncommutative
    for family in ("b", "b'"):
        exp = DeformationExpansion(build_noa(family, 2))
        ctx = BracketContext.quantum(exp.classical)
        words = _words(exp.classical, 1)
        assert any(
            not epsilon_commutator(ctx, x, y).is_zero()
            for x, y in itertools.product(words, repeat=2)
        )


# -------------------------------------------------------------------- axioms


@pytest.mark.parametrize("family", FAMILIES)
def test_lie_axioms_on_random_triples(family):
    alg = build_noa(family, 2)
    ctx = BracketContext.quantum(alg)
    triples = sample_triples(alg, 8, seed=11, max_len=2)
    assert verify_lie_axioms(ctx, triples) == []


def test_antisymmetry_weighs_the_swap_by_eps_x_y():
    # The law is [x,y] + eps(x,y)[y,x] = 0.  With eps taking the values +-1
    # eps(x,y) = eps(y,x), so only a factor beyond the signs tells the two
    # weights apart: on the free algebra with eps_q(2), eps(x,y) = 2 = 1/eps(y,x).
    x = Generator("x", None, Grade((0, 1)))
    y = Generator("y", None, Grade((1, 0)))
    alg = Algebra("free", "free", ReductionSystem((y, x), ()), eps_q(2), H_ZERO)
    ctx = BracketContext.quantum(alg)
    X, Y = Element.from_word(x), Element.from_word(y)
    assert verify_lie_axioms(ctx, [(X, Y, X)]) == []
    anti, _, _ = _lie_residuals(ctx, commutator, X, Y, X)
    assert not anti.is_zero()


@pytest.mark.parametrize("family", ["a", "a'", "c", "c'"])
def test_poisson_axioms_on_random_triples(family):
    exp = DeformationExpansion(build_noa(family, 2))
    ctx = BracketContext.classical(exp)
    triples = sample_triples(exp.classical, 6, seed=7, max_len=2)
    assert verify_poisson_axioms(ctx, triples) == []


def test_exclusion_limits_break_leibniz():
    exp = DeformationExpansion(build_noa("b", 2))
    ctx = BracketContext.classical(exp)
    triples = sample_triples(exp.classical, 40, seed=5, max_len=2)
    bad = verify_poisson_axioms(ctx, triples)
    assert bad and all("Leibniz" in line for line in bad)


def test_wrong_factor_breaks_leibniz():
    # the trivial factor turns the fermionic bracket into one that is still
    # a Lie bracket but no longer a derivation in its second slot
    exp = DeformationExpansion(build_noa("a", 1))
    ctx = BracketContext.classical(exp, factor=eps_c(1))
    a1, ad1 = exp.classical.parse("a1"), exp.classical.parse("ad1")
    assert verify_poisson_axioms(ctx, [(a1, a1, ad1)]) != []
    good = BracketContext.classical(exp)
    assert verify_poisson_axioms(good, [(a1, a1, ad1)]) == []


def test_poisson_needs_expansion():
    ctx = BracketContext.quantum(build_noa("c", 1))
    with pytest.raises(ValueError, match="needs a deformation expansion"):
        poisson_bracket(ctx, Element.one(), Element.one())


# ------------------------------------------------------- first order matches


@pytest.mark.parametrize("family", ["a", "c"])
def test_first_order_of_commutator_is_poisson(family):
    quantum = build_noa(family, 1)
    exp = DeformationExpansion(quantum)
    qctx = BracketContext.quantum(quantum)
    cctx = BracketContext.classical(exp)
    words = _words(exp.classical, 2)
    for x, y in itertools.product(words, repeat=2):
        lhs = epsilon_commutator(qctx, x, y).h_coefficient(1)
        assert lhs == poisson_bracket(cctx, x, y)


# ------------------------------------------------------------------ sampling


def test_sampling_is_seeded_and_homogeneous():
    alg = build_noa("b", 2)
    t1 = sample_triples(alg, 5, seed=3)
    t2 = sample_triples(alg, 5, seed=3)
    assert t1 == t2
    assert t1 != sample_triples(alg, 5, seed=4)
    for triple in t1:
        for x in triple:
            assert not x.is_zero()
            assert alg.grade_of(x) is not None


# --------------------------------------------------------------- oscillators


def test_oscillator_set_shape():
    alg = build_noa("c", 1)
    osc = oscillator_set(alg, 1)
    a, ad = alg.parse("a1"), alg.parse("ad1")
    # p carries 1/sqrt2, q carries 1/(i sqrt2)
    assert osc.p * Scalar(0, 0, 1, 0) == a + ad
    assert osc.q * Scalar(0, 0, 0, 1) == ad - a
    assert str(osc.energy) == "ad1*a1"


def test_oscillator_table_boson():
    report = oscillator_table(DeformationExpansion(build_noa("c", 2)))
    assert report.pattern_ok
    assert report.c == -I
    assert report.c_prime == I
    assert report.constants_are_units()
    assert report.entries[("p", "p", 1, 2)].is_zero()
    assert report.entries[("p", "q", 1, 2)].is_zero()
    assert report.entries[("p", "q", 1, 1)] == Element.one() * -I
    assert any("componentwise" in note for note in report.notes)


def test_oscillator_table_fermion_degenerates():
    report = oscillator_table(DeformationExpansion(build_noa("a", 1)))
    assert not report.pattern_ok
    # {p_1, p_1} collapses to a constant instead of vanishing
    assert not report.entries[("p", "p", 1, 1)].is_zero()
