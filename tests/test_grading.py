"""Grades, commutation factors, parity, and the factor axiom verifier."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsalg import (
    CommutationFactor,
    Grade,
    I,
    MINUS_ONE,
    ONE,
    R2,
    Scalar,
    counterexample_factor,
    eps_a,
    eps_a_prime,
    eps_c,
    eps_c_prime,
    eps_q,
    verify_factor_axioms,
)

coords3 = st.tuples(*[st.integers(-4, 4)] * 3)
grades3 = coords3.map(Grade)


def grid(n):
    span = (-2, -1, 0, 1, 2) if n <= 2 else (-1, 0, 1)
    return [Grade(c) for c in itertools.product(span, repeat=n)]


def test_grade_arithmetic():
    g = Grade((1, -2))
    k = Grade((0, 3))
    assert (g + k).coords == (1, 1)
    assert (g - k).coords == (1, -5)
    assert (-g).coords == (-1, 2)
    assert Grade.zero(2).coords == (0, 0)
    assert Grade.unit(2, 2).coords == (0, 1)
    assert Grade.unit(1, 3).coords == (1, 0, 0)


def test_grade_moduli_reduction():
    g = Grade((3, -1), (2, 2))
    assert g.coords == (1, 1)
    assert (g + g).coords == (0, 0)


def test_grade_moduli_mismatch_rejected():
    with pytest.raises(ValueError):
        Grade((1, 0), (2, 2)) + Grade((1, 0))


def test_unit_index_and_factor_size_are_checked():
    for i in (0, 3):
        with pytest.raises(ValueError, match=rf"^unit index {i} out of range 1\.\.2$"):
            Grade.unit(i, 2)
    with pytest.raises(ValueError, match="^grade dimension 1x2 does not match form of size 2$"):
        eps_c(2).exponent(Grade((1,)), Grade((1, 0)))


@given(grades3, grades3, grades3)
def test_preset_factor_axioms_pointwise(g, k, l):
    for factor in (eps_a(3), eps_a_prime(3), eps_c(3), eps_c_prime(3)):
        assert factor.eval(g, k) * factor.eval(k, g) == ONE
        assert factor.eval(g + k, l) == factor.eval(g, l) * factor.eval(k, l)
        assert factor.eval(l, g + k) == factor.eval(l, g) * factor.eval(l, k)


def test_factor_values_frozen():
    # one mode, one particle: the four families differ exactly in which
    # cross products pick up a sign
    p1, p2 = Grade((1, 0)), Grade((0, 1))
    assert eps_a(2).eval(p1, p1) == MINUS_ONE
    assert eps_a(2).eval(p1, p2) == MINUS_ONE
    assert eps_a_prime(2).eval(p1, p1) == MINUS_ONE
    assert eps_a_prime(2).eval(p1, p2) == ONE
    assert eps_c(2).eval(p1, p1) == ONE
    assert eps_c(2).eval(p1, p2) == ONE
    assert eps_c_prime(2).eval(p1, p1) == ONE
    assert eps_c_prime(2).eval(p1, p2) == MINUS_ONE


def test_parity_split():
    p1 = Grade((1, 0))
    assert eps_a(2).parity(p1) == 1
    assert eps_a_prime(2).parity(p1) == 1
    assert eps_c(2).parity(p1) == 0
    assert eps_c_prime(2).parity(p1) == 0
    # parity is additive: odd + odd = even under eps_a
    assert eps_a(2).parity(Grade((1, 1))) == 0


def test_parity_rejects_non_sign_values():
    # a symmetric form over base 2 gives eps(g,g) = 2, which has no parity
    factor = CommutationFactor(Scalar.of(2), ((1, 0), (0, 1)), label="no-parity")
    with pytest.raises(ValueError):
        factor.parity(Grade((1, 0)))


def test_eps_q_frozen_values():
    # paper formula q^(l*m - k*n) on grade pairs (k,l), (m,n)
    factor = eps_q(Scalar.of(2))
    assert factor.eval(Grade((1, 0)), Grade((0, 1))) == Scalar.of(2).inverse()
    assert factor.eval(Grade((0, 1)), Grade((1, 0))) == Scalar.of(2)
    assert factor.eval(Grade((1, 1)), Grade((1, 1))) == ONE


def test_eps_q_rejects_zero_base():
    with pytest.raises(ValueError):
        eps_q(Scalar.of(0))


def test_preset_verifier_finds_nothing():
    for factor, n in (
        (eps_a(2), 2),
        (eps_a_prime(3), 3),
        (eps_c(2), 2),
        (eps_c_prime(3), 3),
        (eps_q(Scalar.of(2)), 2),
        (counterexample_factor(), 2),
    ):
        assert verify_factor_axioms(factor, grid(n)) == []


def test_verifier_catches_broken_axiom_one():
    # base 2 with a symmetric form: eval(g,k)*eval(k,g) = 4 != 1
    bad = CommutationFactor(Scalar.of(2), ((1, 0), (0, 1)), label="bad")
    violations = verify_factor_axioms(bad, [Grade((1, 0)), Grade((0, 1))])
    assert violations


def test_verifier_catches_moduli_unsoundness():
    # base -1 over Z/3 x Z/3: shifting a coordinate by 3 flips the sign
    bad = CommutationFactor(MINUS_ONE, ((1, 0), (0, 0)), label="bad-mod")
    grid = [Grade(c, (3, 3)) for c in itertools.product(range(3), repeat=2)]
    assert verify_factor_axioms(bad, grid)


def test_moduli_violations_list_both_orders_of_each_entry():
    # base I has order 4: for each j with modulus m, and each k, B[j][k] and
    # then B[k][j] give a line when m times the entry is not a multiple of 4
    bad = CommutationFactor(I, ((1, 2), (3, 0)), label="bad-mod")
    assert bad.moduli_violations((2, 3)) == [
        "base^(2*B[0][0]) = base^2 != 1",
        "base^(2*B[0][0]) = base^2 != 1",
        "base^(2*B[1][0]) = base^6 != 1",
        "base^(3*B[1][0]) = base^9 != 1",
        "base^(3*B[0][1]) = base^6 != 1",
    ]
    assert bad.moduli_violations((0, 4)) == []


def test_counterexample_factor_is_all_even():
    factor = counterexample_factor()
    for c in itertools.product((0, 1), repeat=2):
        assert factor.parity(Grade(c, (2, 2))) == 0


def sampled_factor_violations(factor: CommutationFactor, samples) -> list:
    """Check both factor axioms, parity additivity, and quotient soundness.

    Exhaustive over the given samples: axiom (1) on all ordered pairs,
    bi-additivity on all triples drawn from the sample list (capped to keep
    the check polynomial at desk scale).  Returns human-readable violations;
    an empty list certifies the axioms at sample scale.
    """
    samples = list(samples)
    violations = []
    seen_moduli = {g.moduli for g in samples}
    for moduli in seen_moduli:
        violations.extend(factor.moduli_violations(moduli))
    for g, k in itertools.product(samples, repeat=2):
        if g.moduli != k.moduli:
            continue
        if factor.eval(g, k) * factor.eval(k, g) != ONE:
            violations.append(f"eps({g},{k})*eps({k},{g}) != 1")
    parities = {}
    for g in samples:
        try:
            parities[g] = factor.parity(g)
        except ValueError as err:
            violations.append(str(err))
    cap = samples[: min(len(samples), 12)]
    for g, gp, k in itertools.product(cap, repeat=3):
        if not (g.moduli == gp.moduli == k.moduli):
            continue
        if factor.eval(g + gp, k) != factor.eval(g, k) * factor.eval(gp, k):
            violations.append(f"eps({g}+{gp},{k}) != eps({g},{k})*eps({gp},{k})")
        if factor.eval(k, g + gp) != factor.eval(k, g) * factor.eval(k, gp):
            violations.append(f"eps({k},{g}+{gp}) != eps({k},{g})*eps({k},{gp})")
    for g, k in itertools.product(cap, repeat=2):
        if g.moduli != k.moduli or g not in parities or k not in parities:
            continue
        s = g + k
        try:
            ps = factor.parity(s)
        except ValueError as err:
            violations.append(str(err))
            continue
        if ps != (parities[g] + parities[k]) % 2:
            violations.append(f"parity({g}+{k}) != parity({g})+parity({k}) mod 2")
    return violations


# Orders 1, 2, 4, 4, 8 and infinite: every order an element of Q(i, sqrt2)
# can have, since its roots of unity are the 8th roots.
BASES = (ONE, MINUS_ONE, I, -I, (ONE + I) / R2, Scalar.of(2))


@st.composite
def factors_with_moduli(draw):
    n = draw(st.integers(1, 2))
    entries = st.integers(-2, 2)
    form = draw(st.tuples(*[st.tuples(*[entries] * n)] * n))
    moduli = draw(st.tuples(*[st.sampled_from((0, 2, 4))] * n))
    return CommutationFactor(draw(st.sampled_from(BASES)), form), moduli


@settings(max_examples=12, deadline=None)
@given(factors_with_moduli())
def test_closed_form_agrees_with_sampled_oracle(case):
    # The 0/1 cube holds the unit grades and their sums, where a bilinear law
    # first fails; larger grids only make the oracle slower.
    factor, moduli = case
    cube = [Grade(c, moduli) for c in itertools.product((0, 1), repeat=factor.dim)]
    assert (verify_factor_axioms(factor, cube) == []) == (
        sampled_factor_violations(factor, cube) == []
    )


def test_label_takes_no_part_in_equality():
    bare = CommutationFactor(MINUS_ONE, eps_c_prime(2).form)
    assert eps_c_prime(2) == bare
    assert hash(eps_c_prime(2)) == hash(bare)


def test_eval_holds_each_distinct_value_once():
    factor = eps_c_prime(3)
    box = [Grade(c) for c in itertools.product(range(-2, 3), repeat=3)]
    values = [factor.eval(g, k) for g in box for k in box]
    assert set(values) == {ONE, MINUS_ONE}
    assert len({id(v) for v in values}) == 2


def test_integer_inputs_are_read_as_ints_not_converted():
    """A float or a string is refused, not truncated or parsed; a bool is 0 or 1."""
    probes = (
        lambda: Grade.unit(1.5, 2),
        lambda: Grade.unit(2.0, 2),
        lambda: CommutationFactor(MINUS_ONE, ((0.7,),)),
        lambda: CommutationFactor(MINUS_ONE, (("1",),)),
    )
    for probe in probes:
        with pytest.raises(TypeError):
            probe()
    assert Grade.unit(True, 2) is Grade.unit(1, 2) is Grade((1, 0))
    assert [Grade.unit(i, 3).coords for i in (1, 2, 3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    form = CommutationFactor(MINUS_ONE, ((True, False), (0, -2))).form
    assert form == ((1, 0), (0, -2)) and all(type(x) is int for row in form for x in row)
    assert eps_a(3).form == ((1, 1, 1),) * 3
    assert eps_a_prime(3).form == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert eps_c(3).form == ((0, 0, 0),) * 3
    assert eps_c_prime(3).form == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
