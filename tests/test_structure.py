"""Anti-involution, mode permutations, rescalings, number operators."""
import pytest

from epsalg import (
    Algebra,
    Element,
    H,
    HPoly,
    I,
    ReductionSystem,
    RescalingMap,
    Rule,
    Scalar,
    Word,
    apply_J,
    apply_phi,
    apply_sigma,
    build_noa,
    build_quantum_plane,
    number_operator_check,
    number_operator_element,
    parse_preset,
    rescale,
    verify_J_well_defined,
    verify_rescaling,
    verify_sigma,
    with_h,
)

FAMILIES = ["a", "a'", "b", "b'", "c", "c'"]


def _algebra(base: Algebra, involution=None, diagonal=()) -> Algebra:
    """An algebra on base's generators, factor, h and parameters.

    It takes base's rules, except that the diagonal rule a_i*ad_i of each
    mode i in the dict `diagonal` becomes ad_i*a_i + diagonal[i].  Its callers
    pass bosons, which stay confluent under any diagonal constant, so the
    algebra certifies; what is wrong in it is its J or its constants against h.
    """
    rules = []
    for rule in base.system.rules:
        a, ad = rule.lhs.letters
        if (a.name, ad.name) == ("a", "ad") and a.index == ad.index and a.index in diagonal:
            rhs = Element.from_word(Word((ad, a))) + Element.scalar(diagonal[a.index])
            rule = Rule(rule.lhs, rhs)
        rules.append(rule)
    system = ReductionSystem(base.generators, rules)
    return Algebra("broken", base.family, system, base.factor, base.h, involution, base.params)


# -------------------------------------------------------------------------- J


@pytest.mark.parametrize("family", FAMILIES)
def test_J_well_defined(family):
    assert verify_J_well_defined(build_noa(family, 2)) == []


def test_an_involution_that_does_not_square_to_one_is_named():
    base = build_noa("c", 1)
    ad, a = base.gen("ad1"), base.gen("a1")
    assert "J(J(ad1)) = a1 != ad1" in verify_J_well_defined(_algebra(base, {ad: a, a: a}))


def test_J_reverses_and_swaps():
    alg = build_noa("c", 2)
    x = alg.parse("ad1*a2*ad2")
    assert apply_J(alg, x) == alg.parse("a2*ad2*a1")


def test_J_is_antilinear():
    alg = build_noa("a", 1)
    x = alg.parse("ad1*a1")
    lam = Scalar(1, 2, 3, 4)
    assert apply_J(alg, x * lam) == apply_J(alg, x) * lam.tau()
    # h itself is tau-fixed
    assert apply_J(alg, x * H) == apply_J(alg, x) * H


def test_J_squares_to_identity_on_samples():
    alg = build_noa("b", 2)
    for text in ["a1", "ad2*a1", "a1*ad1*a2", "ad1*ad2"]:
        x = alg.parse(text)
        assert apply_J(alg, apply_J(alg, x)) == x


def test_J_is_antimultiplicative():
    alg = build_noa("c", 2)
    x, y = alg.parse("ad1*a2"), alg.parse("a1 + ad2")
    assert apply_J(alg, x * y) == apply_J(alg, y) * apply_J(alg, x)


def test_J_lists_each_relation_it_does_not_kill():
    boson = parse_preset("boson:n=1")
    alg = _algebra(boson, involution={g: g for g in boson.generators})
    assert verify_J_well_defined(alg) == ["J(-ad1*a1 + a1*ad1 - h) normalizes to -2*h, not 0"]


def test_J_needs_an_involution():
    with pytest.raises(ValueError, match="no anti-involution"):
        apply_J(build_quantum_plane(2), Element.one())


# ------------------------------------------------------------------ sigma


@pytest.mark.parametrize("family", FAMILIES)
def test_sigma_preserves_relations(family):
    alg = build_noa(family, 3)
    assert verify_sigma(alg, (2, 3, 1)) == []
    assert verify_sigma(alg, {1: 2, 2: 1, 3: 3}) == []


def test_sigma_lists_each_relation_it_does_not_keep():
    alg = _algebra(parse_preset("boson:n=2"), diagonal={2: H * 2})
    assert verify_sigma(alg, (2, 1)) == [
        "sigma(-ad1*a1 + a1*ad1 - h) normalizes to h, not 0",
        "sigma(-ad2*a2 + a2*ad2 - 2*h) normalizes to -h, not 0",
    ]
    assert verify_sigma(alg, (1, 2)) == []


def test_sigma_relabels():
    alg = build_noa("c", 3)
    x = alg.parse("ad1*a2")
    assert apply_sigma(alg, (2, 3, 1), x) == alg.parse("ad2*a3")


def test_sigma_rejects_bad_input():
    alg = build_noa("c", 2)
    with pytest.raises(ValueError, match="not a permutation"):
        apply_sigma(alg, (1, 1), Element.one())
    with pytest.raises(ValueError, match="not a permutation"):
        apply_sigma(alg, (1, 2, 3), Element.one())
    with pytest.raises(ValueError, match="no indexed modes"):
        apply_sigma(build_quantum_plane(2), (1,), Element.one())


# -------------------------------------------------------------- rescalings


def test_rescale_one_plus_i():
    m = rescale(build_noa("c", 1), Scalar(1, 1, 0, 0))
    assert m.norm == Scalar.of(2)
    assert m.target.h * 2 == m.source.h
    assert verify_rescaling(m) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_rescale_all_families(family):
    source = with_h(build_noa(family, 2), H * 2)
    m = RescalingMap(Scalar(1, 1, 0, 0), source, build_noa(family, 2))
    assert verify_rescaling(m) == []


def test_phi_scales_letters():
    lam = Scalar(0, 0, 1, 0)  # norm 2
    m = rescale(build_noa("c", 1), lam)
    a, ad = m.source.parse("a1"), m.source.parse("ad1")
    assert apply_phi(m, a) == a * lam
    assert apply_phi(m, ad) == ad * lam.tau()
    assert apply_phi(m, a * ad) == (a * ad) * 2


def test_rescaling_map_rejects():
    c1 = build_noa("c", 1)
    with pytest.raises(ValueError, match="must be invertible"):
        RescalingMap(Scalar.of(0), c1, c1)
    with pytest.raises(ValueError, match="one family and size"):
        RescalingMap(Scalar.of(1), c1, build_noa("c", 2))
    with pytest.raises(ValueError, match="one family and size"):
        RescalingMap(Scalar.of(1), c1, build_noa("a", 1))
    with pytest.raises(ValueError, match="rescaling undefined"):
        RescalingMap(Scalar(1, 1, 0, 0), c1, c1)


def test_rescale_refuses_zero_before_dividing_by_its_norm():
    for lam in (0, Scalar(0)):
        with pytest.raises(ValueError, match="^rescaling parameter must be invertible$"):
            rescale(build_noa("c", 1), lam)


def test_rescaling_lists_each_relation_the_target_does_not_kill():
    source = with_h(parse_preset("boson:n=1"), H * 2)
    target = _algebra(parse_preset("boson:n=1"), diagonal={1: H * 2})
    assert target.h == H
    m = RescalingMap(Scalar(1, 1, 0, 0), source, target)
    assert verify_rescaling(m) == [
        "phi(-ad1*a1 + a1*ad1 - 2*h) normalizes to 2*h, not 0 in target"
    ]


def test_rescale_by_norm_one_unit_is_an_automorphism():
    m = rescale(build_noa("c", 1), I)
    assert m.target is m.source
    assert verify_rescaling(m) == []


# --------------------------------------------------------- number operators


def test_number_operator_shapes():
    assert str(number_operator_element(build_noa("a", 1), 1)) == "ad1*a1"
    assert str(number_operator_element(build_noa("c", 2), 2)) == "ad2*a2"
    # the mirrored family needs the mirrored representative
    assert str(number_operator_element(build_noa("b'", 1), 1)) == "-a1*ad1 + h"


@pytest.mark.parametrize("family", FAMILIES)
def test_number_operator_commutators(family):
    alg = build_noa(family, 2)
    for i in (1, 2):
        for j in (1, 2):
            assert number_operator_check(alg, i, j) == []


def test_number_operator_trivial_classically():
    # at h = 0 both sides of the commutator identity vanish
    alg = build_noa("c", 1, 0)
    assert number_operator_check(alg, 1, 1) == []


def test_the_mirrored_representative_fails_on_boson_rules():
    # the b' representative h - a_i ad_i, on rules where a_i ad_i = ad_i a_i + h
    base = build_noa("c", 1)
    alg = Algebra("boson rules as b'", "b'", base.system, base.factor, base.h,
                  base.involution, base.params)
    assert number_operator_check(alg, 1, 1) == [
        "[hN_1, ad1] residual -2*h*ad1 (expected h*ad1)",
        "[hN_1, a1] residual 2*h*a1 (expected -h*a1)",
    ]
