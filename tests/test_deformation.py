"""Order-by-order expansion of the quantum product in the parameter."""
import itertools

import pytest

from epsalg import (
    DeformationExpansion,
    Element,
    H,
    I,
    check_deformation_identity,
    classical_limit,
    build_noa,
    with_h,
)

FAMILIES = ["a", "a'", "b", "b'", "c", "c'"]


def test_rejects_classical_input():
    with pytest.raises(ValueError, match="no parameter left"):
        DeformationExpansion(classical_limit(build_noa("c", 1)))


def test_rejects_a_parameter_with_a_constant_term():
    for h in (2, H + 2):
        with pytest.raises(ValueError, match="non-zero constant term"):
            DeformationExpansion(with_h(build_noa("c", 1), h))
    assert DeformationExpansion(with_h(build_noa("c", 1), H * 2)).quantum.h == H * 2


def test_requires_h_free_arguments():
    exp = DeformationExpansion(build_noa("c", 1))
    x = exp.classical.parse("a1")
    with pytest.raises(ValueError, match="over the base field"):
        exp.mu(x * H, x)
    with pytest.raises(ValueError, match="over the base field"):
        exp.mu(x, x * H)


@pytest.mark.parametrize("family", FAMILIES)
def test_shared_basis(family):
    exp = DeformationExpansion(build_noa(family, 2))
    assert exp.quantum.basis(3) == exp.classical.basis(3)


def test_order_zero_is_the_classical_product():
    exp = DeformationExpansion(build_noa("c", 2))
    words = exp.classical.basis(2)
    for wx, wy in itertools.product(words, repeat=2):
        x, y = Element.from_word(wx), Element.from_word(wy)
        assert exp.mu_n(x, y, 0) == exp.classical.normalize(x * y)


def test_first_order_frozen_values():
    exp = DeformationExpansion(build_noa("c", 2))
    a1, ad1, ad2 = (exp.classical.parse(t) for t in ("a1", "ad1", "ad2"))
    assert exp.mu_n(a1, ad1, 1) == Element.one()
    assert exp.mu_n(ad1, a1, 1) == Element.zero()
    assert exp.mu_n(ad1, ad2, 1) == Element.zero()
    # two commutations pick up h twice, never h^1
    assert exp.mu_n(a1 * a1, ad1 * ad1, 1) == exp.classical.parse("4*ad1*a1")
    assert exp.mu_n(a1 * a1, ad1 * ad1, 2) == Element.one() * 2


def test_fermion_first_order():
    exp = DeformationExpansion(build_noa("a", 1))
    a1, ad1 = exp.classical.parse("a1"), exp.classical.parse("ad1")
    assert exp.mu_n(a1, ad1, 1) == Element.one()
    assert exp.mu_n(ad1, a1, 1) == Element.zero()


def test_h_degree_is_bounded_by_word_length():
    exp = DeformationExpansion(build_noa("c", 1))
    a, ad = exp.classical.parse("a1"), exp.classical.parse("ad1")
    prod = exp.mu(a * a * a, ad * ad * ad)
    assert prod.h_degree() == 3
    assert exp.mu_n(a * a * a, ad * ad * ad, 4) == Element.zero()


@pytest.mark.parametrize("family", FAMILIES)
def test_associativity_identities(family):
    exp = DeformationExpansion(build_noa(family, 2))
    words = [w for w in exp.classical.basis(2) if len(w) == 2][:4]
    triples = list(itertools.product(words, repeat=3))[:20]
    for wx, wy, wz in triples:
        x, y, z = (Element.from_word(w) for w in (wx, wy, wz))
        for order in range(4):
            res = check_deformation_identity(exp, x, y, z, order)
            assert res.is_zero(), (family, wx, wy, wz, order)


def test_with_h_pins_a_tau_fixed_parameter():
    exp = DeformationExpansion(build_noa("a", 1))
    alg = with_h(exp.quantum, 2)
    assert str(alg.normalize(alg.parse("a1*ad1"))) == "-ad1*a1 + 2"
    with pytest.raises(ValueError, match="not tau-fixed"):
        with_h(exp.quantum, I)


def test_mu_against_direct_normalization():
    exp = DeformationExpansion(build_noa("b", 2))
    x, y = exp.classical.parse("a1*ad2"), exp.classical.parse("ad2*a1")
    total = Element.zero()
    full = exp.mu(x, y)
    for k in range(full.h_degree() + 1):
        total = total + Element.scalar(H) ** k * exp.mu_n(x, y, k)
    assert exp.quantum.normalize(total) == full


def test_shared_basis_is_proved_from_left_sides(monkeypatch):
    # Pretend the h = 0 limit of fermion:n=1 is the boson one: it keeps the
    # generators but drops the square rules, so the two bases differ.
    import epsalg.deformation as deformation

    monkeypatch.setattr(deformation, "classical_limit", lambda alg: build_noa("c", 1, 0))
    with pytest.raises(ValueError, match="irreducible words disagree"):
        DeformationExpansion(build_noa("a", 1))
