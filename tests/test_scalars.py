"""Field arithmetic over Q(i, sqrt2) and polynomials in h.

Products are cross-checked against sympy's exact arithmetic as an
independent oracle; the axioms run as hypothesis properties.
"""
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsalg import H, H_ONE, H_ZERO, HALF, I, MINUS_ONE, ONE, R2, ZERO, Element, HPoly, Scalar
from epsalg import Word, parse_preset, scalar_from_text
from epsalg.presets import PRESETS
from epsalg.scalars import _SIGNS, _ZERO_N, H_MINUS_ONE, _convolve, _render, join_signed
from test_scalar_canonical import assert_flat
from value_strategies import HPOLYS, SCALARS, UNITS, bounded_fractions, hpolys_of, scalars_of
from value_strategies import specials

fracs = bounded_fractions(4, 6)
scalars = scalars_of(fracs)
nonzero_scalars = scalars.filter(bool)


def to_sympy(s: Scalar):
    i, r = sympy.I, sympy.sqrt(2)
    return (
        sympy.Rational(s.c0) + sympy.Rational(s.c1) * i
        + sympy.Rational(s.c2) * r + sympy.Rational(s.c3) * i * r
    )


def from_sympy(expr) -> Scalar:
    poly = sympy.Poly(sympy.expand(expr), sympy.I, sympy.sqrt(2))
    out = [Fraction(0)] * 4
    table = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    for monom, coeff in poly.terms():
        i_pow, r_pow = monom
        c = Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
        # fold i^2 -> -1 and (sqrt2)^2 -> 2 back into the four basis slots
        while i_pow >= 2:
            c, i_pow = -c, i_pow - 2
        while r_pow >= 2:
            c, r_pow = 2 * c, r_pow - 2
        out[table[(i_pow, r_pow)]] += c
    return Scalar(*out)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
@specials(SCALARS, SCALARS)
def test_mul_matches_sympy(a, b):
    assert a * b == from_sympy(to_sympy(a) * to_sympy(b))


@given(scalars, scalars, scalars)
@specials(SCALARS, SCALARS, SCALARS)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(nonzero_scalars)
@specials(UNITS)
def test_inverse(a):
    assert a * a.inverse() == ONE
    assert a.inverse().inverse() == a


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(scalars, scalars)
@specials(SCALARS, SCALARS)
def test_tau_is_an_automorphism(a, b):
    assert (a * b).tau() == a.tau() * b.tau()
    assert (a + b).tau() == a.tau() + b.tau()
    assert a.tau().tau() == a


def test_tau_fixed_subfield():
    assert R2.tau() == R2
    assert I.tau() == -I
    assert (I * R2).tau() == -I * R2
    assert Scalar(1, 0, 3, 0).tau() == Scalar(1, 0, 3, 0)
    assert Scalar(1, 1, 0, 0).tau() != Scalar(1, 1, 0, 0)
    # the norm lambda*tau(lambda) always lands in the fixed subfield
    lam = Scalar(1, 1, 0, 0)
    norm = lam * lam.tau()
    assert norm.tau() == norm


@given(scalars)
@specials(SCALARS)
def test_norm_is_tau_fixed(a):
    norm = a * a.tau()
    assert norm.tau() == norm


def test_defining_relations():
    assert Scalar(1, 1, 0, 0) * Scalar(1, -1, 0, 0) == Scalar.of(2)
    assert R2 * R2 == Scalar.of(2)
    assert I * I == -ONE
    assert HALF + HALF == ONE


@given(nonzero_scalars)
@specials(UNITS)
def test_powers(a):
    assert a**3 == a * a * a
    assert a**0 == ONE
    assert a**-2 == (a * a).inverse()


@given(scalars)
@specials(SCALARS)
def test_str_parse_roundtrip(a):
    assert scalar_from_text(str(a)) == a


def test_str_frozen_forms():
    assert str(Scalar(Fraction(1, 2), 3, 0, -1)) == "1/2 + 3*I - I*r2"
    assert str(Scalar(0, 0, -1, 0)) == "-r2"
    assert str(ZERO) == "0"
    assert str(Scalar(1, 1, 0, 0)) == "1 + I"


# ----------------------------------------------------------------- h-polys

hpolys = hpolys_of(scalars, 3)


def test_hpoly_frozen():
    assert str(H * H - 1) == "h^2 - 1"
    assert str(H * 2) == "2*h"
    assert str(H_ZERO) == "0"
    assert (H + 1) * (H - 1) == H * H - 1


def test_hpoly_trims_trailing_zeros():
    assert HPoly((ONE, ZERO)) == HPoly((ONE,))
    assert HPoly((ZERO, ZERO)).degree == -1
    assert (H - H).is_constant()


@given(hpolys, hpolys, hpolys)
@specials(HPOLYS, HPOLYS, HPOLYS)
def test_hpoly_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + H_ZERO == a
    assert a * H_ONE == a


@given(hpolys, hpolys)
@specials(HPOLYS, HPOLYS)
def test_hpoly_degree_and_tau(a, b):
    if a and b:
        assert (a * b).degree == a.degree + b.degree
    assert (a * b).tau() == a.tau() * b.tau()
    assert a.tau().tau() == a


@given(hpolys, nonzero_scalars)
@specials(HPOLYS, UNITS)
def test_hpoly_division_by_constant(a, s):
    assert (a / s) * s == a


def test_hpoly_division_by_nonconstant_rejected():
    with pytest.raises(ValueError):
        (H * H) / H


def test_product_prefixes():
    assert H_ONE.as_product_prefix() == ""
    assert (-H_ONE).as_product_prefix() == "-"
    assert (H * 2).as_product_prefix() == "2*h*"
    assert (H + 1).as_product_prefix() == "(h + 1)*"


# ------------------------------------------- the recursive renderer as an oracle
#
# HPoly rendering as it was before a one-numerator coefficient was read off
# its integers, kept word for word: `as_product_prefix` rendered the whole
# polynomial through `str` and `_prefix` bracketed it unless one numerator
# was nonzero.  The old `_prefix` formatted the HPoly itself; here it gets
# the old `__str__` of it, which is the same text.


def _old_prefix(n: tuple, d: int, x) -> str:
    if n == (d, 0, 0, 0):
        return ""
    if n == (-d, 0, 0, 0):
        return "-"
    return f"{x}*" if sum(1 for v in n if v) == 1 else f"({x})*"


def _old_str(self) -> str:
    n, d = self.n, self.d
    parts = []
    for k in range(len(n) - 4, -1, -4):
        c = n[k:k + 4]
        if c != _ZERO_N:
            text = _render(c, d)
            power = "h" if k == 4 else f"h^{k // 4}"
            parts.append(_old_prefix(c, d, text) + power if k else text)
    return join_signed(parts) if parts else "0"


def _old_as_product_prefix(self) -> str:
    return _old_prefix(self.n, self.d, _old_str(self))


def _old_element_str(x: Element) -> str:
    """`Element.__str__` over the old HPoly rendering."""
    if not x.terms:
        return "0"
    parts = []
    for word, coeff in x.sorted_terms():
        if word.is_empty():
            text = _old_str(coeff)
            if coeff.term_count() > 1:
                text = f"({text})"
            parts.append(text)
        else:
            parts.append(_old_as_product_prefix(coeff) + str(word))
    return join_signed(parts)


def _seeded_coordinate(rng) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.choice((1, 1, 2, 3, 9, 162, 10**12)),
                    rng.choice((1, 1, 2, 3, 7)))


def _seeded_scalar(rng, nonzero: int) -> Scalar:
    """A Scalar with `nonzero` of its four coordinates set."""
    cs = [Fraction(0)] * 4
    for k in rng.sample(range(4), nonzero):
        cs[k] = _seeded_coordinate(rng)
    return Scalar(*cs)


def _seeded_hpoly(rng) -> HPoly:
    """+-h^k, c*h^k (with denominators, each of 1, I, r2, I*r2 alone or
    mixed), polynomials over several degrees, constants or zero."""
    k = rng.randint(0, 4)
    kind = rng.choice(["sign", "one", "mixed", "poly", "constant", "zero"])
    if kind == "sign":
        return rng.choice((H_ONE, -H_ONE)) * H**k
    if kind == "one":
        return _seeded_scalar(rng, 1) * H**k
    if kind == "mixed":
        return _seeded_scalar(rng, rng.randint(2, 4)) * H**k
    if kind == "poly":
        return HPoly([_seeded_scalar(rng, rng.randint(0, 2)) for _ in range(rng.randint(2, 5))])
    if kind == "constant":
        return HPoly.of(_seeded_scalar(rng, rng.randint(1, 4)))
    return H_ZERO


_RENDER_SAMPLES = [H_ZERO, H_ONE, -H_ONE, H, -H, H**3, -(H**2), 9 * H, 162 * H**3, HALF * H,
                   I * H, -R2 * H**2, I * R2 / 3 * H, (1 + I) * H, H + 1, -H**2 + I, HPoly.of(I),
                   HPoly.of(-R2), HPoly.of(Fraction(-1, 2))]


def test_rendering_matches_the_recursive_renderer():
    rng = random.Random("renderer oracle")
    samples = _RENDER_SAMPLES + [_seeded_hpoly(rng) for _ in range(2000)]
    kinds = set()
    for p in samples:
        assert str(p) == _old_str(p), p.n
        assert p.as_product_prefix() == _old_as_product_prefix(p), p.n
        kinds.add((p.degree, sum(1 for v in p.n if v), p.d > 1))
    # every degree 0-4 with one nonzero numerator, with and without a denominator
    assert {(k, 1, d) for k in range(5) for d in (False, True)} <= kinds


@pytest.mark.parametrize("name", list(PRESETS))
def test_element_rendering_matches_the_recursive_renderer(name):
    alg = parse_preset(PRESETS[name][1])
    rng = random.Random(f"element renderer {name}")
    for _ in range(60):
        x = Element(
            (Word(rng.choice(alg.generators) for _ in range(rng.randint(0, 4))), _seeded_hpoly(rng))
            for _ in range(rng.randint(0, 4))
        )
        for y in (x, alg.normalize(x)):
            assert str(y) == _old_element_str(y)


# Zero coefficients and the constants 1 and -1 come up often here, so that
# the zero returns and the +-h^k shifts of HPoly.__mul__ are both hit.
sparse_coeffs = st.one_of(st.sampled_from([ZERO, ONE, MINUS_ONE]), scalars)
sparse_hpolys = st.one_of(
    st.sampled_from([H_ZERO, H_ONE, -H_ONE, H, -H]),
    st.lists(sparse_coeffs, max_size=4).map(lambda cs: HPoly(tuple(cs))),
)


def hpoly_to_sympy(p: HPoly):
    h = sympy.Symbol("h")
    return sum((to_sympy(c) * h**k for k, c in enumerate(p.coeffs)), sympy.Integer(0))


@settings(max_examples=50, deadline=None)
@given(sparse_hpolys, sparse_hpolys)
@specials(HPOLYS, HPOLYS)
@example(H_ONE, HPoly((ZERO, I, ZERO, R2)))
@example(-H_ONE, HPoly((ZERO, I, ZERO, R2)))
@example(HPoly((ZERO, ZERO, ONE)), HPoly((ONE, ZERO, MINUS_ONE)))
@example(HPoly((ZERO, HALF)), H + 1)  # h/2 has the numerators of h
def test_hpoly_mul_matches_sympy(a, b):
    want = hpoly_to_sympy(a) * hpoly_to_sympy(b)
    for got in (a * b, b * a):
        assert sympy.expand(hpoly_to_sympy(got) - want) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from([ONE, MINUS_ONE]), nonzero_scalars),
    st.integers(0, 3),
    sparse_hpolys.filter(bool),
)
@specials(UNITS, (0, 1, 2, 3), HPOLYS[1:])
@example(ONE, 1, HPoly((ONE, ZERO, I)))
@example(MINUS_ONE, 2, H)
def test_hpoly_mul_by_a_monomial_is_the_convolution(x, k, p):
    # x*h^k times p is p scaled by x and shifted up k degrees, built here
    # through the public constructor from Scalar products, and agrees with sympy.
    mono = HPoly((ZERO,) * k + (x,))
    want = HPoly((ZERO,) * k + tuple(x * c for c in p.coeffs))
    exact = hpoly_to_sympy(mono) * hpoly_to_sympy(p)
    for got in (mono * p, p * mono):
        assert got == want and hash(got) == hash(want)
        assert got.coeffs[-1]
        assert sympy.expand(hpoly_to_sympy(got) - exact) == 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, -1]), st.integers(0, 6), st.one_of(sparse_hpolys, hpolys))
@specials((1, -1), (0, 1, 6), HPOLYS)
@example(-1, 3, HPoly((HALF, I / 3, ZERO, R2 * I / 5)))
@example(1, 6, HPoly((ZERO, ZERO, R2 / 6)))
@example(1, 2, HPoly((ZERO, ZERO, -HALF)))  # -h^2/2: +-1 on top, but over 2
@example(1, 0, -H)
@example(1, 0, -H_ONE)  # both factors +-1: the result is -1, a new object
def test_a_product_with_a_signed_power_of_h_is_the_convolution(sign, k, x):
    # +-h^k times x in either order skips `_convolve`; it must give the
    # structure the convolution gives, reduced by its gcd, and sympy's value.
    mono = HPoly((ZERO,) * k + (Scalar(sign),))
    assert (mono.n, mono.d) == ((0,) * 4 * k + (sign, 0, 0, 0), 1)
    want = HPoly._make(_convolve(mono.n, x.n), x.d) if x else H_ZERO
    exact = hpoly_to_sympy(mono) * hpoly_to_sympy(x)
    for got in (mono * x, x * mono):
        assert_flat(got)
        assert (got.n, got.d) == (want.n, want.d)
        assert sympy.expand(hpoly_to_sympy(got) - exact) == 0
        if (sign, k) == (1, 0) and x and x.n not in _SIGNS:  # no copy, even of h^j
            assert got is x


def test_plus_and_minus_one_coerce_to_the_unit_singletons():
    for one in (1, ONE, Scalar(1), Fraction(1), Fraction(2, 2)):
        assert HPoly.of(one) is H_ONE
    for minus_one in (-1, MINUS_ONE, Scalar(-1), Fraction(-1)):
        assert HPoly.of(minus_one) is H_MINUS_ONE


# Constants over d != 1, and +-1 as the singletons and as fresh objects, so
# that each branch of the product of two constants is taken.
constant_hpolys = st.one_of(
    st.sampled_from([H_ONE, H_MINUS_ONE, HPoly((ONE,)), -H_ONE, HPoly.of(HALF), HPoly.of(-HALF)]),
    nonzero_scalars.map(HPoly.of),
)


@settings(max_examples=100, deadline=None)
@given(constant_hpolys, constant_hpolys)
@example(HPoly.of(R2 * I / 3), HPoly.of(R2 * I * 3 / 2))  # over 3 and 2, the product -1 over 1
@example(HPoly.of(HALF), HPoly.of(Scalar(2, 0, 2, 0)))  # over 2 and 1, the product 1 + r2 over 1
def test_a_product_of_constants_is_the_field_product_in_lowest_terms(a, b):
    want = from_sympy(to_sympy(a.constant()) * to_sympy(b.constant()))
    for got in (a * b, b * a):
        assert_flat(got)  # in lowest terms
        assert got.is_constant() and got.constant() == want
    for unit, other in ((a, b), (b, a)):
        if unit.d == 1 and unit.n in _SIGNS:
            assert unit * other == other * unit == (other if unit.n[0] == 1 else -other)


@settings(max_examples=30, deadline=None)
@given(sparse_hpolys)
@specials(HPOLYS)
def test_hpoly_power_is_the_repeated_product(p):
    prod = H_ONE
    for n in range(5):
        assert p**n == prod
        prod = prod * p
