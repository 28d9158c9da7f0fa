"""The canonical form of Scalar: integer numerators n over one denominator d.

Every Scalar, whether built by the public constructor or returned by the
arithmetic, has d > 0 and gcd(d, *n) == 1, so equal values are equal
structures with equal hashes.  An HPoly is stored the same way, four
numerators per degree over one denominator, and never ends in a zero group.
"""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from epsalg import ONE, HPoly, Scalar, parse_preset
from epsalg.presets import _build_qplane_cached
from value_strategies import FRACTIONS, HPOLYS, INTEGERS, SCALARS, UNITS, bounded_fractions
from value_strategies import hpolys_of, scalars_of, specials

fracs = bounded_fractions(4, 12)
scalars = scalars_of(fracs)
nonzero_scalars = scalars.filter(bool)
hpolys = hpolys_of(scalars, 4)


def assert_canonical(s: Scalar):
    assert type(s.d) is int and s.d > 0
    assert all(type(x) is int for x in s.n) and len(s.n) == 4
    assert gcd(s.d, *s.n) == 1
    coords = (s.c0, s.c1, s.c2, s.c3)
    assert all(type(c) is Fraction for c in coords)
    assert coords == tuple(Fraction(x, s.d) for x in s.n)


def test_equal_values_are_equal_structures():
    a, b = Scalar(Fraction(2, 4)), Scalar(Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert (a.n, a.d) == ((1, 0, 0, 0), 2)
    assert Scalar(Fraction(1, 2), Fraction(1, 3)).n == (3, 2, 0, 0)
    assert Scalar().n == (0, 0, 0, 0) and Scalar().d == 1
    assert Scalar(Fraction(1, 3)) + Scalar(Fraction(2, 3)) == ONE


@settings(max_examples=50)
@given(scalars, st.integers(-50, 50))
@specials(SCALARS, INTEGERS)
def test_public_constructor_is_canonical(a, k):
    assert_canonical(a)
    s = Scalar(k, 0, k, 1)
    assert_canonical(s)
    assert s == Scalar(Fraction(k), 0, Fraction(2 * k, 2), Fraction(3, 3))


@settings(max_examples=50, deadline=None)
@given(scalars, scalars, nonzero_scalars)
@specials(SCALARS, SCALARS, UNITS)
def test_every_operation_returns_the_canonical_form(a, b, c):
    for s in (a + b, a - b, -a, a * b, a.tau(), c.inverse(), a / c, 3 / c, c**-2,
              a**3, a * Fraction(2, 3), Fraction(2, 3) * a, a + 1, 1 - a):
        assert_canonical(s)


@settings(max_examples=50, deadline=None)
@given(scalars, scalars, nonzero_scalars)
@specials(SCALARS, SCALARS, UNITS)
def test_a_product_computed_two_ways_is_one_structure(a, b, c):
    for left, right in (
        (a * b, b * a),
        ((a + b) * (a + b) - a * a - b * b, 2 * (a * b)),
        ((a * c) * (b / c), a * b),
    ):
        assert left == right and hash(left) == hash(right)
        assert (left.n, left.d) == (right.n, right.d)


@given(fracs)
@specials(FRACTIONS)
def test_a_scalar_is_never_equal_to_a_rational(x):
    s = Scalar(x)
    assert s != x and x != s
    assert s != int(x) and int(x) != s
    assert s == Scalar.of(x)


def assert_flat(p: HPoly):
    assert type(p.d) is int and p.d > 0
    assert all(type(x) is int for x in p.n) and len(p.n) % 4 == 0
    assert gcd(p.d, *p.n) == 1
    assert not p.n or any(p.n[-4:])
    assert p.coeffs == tuple(Scalar._make(p.n[k:k + 4], p.d) for k in range(0, len(p.n), 4))


@settings(max_examples=100, deadline=None)
@given(hpolys, hpolys, scalars)
@specials(HPOLYS, HPOLYS, SCALARS)
def test_hpoly_results_carry_no_trailing_zero(a, b, c):
    results = [a, b, a + b, a - b, -a, a * b, a * a, a.tau(), a * c, a + c, HPoly.of(c)]
    for p in results + ([a / c] if c else []):
        assert_flat(p)
        assert not p.coeffs or p.coeffs[-1]
        assert p == HPoly(p.coeffs) and hash(p) == hash(HPoly(p.coeffs))
        assert all(p.coefficient(k) == s for k, s in enumerate(p.coeffs))
    assert (HPoly().n, HPoly().d) == ((), 1) and ((a - a).n, (a - a).d) == ((), 1)


def test_equal_qplane_parameters_share_one_cache_entry():
    first = parse_preset("qplane:q=1/2+I")
    hits = _build_qplane_cached.cache_info().hits
    again = parse_preset("qplane:q=2/4+I")
    assert again is first
    assert _build_qplane_cached.cache_info().hits == hits + 1
