"""Hypothesis strategies for Scalar, HPoly and Element test data.

`st.fractions` draws a denominator and then, through `flatmap`, a
numerator strategy built for it; drawing is then slower than most of the
bodies it feeds.  These strategies draw the same values more cheaply:

- `bounded_fractions(4, k)` samples the finite set that
  `st.fractions(-4, 4, max_denominator=k)` draws from, every fraction in
  [-4, 4] with denominator <= k, listed simplest first (0, 1, -1, 2, ...),
  so a failure shrinks toward 0;
- `big_fractions` builds Fraction(n, d) from any integer n and any d in
  [1, 2**40], the values of `st.fractions(max_denominator=2**40)`, and then
  scales by 2**(d mod 50) as before.

`sampled_from` draws 0 and the units less often than `st.fractions` did,
so `specials` adds them as explicit examples.
"""
from fractions import Fraction

from hypothesis import example
from hypothesis import strategies as st

from epsalg import H_ONE, H_ZERO, I, MINUS_ONE, ONE, ZERO, Element, Generator, Grade, HPoly
from epsalg import Scalar, Word


def bounded_fractions(bound: int, max_denominator: int):
    """Every fraction in [-bound, bound] with denominator <= max_denominator."""
    values = {Fraction(n, d) for d in range(1, max_denominator + 1)
              for n in range(-bound * d, bound * d + 1)}
    return st.sampled_from(sorted(values, key=lambda f: (f.denominator, abs(f), f < 0)))


def scalars_of(fracs):
    return st.builds(Scalar, fracs, fracs, fracs, fracs)


def hpolys_of(scalars, max_size: int):
    return st.lists(scalars, max_size=max_size).map(lambda cs: HPoly(tuple(cs)))


big_fractions = st.builds(Fraction, st.integers(), st.integers(1, 2**40)).map(
    lambda f: f * 2 ** (f.denominator % 50)
)

# Elements over three letters of Z^2 with integer coefficients in -3..3.
X = Generator("x", None, Grade((1, 0)))
Y = Generator("y", None, Grade((0, 1)))
Z = Generator("z", None, Grade((1, 1)))

letters = st.sampled_from([X, Y, Z])
words = st.lists(letters, max_size=4).map(lambda ls: Word(tuple(ls)))
elements = st.dictionaries(words, st.integers(-3, 3).map(HPoly.of), max_size=4).map(Element)

# Zero and the units of each kind of value, for `specials`.
FRACTIONS = (Fraction(0), Fraction(1), Fraction(-1))
INTEGERS = (0, 1, -1)
UNITS = (ONE, MINUS_ONE, I, -I)
SCALARS = (ZERO,) + UNITS
HPOLYS = (H_ZERO, H_ONE, -H_ONE, HPoly.of(I), HPoly.of(-I))
ELEMENTS = (Element.zero(), Element.one(), -Element.one())


def specials(*columns):
    """One explicit example per row: in row k the i-th argument is
    columns[i][(k + i) % len(columns[i])], so every argument takes every
    value of its column, and arguments of one column differ in a row."""

    def add(test):
        for k in range(max(map(len, columns))):
            test = example(*(c[(k + i) % len(c)] for i, c in enumerate(columns)))(test)
        return test

    return add
