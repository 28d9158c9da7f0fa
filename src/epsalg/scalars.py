"""Exact coefficient arithmetic: the field Q(i, sqrt(2)) and polynomials in h.

Scalars are stored on the basis 1, I, r2, I*r2 with I^2 = -1 and r2^2 = 2,
as four integer numerators over one positive denominator, reduced by their
gcd; zero is (0, 0, 0, 0)/1.  The form is canonical, so equality and hash
compare the integers, and all arithmetic is exact integer arithmetic: a sum
of equal denominators adds numerators only, and a rational factor costs 4
products instead of 16.  `c0..c3` read the coordinates as Fractions.  The
conjugation tau fixes rationals and r2 and sends I to -I; its fixed subfield
Q(r2) is where the deformation constant h and every rescaling norm
lambda*tau(lambda) live.

The public constructors `Scalar(c0, c1, c2, c3)` and `HPoly(coeffs)` coerce
ints and Fractions; the arithmetic builds its results through the private
`Scalar._make` and `HPoly._make`, which trust their arguments.  An HPoly
product convolves the integer numerators of both sides over a common
denominator and makes one Scalar per degree.

Scalar, HPoly and freealg.Element share `_Arithmetic`: each gives `_coerce`
(None for a foreign operand), `__add__`, `__neg__` and `__mul__`; the base
derives `of` (a TypeError for a foreign operand), subtraction, division by a
constant and square-and-multiply powers with unit `_coerce(1)`.  Units and
zeros are absorbed in `HPoly.__mul__` alone: it skips zero coefficients on
both sides and returns the other factor, or its negation, for a factor 1 or
-1, so callers need not test for them.  A coordinate is printed only up to
`MAX_DIGITS` decimal digits; a longer one is a ValueError.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ScalarLike = "Scalar | int | Fraction"

# Numbers are printed and read with at most this many decimal digits, the
# default of the interpreter's own int/str conversion limit.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class _Arithmetic:
    """`of`, subtraction, division and powers from `_coerce`, `+`, unary `-`, `*`."""

    __slots__ = ()

    @classmethod
    def of(cls, value):
        got = cls._coerce(value)
        if got is None:
            raise TypeError(f"cannot make a {cls.__name__} from {type(value).__name__}")
        return got

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __truediv__(self, other):
        """Division by a nonzero constant; Scalar / HPoly stays a TypeError."""
        if isinstance(other, HPoly) and not isinstance(self, Scalar):
            other = other.constant()
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int):
        """Square and multiply, squaring no further than the top bit of n."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out, base = self._coerce(1), self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base


class Scalar(_Arithmetic):
    """(n0 + n1*I + n2*r2 + n3*I*r2) / d with integer numerators n and d > 0.

    The form is canonical, gcd(d, *n) == 1 and zero is (0, 0, 0, 0)/1, so
    equality and hash are structural.  Scalars are immutable by convention:
    nothing writes `n` or `d` after `_make`.
    """

    __slots__ = ("n", "d")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        cs = (_frac(c0), _frac(c1), _frac(c2), _frac(c3))
        d = lcm(*(c.denominator for c in cs))
        # Over the lcm of reduced denominators the form is already reduced.
        self.n = tuple(c.numerator * (d // c.denominator) for c in cs)
        self.d = d

    @staticmethod
    def _make(n: tuple, d: int) -> Scalar:
        """The Scalar n/d, reduced; d > 0 and no coercion of the arguments."""
        g = gcd(d, *n)
        if g != 1:
            n = tuple(x // g for x in n)
            d //= g
        s = _new(Scalar)
        s.n = n
        s.d = d
        return s

    c0 = property(lambda self: Fraction(self.n[0], self.d))
    c1 = property(lambda self: Fraction(self.n[1], self.d))
    c2 = property(lambda self: Fraction(self.n[2], self.d))
    c3 = property(lambda self: Fraction(self.n[3], self.d))

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.n == other.n and self.d == other.d
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    def __bool__(self) -> bool:
        return self.n != _ZERO_N

    def is_zero(self) -> bool:
        return self.n == _ZERO_N

    def is_rational(self) -> bool:
        n = self.n
        return not (n[1] or n[2] or n[3])

    def is_tau_fixed(self) -> bool:
        """Membership in K+ = Q(r2): no I components."""
        return not (self.n[1] or self.n[3])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.c0

    @staticmethod
    def _coerce(value):
        if type(value) is Scalar:
            return value
        if isinstance(value, int):
            return _make((int(value), 0, 0, 0), 1)
        if isinstance(value, Fraction):
            return _make((value.numerator, 0, 0, 0), value.denominator)
        return None

    def __add__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        da, db = self.d, other.d
        if da == db:
            return _make((a0 + b0, a1 + b1, a2 + b2, a3 + b3), da)
        return _make(
            (a0 * db + b0 * da, a1 * db + b1 * da, a2 * db + b2 * da, a3 * db + b3 * da),
            da * db,
        )

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        a0, a1, a2, a3 = self.n
        s = _new(Scalar)
        s.n = (-a0, -a1, -a2, -a3)
        s.d = self.d
        return s

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        if not (a1 or a2 or a3):  # a rational factor: 4 products, not 16
            n = (a0 * b0, a0 * b1, a0 * b2, a0 * b3)
        elif not (b1 or b2 or b3):
            n = (b0 * a0, b0 * a1, b0 * a2, b0 * a3)
        else:
            # Multiplication table of the basis: I*r2 = (I*r2), (I*r2)^2 = -2.
            n = (
                a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
                a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
                a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
                a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            )
        return _make(n, self.d * other.d)

    __rmul__ = __mul__

    def tau(self) -> Scalar:
        """The conjugation i -> -i; an involutive field automorphism."""
        a0, a1, a2, a3 = self.n
        s = _new(Scalar)
        s.n = (a0, -a1, a2, -a3)
        s.d = self.d
        return s

    def inverse(self) -> Scalar:
        """Exact inverse via the product of the three nontrivial conjugates.

        For the integer part z = n, z * tau(z) * sigma(z) * tau(sigma(z)) is
        the field norm, where sigma flips the sign of r2.  It is an integer,
        and a positive one: it is |z|^2 * |sigma(z)|^2 in the complex
        embedding.  So 1/(n/d) = d * cofactor / norm.  Division by zero is an
        error.
        """
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        a0, a1, a2, a3 = self.n
        z = _make(self.n, 1)
        sigma = _make((a0, a1, -a2, -a3), 1)
        cofactor = z.tau() * sigma * sigma.tau()
        norm = (z * cofactor).n[0]
        d = self.d
        return _make(tuple(d * c for c in cofactor.n), norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> Scalar:
        if isinstance(n, int) and n < 0:
            return self.inverse() ** -n
        return super().__pow__(n)

    def __str__(self) -> str:
        parts = []
        for coeff, unit in ((self.c0, ""), (self.c1, "I"), (self.c2, "r2"), (self.c3, "I*r2")):
            if not coeff:
                continue
            if abs(coeff.numerator) >= _DIGIT_BOUND or coeff.denominator >= _DIGIT_BOUND:
                raise ValueError(f"a coefficient has more than {MAX_DIGITS} digits to print")
            if not unit:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(unit)
            elif coeff == -1:
                parts.append("-" + unit)
            else:
                parts.append(f"{coeff}*{unit}")
        if not parts:
            return "0"
        return join_signed(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def term_count(self) -> int:
        return sum(1 for c in self.n if c)


_new = object.__new__
_make = Scalar._make
_ZERO_N = (0, 0, 0, 0)


def join_signed(parts: list[str]) -> str:
    """Join rendered terms, folding leading minus signs into ' - '."""
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


ZERO = Scalar()
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)
R2 = Scalar(0, 0, 1)
HALF = Scalar(Fraction(1, 2))


class HPoly(_Arithmetic):
    """Polynomial in the deformation parameter h over Scalar.

    coeffs[k] multiplies h**k; trailing zeros are never stored, so the zero
    polynomial is the empty tuple and equality is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _strip(tuple(Scalar.of(c) for c in coeffs))

    @staticmethod
    def _make(cs: tuple) -> HPoly:
        """The HPoly of a tuple of Scalars without trailing zeros."""
        p = _new(HPoly)
        p.coeffs = cs
        return p

    def __eq__(self, other):
        if type(other) is HPoly:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @staticmethod
    def _coerce(value):
        if type(value) is HPoly:
            return value
        c = Scalar._coerce(value)
        return None if c is None else _hmake((c,) if c else ())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in h")
        return self.coeffs[0] if self.coeffs else ZERO

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def __add__(self, other):
        if type(other) is not HPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(a) > len(b):
            return _hmake(tuple(x + y for x, y in zip(a, b)) + a[len(b):])
        return _hmake(_strip(tuple(x + y for x, y in zip(a, b))))

    __radd__ = __add__

    def __neg__(self) -> HPoly:
        return _hmake(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if type(other) is not HPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return H_ZERO
        # One side x*h^k, every coefficient below its top zero: the other side
        # p is scaled by x and shifted up k degrees.  Constants are tried first.
        if len(a) == 1 or len(b) == 1:
            x, k, p = (a[0], 0, other) if len(a) == 1 else (b[0], 0, self)
        elif not any(a[:-1]):
            x, k, p = a[-1], len(a) - 1, other
        elif not any(b[:-1]):
            x, k, p = b[-1], len(b) - 1, self
        else:
            return _hmake(_convolve(a, b))
        if x == ONE:
            if not k:
                return p
            cs = p.coeffs
        elif x == MINUS_ONE:
            cs = tuple(-y for y in p.coeffs)
        else:
            # A product of nonzero field elements is nonzero: no strip.
            cs = tuple(x * y if y else y for y in p.coeffs)
        return _hmake((ZERO,) * k + cs if k else cs)

    __rmul__ = __mul__

    def tau(self) -> HPoly:
        """Coefficientwise conjugation; h itself is tau-fixed."""
        return _hmake(tuple(c.tau() for c in self.coeffs))

    def substitute_h(self, value) -> Scalar:
        v = Scalar.of(value)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
                continue
            power = "h" if k == 1 else f"h^{k}"
            if c == ONE:
                parts.append(power)
            elif c == MINUS_ONE:
                parts.append("-" + power)
            elif c.term_count() == 1:
                parts.append(f"{c}*{power}")
            else:
                parts.append(f"({c})*{power}")
        return join_signed(parts)

    def __repr__(self) -> str:
        return f"HPoly({self})"

    def term_count(self) -> int:
        """Summands in the rendered form; the constant spreads into its units."""
        return sum(
            c.term_count() if k == 0 else 1
            for k, c in enumerate(self.coeffs)
            if c
        )

    def as_product_prefix(self) -> str:
        """Render as a 'coefficient*' prefix for a following word, '' for 1."""
        if self == H_ONE:
            return ""
        if self == H_MINUS_ONE:
            return "-"
        if sum(1 for c in self.coeffs if c) == 1:
            k = next(i for i, c in enumerate(self.coeffs) if c)
            c = self.coeffs[k]
            if c.term_count() == 1:
                return f"{self}*"
        return f"({self})*"


_hmake = HPoly._make


def _strip(cs: tuple) -> tuple:
    """cs without its trailing zero Scalars."""
    k = len(cs)
    while k and not cs[k - 1]:
        k -= 1
    return cs if k == len(cs) else cs[:k]


def _over_lcm(cs: tuple):
    """(d, [(k, numerators of cs[k] over d)]) for the nonzero cs[k], d their lcm."""
    d = lcm(*(c.d for c in cs))
    return d, [(k, c.n if c.d == d else tuple(d // c.d * x for x in c.n))
               for k, c in enumerate(cs) if c]


def _convolve(a: tuple, b: tuple) -> tuple:
    """Coefficients of the product of two h-polynomials, nonzero on top.

    Each side is written over the lcm of its denominators, so the products
    and sums run on integer numerators and one Scalar is made per degree.
    """
    da, xs = _over_lcm(a)
    db, ys = _over_lcm(b)
    out = [[0, 0, 0, 0] for _ in range(len(a) + len(b) - 1)]
    for j, (a0, a1, a2, a3) in xs:
        if not (a1 or a2 or a3):
            for k, (b0, b1, b2, b3) in ys:
                acc = out[j + k]
                acc[0] += a0 * b0
                acc[1] += a0 * b1
                acc[2] += a0 * b2
                acc[3] += a0 * b3
            continue
        for k, (b0, b1, b2, b3) in ys:
            # The multiplication table of Scalar.__mul__.
            acc = out[j + k]
            acc[0] += a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3)
            acc[1] += a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2)
            acc[2] += a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1
            acc[3] += a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1
    d = da * db
    return tuple(_make(tuple(acc), d) if any(acc) else ZERO for acc in out)


H = HPoly((ZERO, ONE))
H_ZERO = HPoly()
H_ONE = HPoly((ONE,))
H_MINUS_ONE = HPoly((MINUS_ONE,))
