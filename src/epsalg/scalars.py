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

An HPoly is stored the same way: the numerators of all its degrees, four
per degree, in one int tuple over one positive denominator, reduced by
their gcd and with no trailing zero group, so zero is ()/1.  Its sums,
products, negation and conjugation run on those integers; `coeffs`,
`coefficient(k)` and `constant()` make Scalars for readers.  The public
constructors `Scalar(c0, c1, c2, c3)` and `HPoly(coeffs)` coerce ints and
Fractions; the arithmetic builds its results through the private `_make`,
which trusts its arguments.  The module never imports `fractions` (with
it come `decimal` and `numbers`): a Fraction can only be given once its
module is loaded, so `_is_fraction` looks it up in `sys.modules`, and
`c0..c3` import it when read.

Both render from the integers.  `_render` writes one group of four
numerators over d, each coordinate reduced on its own; `_prefix` writes
such a group as a factor of what follows: '' for 1, '-' for -1, else its
text and '*', bracketed unless one coordinate is nonzero.  A term c*h^k
of an HPoly is `_prefix` of c, then h or h^k.  As the coefficient of a
word, an HPoly with one nonzero numerator (the common case in a normal
form: +-1, c, c*h^k) is that same prefix of its top group, followed for
k > 0 by h or h^k and '*', read off the integers without rendering the
polynomial first; any other HPoly is bracketed whole.

Scalar, HPoly and freealg.Element share `_Arithmetic`: each gives `_coerce`
(None for a foreign operand), `__bool__`, `__add__`, `__neg__` and
`__mul__`; the base derives `of` (a TypeError for a foreign operand),
`is_zero`, subtraction, division by a constant and square-and-multiply
powers with unit `_coerce(1)`.  Scalar and HPoly also share `_Reduced`, the
integer storage with its `_make`, equality, hash, negation and tau;
`_make` takes no gcd over d == 1, where the form is reduced already.
`HPoly.__mul__` alone absorbs zeros and the monomials +-h^k (1 and -1
among them), so callers need not test for them; any other product of two
constants is one table product (`_times`) over d1*d2, with no
convolution.  `HPoly._coerce` makes 1 and -1 the
singletons `H_ONE` and `H_MINUS_ONE` (`_unit`), so `rewrite` tells a unit
coefficient by identity: the reducer skips a 1 and the product memo
applies +-1 as a sign.  The library's record classes derive `repr` from
their `__slots__` through `_Record`, and equality and hash too through
`_Value`.  A coordinate is printed only up to `MAX_DIGITS` decimal digits;
a longer one is a ValueError.
"""
from __future__ import annotations

import sys
from math import gcd, lcm
from operator import add as _add, neg as _neg

ScalarLike = "Scalar | int | Fraction"

# Numbers are printed and read with at most this many decimal digits, the
# default of the interpreter's own int/str conversion limit.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS


def _is_fraction(x) -> bool:
    """Whether x is a `fractions.Fraction`; none exists before its module is loaded."""
    module = sys.modules.get("fractions")
    return module is not None and isinstance(x, module.Fraction)


def _rational(x):
    """x itself if it is an int or a Fraction: both carry a reduced
    `numerator` over a positive `denominator`."""
    if isinstance(x, int) or _is_fraction(x):
        return x
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _fraction(n: int, d: int):
    from fractions import Fraction

    return Fraction(n, d)


class _Arithmetic:
    """`of`, `is_zero`, subtraction, division and powers from `_coerce`,
    `bool`, `+`, unary `-` and `*`."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self

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


class _Record:
    """`repr` from the fields: the `__slots__` of the class, then of its bases."""

    __slots__ = ()

    def __repr__(self) -> str:
        names = [n for c in type(self).__mro__ for n in vars(c).get("__slots__", ())]
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({inner})"


class _Value(_Record):
    """A record equal, and hashed, by `_fields()`: by default the fields in
    the class's own `__slots__`, so a field of a base only shows in `repr`."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


class _Reduced(_Arithmetic):
    """Integer numerators `n` over one positive denominator `d`, gcd 1.

    The form is canonical, so equality and hash are structural.  Values are
    immutable by convention: nothing writes `n` or `d` after `_make`.
    """

    __slots__ = ("n", "d")

    @classmethod
    def _make(cls, n: tuple, d: int):
        """n/d, reduced; d > 0 and no coercion of the arguments.  Over d == 1
        the form is reduced already, and no gcd is taken."""
        if d != 1:
            g = gcd(d, *n)
            if g != 1:
                n = tuple(x // g for x in n)
                d //= g
        s = _new(cls)
        s.n = n
        s.d = d
        return s

    def __eq__(self, other):
        if type(other) is type(self):
            return self.n == other.n and self.d == other.d
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    def __neg__(self):
        s = _new(type(self))
        s.n = tuple(map(_neg, self.n))
        s.d = self.d
        return s

    def tau(self):
        """The conjugation I -> -I, coordinatewise; h itself is tau-fixed."""
        s = _new(type(self))
        s.n = tuple(-x if k & 1 else x for k, x in enumerate(self.n))
        s.d = self.d
        return s


class Scalar(_Reduced):
    """(n0 + n1*I + n2*r2 + n3*I*r2) / d; zero is (0, 0, 0, 0)/1.

    The conjugation tau is an involutive field automorphism.
    """

    __slots__ = ()

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        cs = (_rational(c0), _rational(c1), _rational(c2), _rational(c3))
        d = lcm(*(c.denominator for c in cs))
        # Over the lcm of reduced denominators the form is already reduced.
        self.n = tuple(c.numerator * (d // c.denominator) for c in cs)
        self.d = d

    c0 = property(lambda self: _fraction(self.n[0], self.d))
    c1 = property(lambda self: _fraction(self.n[1], self.d))
    c2 = property(lambda self: _fraction(self.n[2], self.d))
    c3 = property(lambda self: _fraction(self.n[3], self.d))

    def __bool__(self) -> bool:
        return self.n != _ZERO_N

    @staticmethod
    def _coerce(value):
        if type(value) is Scalar:
            return value
        if isinstance(value, int):
            return _make((int(value), 0, 0, 0), 1)
        if _is_fraction(value):
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

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _make(_times(self.n, other.n), self.d * other.d)

    __rmul__ = __mul__

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
        return _render(self.n, self.d)

    def __repr__(self) -> str:
        return f"Scalar({self})"


_new = object.__new__
_make = Scalar._make
_ZERO_N = (0, 0, 0, 0)
_SIGNS = ((1, 0, 0, 0), (-1, 0, 0, 0))
_UNITS = ("", "I", "r2", "I*r2")


def _render(n: tuple, d: int) -> str:
    """The text of the Scalar n/d; each coordinate is reduced on its own."""
    parts = []
    for x, unit in zip(n, _UNITS):
        if not x:
            continue
        g = gcd(x, d)
        p, q = x // g, d // g
        if abs(p) >= _DIGIT_BOUND or q >= _DIGIT_BOUND:
            raise ValueError(f"a coefficient has more than {MAX_DIGITS} digits to print")
        text = str(p) if q == 1 else f"{p}/{q}"
        if not unit:
            parts.append(text)
        elif q == 1 and p in (1, -1):
            parts.append(unit if p == 1 else "-" + unit)
        else:
            parts.append(f"{text}*{unit}")
    if not parts:
        return "0"
    return join_signed(parts)


def _times(a: tuple, b: tuple) -> tuple:
    """The numerators of a product of Scalars from the numerators a and b."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if not (a1 or a2 or a3):  # a rational factor: 4 products, not 16
        return (a0 * b0, a0 * b1, a0 * b2, a0 * b3)
    if not (b1 or b2 or b3):
        return (b0 * a0, b0 * a1, b0 * a2, b0 * a3)
    # Multiplication table of the basis: I*r2 = (I*r2), (I*r2)^2 = -2.
    return (
        a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
        a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
        a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
    )


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
HALF = _make((1, 0, 0, 0), 2)


class HPoly(_Reduced):
    """Polynomial in the deformation parameter h over Scalar.

    The numerators of h**k are n[4k:4k + 4], all over one denominator d;
    no trailing group of four is zero, so the zero polynomial is ()/1.
    `coeffs`, `coefficient(k)` and `constant()` read Scalars out of it.

    A product with a factor +-h^k (d == 1, +-1 on top, every lower group
    zero), either side, k = 0 included, is the other factor's numerators
    behind 4k zeros, negated for -, over its own d: already canonical, so
    it makes no `_convolve` and no gcd.  The shorter factor is tried first,
    so a factor 1 returns the other one itself, unless that is -1.  A
    product with zero is zero, any other product of two constants is the
    table product of the two groups over d1*d2, reduced, and every other
    product convolves.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        cs = [Scalar.of(c) for c in coeffs]
        d = lcm(*(c.d for c in cs))
        # Over the lcm of reduced denominators the form is already reduced.
        self.n = _strip(tuple(x * (d // c.d) for c in cs for x in c.n))
        self.d = d

    @property
    def coeffs(self) -> tuple:
        """coeffs[k] multiplies h**k, nonzero on top."""
        n, d = self.n, self.d
        return tuple(_make(n[k:k + 4], d) for k in range(0, len(n), 4))

    @staticmethod
    def _coerce(value):
        if type(value) is HPoly:
            return value
        c = Scalar._coerce(value)
        return None if c is None else _unit(_hmake(c.n if c else (), c.d))

    @property
    def degree(self) -> int:
        return len(self.n) // 4 - 1

    def __bool__(self) -> bool:
        return bool(self.n)

    def is_constant(self) -> bool:
        return len(self.n) <= 4

    def constant(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in h")
        return _make(self.n, self.d) if self.n else ZERO

    def coefficient(self, k: int) -> Scalar:
        return self.part(k).constant()

    def part(self, k: int) -> HPoly:
        """The h^k coefficient as a constant polynomial (zero for k < 0)."""
        if k == 0 and len(self.n) <= 4:
            return self
        n = self.n[4 * k:4 * k + 4] if k >= 0 else ()
        return _hmake(n, self.d) if n and n != _ZERO_N else H_ZERO

    def __add__(self, other):
        if type(other) is not HPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self.n, other.n, self.d
        if d != other.d:
            g = gcd(d, other.d)
            sa, sb = other.d // g, d // g
            a = tuple(x * sa for x in a)
            b = tuple(x * sb for x in b)
            d *= sa
        if len(a) < len(b):
            a, b = b, a
        if len(a) > len(b):
            return _hmake(tuple(map(_add, a, b)) + a[len(b):], d)
        return _hmake(_strip(tuple(map(_add, a, b))), d)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not HPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.n, other.n
        if not a or not b:
            return H_ZERO
        if len(a) < len(b):  # so 1 * h^k returns h^k itself, not a copy
            self, other, a, b = other, self, b, a
        # A monomial +-h^k: one nonzero numerator, +-1 on top, over 1.
        if other.d == 1 and b[-4] in (1, -1) and b.count(0) == len(b) - 1:
            return _shift(self, len(b) - 4, b[-4])
        if self.d == 1 and a[-4] in (1, -1) and a.count(0) == len(a) - 1:
            return _shift(other, len(a) - 4, a[-4])
        if len(a) == 4:  # two constants: one table product
            return _hmake(_times(a, b), self.d * other.d)
        # A product of nonzero polynomials has a nonzero top: no strip.
        return _hmake(_convolve(a, b), self.d * other.d)

    __rmul__ = __mul__

    def __str__(self) -> str:
        n, d = self.n, self.d
        parts = []
        for k in range(len(n) - 4, -1, -4):
            c = n[k:k + 4]
            if c != _ZERO_N:
                parts.append(_prefix(c, d) + _h_power(k) if k else _render(c, d))
        return join_signed(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"HPoly({self})"

    def term_count(self) -> int:
        """Summands in the rendered form; the constant spreads into its units."""
        n = self.n
        return sum(1 for x in n[:4] if x) + sum(n[k:k + 4] != _ZERO_N for k in range(4, len(n), 4))

    def as_product_prefix(self) -> str:
        """Render as a 'coefficient*' prefix for a following word, '' for 1.

        With one nonzero numerator, which sits on top, that is the prefix of
        its coordinate and then its power of h, read off the integers; any
        other polynomial is bracketed.
        """
        n, d = self.n, self.d
        if n.count(0) != len(n) - 1:
            return f"({self})*"
        head = _prefix(n[-4:], d)
        return head + _h_power(len(n) - 4) + "*" if len(n) > 4 else head


_hmake = HPoly._make


def _unit(p: HPoly) -> HPoly:
    """p, or `H_ONE` or `H_MINUS_ONE` itself when p is 1 or -1, so that a
    caller can tell a unit coefficient by identity."""
    if p.d == 1 and p.n in _SIGNS:
        return H_ONE if p.n[0] == 1 else H_MINUS_ONE
    return p


def _prefix(c: tuple, d: int) -> str:
    """The Scalar c/d as a factor of what follows: '' for 1, '-' for -1, else
    its text and '*', bracketed unless c has one nonzero coordinate."""
    if c == (d, 0, 0, 0):
        return ""
    if c == (-d, 0, 0, 0):
        return "-"
    text = _render(c, d)
    return text + "*" if c.count(0) == 3 else f"({text})*"


def _h_power(zeros: int) -> str:
    """h^k for zeros = 4k > 0, with h^1 written h."""
    return "h" if zeros == 4 else f"h^{zeros // 4}"


def _shift(p: HPoly, zeros: int, sign: int) -> HPoly:
    """sign * h^k * p for zeros = 4k: p's numerators, negated for sign -1,
    behind `zeros` zeros and over p's d, which is already canonical."""
    if not zeros:
        return p if sign == 1 else -p
    s = _new(HPoly)
    s.n = (0,) * zeros + (p.n if sign == 1 else tuple(map(_neg, p.n)))
    s.d = p.d
    return s


def _strip(n: tuple) -> tuple:
    """Flat numerators n without their trailing zero groups of four."""
    k = len(n)
    while k and not (n[k - 1] or n[k - 2] or n[k - 3] or n[k - 4]):
        k -= 4
    return n if k == len(n) else n[:k]


def _convolve(a: tuple, b: tuple) -> tuple:
    """Flat numerators of the product of two nonzero flat h-polynomials.

    Each nonzero group of the shorter factor a makes one row of products
    with all of b, which is added in at its degree: an integer times b if
    the group has no I or r2 part, else a table product per group of b.
    """
    if len(b) < len(a):
        a, b = b, a
    m = len(b)
    if m == 4:
        return _times(a, b)
    out = [0] * (len(a) + m - 4)
    for j in range(0, len(a), 4):
        x = a[j:j + 4]
        if x[1] or x[2] or x[3]:
            row = [v for k in range(0, m, 4) for v in _times(x, b[k:k + 4])]
        elif x[0]:
            x0 = x[0]
            row = [x0 * y for y in b]
        else:
            continue
        out[j:j + m] = map(_add, out[j:j + m], row)
    return tuple(out)


H = HPoly((ZERO, ONE))
H_ZERO = HPoly()
H_ONE = HPoly((ONE,))
H_MINUS_ONE = HPoly((MINUS_ONE,))
