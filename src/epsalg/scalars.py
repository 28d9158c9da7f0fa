"""Exact coefficient arithmetic: the field Q(i, sqrt(2)) and polynomials in h.

Scalars are stored on the basis 1, I, r2, I*r2 with I^2 = -1 and r2^2 = 2,
so every value is a 4-tuple of rationals and all arithmetic is exact.  The
conjugation tau fixes rationals and r2 and sends I to -I; its fixed subfield
Q(r2) is where the deformation constant h and every rescaling norm
lambda*tau(lambda) live.

Scalar, HPoly and freealg.Element share `_Arithmetic`: each gives `_coerce`
(None for a foreign operand), `__add__`, `__neg__` and `__mul__`; the base
derives `of` (a TypeError for a foreign operand), subtraction, division by a
constant and square-and-multiply powers with unit `_coerce(1)`.  Units and
zeros are absorbed in `HPoly.__mul__` alone: it skips zero coefficients on
both sides and returns the other factor, or its negation, for a factor 1 or
-1, so callers need not test for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ScalarLike = "Scalar | int | Fraction"


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


@dataclass(frozen=True)
class Scalar(_Arithmetic):
    """c0 + c1*I + c2*r2 + c3*I*r2 with exact rational coordinates."""

    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)
    c3: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "c0", _frac(self.c0))
        object.__setattr__(self, "c1", _frac(self.c1))
        object.__setattr__(self, "c2", _frac(self.c2))
        object.__setattr__(self, "c3", _frac(self.c3))

    def __bool__(self) -> bool:
        return bool(self.c0 or self.c1 or self.c2 or self.c3)

    def is_zero(self) -> bool:
        return not self

    def is_rational(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    def is_tau_fixed(self) -> bool:
        """Membership in K+ = Q(r2): no I components."""
        return not (self.c1 or self.c3)

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.c0

    @staticmethod
    def _coerce(value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(_frac(value))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2, self.c3 + o.c3)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.c0, self.c1, self.c2, self.c3
        b0, b1, b2, b3 = o.c0, o.c1, o.c2, o.c3
        # Multiplication table of the basis: I*r2 = (I*r2), (I*r2)^2 = -2.
        return Scalar(
            a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
            a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    __rmul__ = __mul__

    def tau(self) -> Scalar:
        """The conjugation i -> -i; an involutive field automorphism."""
        return Scalar(self.c0, -self.c1, self.c2, -self.c3)

    def inverse(self) -> Scalar:
        """Exact inverse via the product of the three nontrivial conjugates.

        z * tau(z) * sigma(z) * tau(sigma(z)) is the field norm, a rational,
        where sigma flips the sign of r2.  Division by zero is an error.
        """
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        sigma = Scalar(self.c0, self.c1, -self.c2, -self.c3)
        cofactor = self.tau() * sigma * sigma.tau()
        norm = (self * cofactor).rational()
        return Scalar(
            cofactor.c0 / norm, cofactor.c1 / norm, cofactor.c2 / norm, cofactor.c3 / norm
        )

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
        return sum(1 for c in (self.c0, self.c1, self.c2, self.c3) if c)


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


@dataclass(frozen=True)
class HPoly(_Arithmetic):
    """Polynomial in the deformation parameter h over Scalar.

    coeffs[k] multiplies h**k; trailing zeros are never stored, so the zero
    polynomial is the empty tuple and equality is structural.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        cs = tuple(Scalar.of(c) for c in self.coeffs)
        while cs and cs[-1].is_zero():
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def _coerce(value):
        if isinstance(value, HPoly):
            return value
        c = Scalar._coerce(value)
        return None if c is None else HPoly((c,))

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return HPoly(
            tuple(self.coefficient(k) + o.coefficient(k) for k in range(n))
        )

    __radd__ = __add__

    def __neg__(self) -> HPoly:
        return HPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return H_ZERO
        if a == (ONE,):
            return o
        if a == (MINUS_ONE,):
            return -o
        if b == (ONE,):
            return self
        if b == (MINUS_ONE,):
            return -self
        nonzero_b = [(k, y) for k, y in enumerate(b) if y]
        out = [ZERO] * (len(a) + len(b) - 1)
        for j, x in enumerate(a):
            if x:
                for k, y in nonzero_b:
                    out[j + k] = out[j + k] + x * y
        return HPoly(tuple(out))

    __rmul__ = __mul__

    def tau(self) -> HPoly:
        """Coefficientwise conjugation; h itself is tau-fixed."""
        return HPoly(tuple(c.tau() for c in self.coeffs))

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
        if self == -H_ONE:
            return "-"
        if sum(1 for c in self.coeffs if c) == 1:
            k = next(i for i, c in enumerate(self.coeffs) if c)
            c = self.coeffs[k]
            if c.term_count() == 1:
                return f"{self}*"
        return f"({self})*"


H = HPoly((ZERO, ONE))
H_ZERO = HPoly()
H_ONE = HPoly((ONE,))
