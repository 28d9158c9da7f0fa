"""Free associative algebra over K[h] on graded generators.

Words are immutable letter tuples, elements are sparse dictionaries mapping
words to h-polynomial coefficients with zero values never stored.  The
Element constructor is the one place that merges repeated words and drops
zeros: every sum and product in the library hands it (word, coefficient)
pairs.  The product is plain concatenation extended bilinearly; all quotient
structure lives in the rewrite engine.
"""
from __future__ import annotations

import itertools
from math import gcd

from .grading import Grade
from .scalars import H_ONE, HPoly, _Arithmetic, join_signed

# The longest word a product or a power may build.
MAX_LETTERS = 10**6


class Generator:
    __slots__ = ("name", "index", "grade", "label", "_hash", "_key")

    def __init__(self, name: str, index: int | None, grade: Grade):
        self.name = name
        self.index = index
        self.grade = grade
        # Every rendered word and every parse reads the label: formatted once.
        self.label = name if index is None else f"{name}{index}"
        # Letters are hashed in every word and redex lookup; equality stays by value.
        self._hash = hash((name, index, grade))
        self._key = (name, index if index is not None else 0)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.name == other.name
                and self.index == other.index
                and self.grade == other.grade
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return self._key

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"Generator({self.label}, grade {self.grade})"


class Word:
    """Immutable product of generators; the empty word is the unit."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters=()):
        if isinstance(letters, Generator):
            letters = (letters,)
        self.letters = tuple(letters)
        self._hash = hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __mul__(self, other):
        if isinstance(other, Word):
            return Word(self.letters + other.letters)
        if isinstance(other, Generator):
            return Word(self.letters + (other,))
        return NotImplemented

    def __getitem__(self, item):
        got = self.letters[item]
        return Word(got) if isinstance(item, slice) else got

    def is_empty(self) -> bool:
        return not self.letters

    def grade(self, zero: Grade) -> Grade:
        """Sum of the letters' grades: coordinates add up, reduced once."""
        grades = [letter.grade for letter in self.letters]
        for g in grades:
            if g.moduli != zero.moduli or len(g.coords) != len(zero.coords):
                raise ValueError(f"grade group mismatch: {zero!r} vs {g!r}")
        return Grade(tuple(map(sum, zip(zero.coords, *(g.coords for g in grades)))), zero.moduli)

    def sort_key(self):
        return (len(self.letters), tuple([g._key for g in self.letters]))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        run, count = self.letters[0], 1
        for letter in self.letters[1:]:
            if letter is run or (letter._key == run._key and letter == run):
                count += 1
                continue
            parts.append(run.label if count == 1 else f"{run.label}^{count}")
            run, count = letter, 1
        parts.append(run.label if count == 1 else f"{run.label}^{count}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Word({self})"


EMPTY_WORD = Word()


class Element(_Arithmetic):
    """Sparse K[h]-linear combination of words."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """From a mapping or from (word, coefficient) pairs, in one pass: the
        coefficients of a repeated word add up and zero sums are dropped."""
        out = {}
        for word, coeff in terms.items() if isinstance(terms, dict) else terms:
            if type(coeff) is not HPoly:
                coeff = HPoly.of(coeff)
            prev = out.pop(word, None)
            if prev is not None:
                coeff = prev + coeff
            if coeff:
                out[word] = coeff
        self.terms = out

    @staticmethod
    def sum(elements) -> Element:
        return Element(itertools.chain.from_iterable(e.terms.items() for e in elements))

    @staticmethod
    def _coerce(value):
        if isinstance(value, Element):
            return value
        if isinstance(value, (Word, Generator)):
            return Element.from_word(value)
        c = HPoly._coerce(value)  # an int, Fraction, Scalar or HPoly
        return None if c is None else Element.scalar(c)

    @staticmethod
    def zero() -> Element:
        return Element()

    @staticmethod
    def one() -> Element:
        return Element({EMPTY_WORD: H_ONE})

    @staticmethod
    def from_word(word, coeff=H_ONE) -> Element:
        if isinstance(word, Generator):
            word = Word(word)
        return Element({word: coeff})

    @staticmethod
    def scalar(value) -> Element:
        return Element({EMPTY_WORD: value})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Element):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Element(itertools.chain(self.terms.items(), o.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> Element:
        return Element((w, -c) for w, c in self.terms.items())

    def __mul__(self, other):
        """The product; of two elements, refused before a word past
        `MAX_LETTERS` letters, as `__pow__` refuses a power."""
        if isinstance(other, (Word, Generator)):
            other = Element.from_word(other)
        if isinstance(other, Element):
            m = max(map(len, self.terms), default=0)
            n = max(map(len, other.terms), default=0)
            if m + n > MAX_LETTERS:
                raise ValueError(f"({m}-letter word)*({n}-letter word) exceeds 10**6 letters")
            return Element(
                (w1 * w2, c1 * c2)
                for w1, c1 in self.terms.items()
                for w2, c2 in other.terms.items()
            )
        c = HPoly._coerce(other)  # an int, Fraction, Scalar or HPoly
        if c is None:
            return NotImplemented
        return Element((w, v * c) for w, v in self.terms.items())

    def __rmul__(self, other):
        if isinstance(other, (Word, Generator)):
            return Element.from_word(other) * self
        return self.__mul__(other)  # scalars commute with every element

    def __pow__(self, n: int) -> Element:
        """Refused before any product past 10**6 words, 10**6 letters in a
        word, h-degree 10**6, 10**6 bits in a rational coordinate or 10**6
        units of coefficient work (see `_power_work`)."""
        if isinstance(n, int):
            k = len(self.terms)
            if k > 1 and (n >= 20 or k**n > 10**6):  # 2**20 > 10**6
                raise ValueError(f"({k} terms)^{n} would expand to more than 10**6 words")
            longest = max(map(len, self.terms), default=0)
            if longest * n > MAX_LETTERS:
                raise ValueError(f"({longest}-letter word)^{n} exceeds 10**6 letters")
            degree = self.h_degree()
            if degree * n > 10**6:
                raise ValueError(f"(h-degree {degree})^{n} exceeds h-degree 10**6")
            cs = self.terms.values()
            # Each h-coefficient in its own lowest terms, as its Scalar has it.
            groups = [(c.n[k:k + 4], c.d) for c in cs for k in range(0, len(c.n), 4)]
            largest = max((max(d, *map(abs, g)) // gcd(d, *g) for g, d in groups), default=0)
            bits = largest.bit_length()
            if bits * n > 10**6:
                raise ValueError(f"({bits}-bit coefficient)^{n} exceeds 10**6 bits")
            dense = max((sum(any(c.n[k:k + 4]) for k in range(0, len(c.n), 4)) for c in cs),
                        default=0)
            if n > 1 and _power_work(k, dense, degree, bits, n) > 10**6:
                raise ValueError(
                    f"({k} terms of h-degree {degree})^{n} exceeds 10**6 units of coefficient work"
                )
        return super().__pow__(n)

    def coefficient(self, word: Word) -> HPoly:
        return self.terms.get(word, HPoly())

    def sorted_terms(self):
        """Terms in descending degree-lexicographic order for stable output."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)

    def h_coefficient(self, k: int) -> Element:
        """The element of h-degree k, with constant coefficients."""
        return Element((w, c.part(k)) for w, c in self.terms.items())

    def h_degree(self) -> int:
        return max((c.degree for c in self.terms.values()), default=-1)

    def tau(self) -> Element:
        return Element((w, c.tau()) for w, c in self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.sorted_terms():
            if word.is_empty():
                text = str(coeff)
                if coeff.term_count() > 1:
                    text = f"({text})"
                parts.append(text)
            else:
                parts.append(coeff.as_product_prefix() + str(word))
        return join_signed(parts)

    def __repr__(self) -> str:
        return f"Element({self})"


def _power_work(terms: int, dense: int, degree: int, bits: int, n: int) -> int:
    """Coefficient products of `Element.__pow__`, weighted by operand size.

    Follows the squarings and multiplications of `_Arithmetic.__pow__` on a
    bound of each factor: its words, its nonzero h-coefficients per word,
    its h-degree and the bits of its coordinates (which add up in a
    product).  A product of two coefficients costs one unit per pair of
    started 1024-bit limbs, so `(1+h)^1000` costs about 4 * 10**5 units.
    """

    def times(a, b):
        (t1, c1, d1, b1), (t2, c2, d2, b2) = a, b
        work = t1 * t2 * c1 * c2 * (1 + b1 // 1024) * (1 + b2 // 1024)
        return (t1 * t2, min(c1 * c2, d1 + d2 + 1), d1 + d2, b1 + b2), work

    out, base, total = None, (terms, dense, degree, bits), 0
    while True:
        if n & 1:
            if out is None:
                out = base
            else:
                out, work = times(out, base)
                total += work
        n >>= 1
        if not n:
            return total
        base, work = times(base, base)
        total += work


def grade_of(x: Element, zero: Grade):
    """Common grade of all words of x, or None if x is inhomogeneous.

    The zero element is homogeneous of every grade and reports the zero grade.
    """
    grade = None
    for word in x.terms:
        g = word.grade(zero)
        if grade is None:
            grade = g
        elif grade != g:
            return None
    return zero if grade is None else grade


def homogeneous_components(x: Element, zero: Grade) -> dict:
    """Split x by grade; the pieces sum back to x and each is homogeneous."""
    pairs = {}
    for word, coeff in x.terms.items():
        pairs.setdefault(word.grade(zero), []).append((word, coeff))
    return {g: Element(p) for g, p in pairs.items()}
