"""Free associative algebra over K[h] on graded generators.

Words are immutable letter tuples, elements are sparse dictionaries mapping
words to h-polynomial coefficients with zero values never stored.  The
product is plain concatenation extended bilinearly; all quotient structure
lives in the rewrite engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grading import Grade
from .scalars import H_ONE, HPoly, Scalar, _Arithmetic


@dataclass(frozen=True)
class Generator:
    name: str
    index: int | None
    grade: Grade

    @property
    def label(self) -> str:
        return self.name if self.index is None else f"{self.name}{self.index}"

    def sort_key(self):
        return (self.name, self.index if self.index is not None else 0)

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
        g = zero
        for letter in self.letters:
            g = g + letter.grade
        return g

    def sort_key(self):
        return (len(self.letters), tuple(g.sort_key() for g in self.letters))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        run, count = self.letters[0], 1
        for letter in self.letters[1:]:
            if letter == run:
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

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                c = HPoly.of(coeff)
                if c:
                    self.terms[word] = c

    @staticmethod
    def _coerce(value):
        if isinstance(value, Element):
            return value
        if isinstance(value, (int, Fraction, Scalar, HPoly)):
            return Element.scalar(value)
        if isinstance(value, (Word, Generator)):
            return Element.from_word(value)
        return None

    @staticmethod
    def zero() -> Element:
        return Element()

    @staticmethod
    def one() -> Element:
        return Element({EMPTY_WORD: H_ONE})

    @staticmethod
    def from_word(word, coeff=1) -> Element:
        if isinstance(word, Generator):
            word = Word(word)
        return Element({word: coeff})

    @staticmethod
    def scalar(value) -> Element:
        return Element({EMPTY_WORD: HPoly.of(value)})

    def is_zero(self) -> bool:
        return not self.terms

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
        out = dict(self.terms)
        for word, coeff in o.terms.items():
            c = out.get(word)
            c = coeff if c is None else c + coeff
            if c:
                out[word] = c
            elif word in out:
                del out[word]
        result = Element()
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> Element:
        result = Element()
        result.terms = {w: -c for w, c in self.terms.items()}
        return result

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar, HPoly)):
            c = HPoly.of(other)
            result = Element()
            if c:
                result.terms = {w: v * c for w, v in self.terms.items()}
            return result
        if isinstance(other, (Word, Generator)):
            other = Element.from_word(other)
        if not isinstance(other, Element):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                c = c1 * c2
                prev = out.get(w)
                c = c if prev is None else prev + c
                if c:
                    out[w] = c
                elif w in out:
                    del out[w]
        result = Element()
        result.terms = out
        return result

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar, HPoly)):
            return self * other
        if isinstance(other, (Word, Generator)):
            return Element.from_word(other) * self
        return NotImplemented

    def __pow__(self, n: int) -> Element:
        """Refused before any product past 10**6 words or 10**6 letters in a word."""
        if isinstance(n, int):
            k = len(self.terms)
            if k > 1 and (n >= 20 or k**n > 10**6):  # 2**20 > 10**6
                raise ValueError(f"({k} terms)^{n} would expand to more than 10**6 words")
            longest = max(map(len, self.terms), default=0)
            if longest * n > 10**6:
                raise ValueError(f"({longest}-letter word)^{n} exceeds 10**6 letters")
        return super().__pow__(n)

    def coefficient(self, word: Word) -> HPoly:
        return self.terms.get(word, HPoly())

    def sorted_terms(self):
        """Terms in descending degree-lexicographic order for stable output."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)

    def map_coefficients(self, fn) -> Element:
        result = Element()
        for w, c in self.terms.items():
            v = fn(c)
            if v:
                result.terms[w] = v
        return result

    def h_coefficient(self, k: int) -> Element:
        """The element of h-degree k, with constant coefficients."""
        result = Element()
        for w, c in self.terms.items():
            v = c.coefficient(k)
            if v:
                result.terms[w] = HPoly.of(v)
        return result

    def h_degree(self) -> int:
        return max((c.degree for c in self.terms.values()), default=-1)

    def tau(self) -> Element:
        return self.map_coefficients(lambda c: c.tau())

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
        from .scalars import join_signed

        return join_signed(parts)

    def __repr__(self) -> str:
        return f"Element({self})"


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
    out = {}
    for word, coeff in x.terms.items():
        g = word.grade(zero)
        bucket = out.setdefault(g, Element())
        bucket.terms[word] = coeff
    return out
