"""A word is the tuple of its letters: the `Word` class against its former
wrapper definition, and a guard on how memo keys are hashed.

`OracleWord` is the wrapper class `Word` was before it became a `tuple`
subclass, copied with its body: a cached hash behind a Python `__hash__`,
equality only between words, and its own `__len__`/`__iter__`.  Every
method a caller of `Word` reads must agree with it.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsalg import EMPTY_WORD, Generator, Grade, Word, parse_preset
from value_strategies import X, Y


class OracleWord:
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
        return isinstance(other, OracleWord) and self.letters == other.letters

    def __mul__(self, other):
        if isinstance(other, OracleWord):
            return OracleWord(self.letters + other.letters)
        if isinstance(other, Generator):
            return OracleWord(self.letters + (other,))
        return NotImplemented

    def __getitem__(self, item):
        got = self.letters[item]
        return OracleWord(got) if isinstance(item, slice) else got

    def is_empty(self) -> bool:
        return not self.letters

    def grade(self, zero: Grade) -> Grade:
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
            if letter is run:
                count += 1
                continue
            parts.append(run.label if count == 1 else f"{run.label}^{count}")
            run, count = letter, 1
        parts.append(run.label if count == 1 else f"{run.label}^{count}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Word({self})"


# Letters of two presets: one grade group of dimension 2 each, so a word
# that mixes them has no grade and both classes must refuse it alike.
BOSON, FERMION = parse_preset("boson:n=2"), parse_preset("fermion:n=2")
LETTERS = BOSON.generators + FERMION.generators
letter_tuples = st.lists(st.sampled_from(LETTERS), max_size=7).map(tuple)


def _grade_or_error(word, zero):
    try:
        return word.grade(zero)
    except ValueError as exc:
        return str(exc)


def _agree(new, old):
    assert type(new) is Word and type(old) is OracleWord
    assert len(new) == len(old)
    assert list(new) == list(old)
    assert str(new) == str(old)
    assert repr(new) == repr(old)
    assert new.sort_key() == old.sort_key()
    assert new.is_empty() == old.is_empty()


@settings(max_examples=150, deadline=None)
@given(letter_tuples, letter_tuples, st.sampled_from(LETTERS), st.integers(-8, 8), st.integers(-8, 8))
@example((), (), LETTERS[0], 0, 0)
@example((LETTERS[1],) * 4, (LETTERS[1], LETTERS[1]), LETTERS[1], 1, -1)
def test_word_agrees_with_the_former_wrapper(t, u, g, i, j):
    new, old = Word(t), OracleWord(t)
    new2, old2 = Word(u), OracleWord(u)
    _agree(new, old)
    _agree(new2, old2)
    assert (new == new2) == (old == old2)
    for alg in (BOSON, FERMION):
        assert _grade_or_error(new, alg.zero_grade) == _grade_or_error(old, alg.zero_grade)
    for k in range(-len(t), len(t)):
        assert new[k] is old[k]
    for piece in (slice(i, j), slice(i, None), slice(None, j), slice(None, None, -1)):
        _agree(new[piece], old[piece])
    _agree(new * new2, old * old2)
    _agree(new * g, old * g)


@given(letter_tuples, letter_tuples, st.sampled_from(LETTERS))
def test_word_is_the_tuple_of_its_letters(t, u, g):
    w, v = Word(t), Word(u)
    assert w == t and t == w
    assert hash(w) == hash(t)
    assert Word(g) == Word((g,))
    assert Word(w + v) == w * v
    assert type(w + v) is tuple
    assert w.letters is w
    assert not hasattr(w, "__dict__")
    assert {w: 1}[t] == 1


def test_star_is_only_the_free_product():
    w = Word((X, Y))
    for bad in (lambda: w * 3, lambda: 3 * w, lambda: w * 2.0):
        with pytest.raises(TypeError):
            bad()
    assert EMPTY_WORD * w == w * EMPTY_WORD == w


def test_word_is_a_bare_tuple_subclass():
    assert issubclass(Word, tuple) and Word.__slots__ == ()
    assert not {"__init__", "__eq__", "__hash__", "__len__", "__iter__"} & set(vars(Word))


def test_memo_keys_are_hashed_in_c():
    """Every memo keys on words, letters or grades; none of them may bring
    back a hash written in Python."""
    assert Word.__hash__ is tuple.__hash__
    assert Generator.__hash__ is object.__hash__
    assert Grade.__hash__ is object.__hash__
