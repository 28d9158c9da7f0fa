"""Words, sparse elements, grading helpers of the free algebra."""
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epsalg import (
    EMPTY_WORD,
    Algebra,
    Element,
    Generator,
    Grade,
    H,
    H_ONE,
    HPoly,
    ReductionSystem,
    Scalar,
    Word,
    eps_c,
    grade_of,
    homogeneous_components,
    parse_preset,
)
from epsalg.freealg import _power_work
from epsalg.presets import PRESETS
from value_strategies import ELEMENTS, X, Y, Z, big_fractions, elements, specials, words


def test_word_basics():
    w = Word((X, Y)) * Word((Y,))
    assert len(w) == 3
    assert w.letters == (X, Y, Y)
    assert w[0] is X
    assert w[1:].letters == (Y, Y)
    assert w.grade(Grade.zero(2)) == Grade((1, 2))
    assert EMPTY_WORD.is_empty() and len(EMPTY_WORD) == 0


MODULAR = [Generator("m", i, Grade(c, (3, 0))) for i, c in enumerate([(1, 0), (2, -1), (-4, 5)])]


def _letterwise_grade(word, zero):
    g = zero
    for letter in word:
        g = g + letter.grade
    return g


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(MODULAR), max_size=12), st.sampled_from([(0, 0), (2, -7)]))
def test_word_grade_matches_the_letterwise_sum(letters, start):
    word = Word(letters)
    zero = Grade(start, (3, 0))
    assert word.grade(zero) == _letterwise_grade(word, zero)


@pytest.mark.parametrize("preset", ["ext:n=3", "cex"])
def test_word_grade_matches_the_letterwise_sum_on_presets(preset):
    alg = parse_preset(preset)
    gens = alg.generators
    word = Word(gens[k % len(gens)] for k in (0, 1, 1, 2, 3, 0, 2, 2, 1))
    assert word.grade(alg.zero_grade) == _letterwise_grade(word, alg.zero_grade)


def test_word_grade_refuses_a_foreign_grade_group():
    with pytest.raises(ValueError, match="grade group mismatch"):
        Word((X, MODULAR[0])).grade(Grade.zero(2))
    with pytest.raises(ValueError, match="grade group mismatch"):
        Word((X,)).grade(Grade.zero(3))


def test_word_str_compresses_runs():
    assert str(Word((X, X, X))) == "x^3"
    assert str(Word((X, Y, Y))) == "x*y^2"
    assert str(EMPTY_WORD) == "1"


def test_word_str_joins_runs_of_equal_letters_not_of_equal_labels():
    first, again = Generator("a", 1, Grade((1, 0))), Generator("a", 1, Grade((1, 0)))
    assert first is again
    assert str(Word((first, again))) == "a1^2"
    assert str(Word((again, first, first, X))) == "a1^3*x"
    # the same name and index, another grade: another letter
    other = Generator("a", 1, Grade((0, 1)))
    assert other != first and other.sort_key() == first.sort_key()
    assert str(Word((first, other))) == "a1*a1"
    assert str(Word((first, again, other))) == "a1^2*a1"


def test_deglex_order():
    # length first, then letterwise by generator key
    assert Word((X,)).sort_key() < Word((X, X)).sort_key()
    assert Word((X, Y)).sort_key() < Word((Y, X)).sort_key()


@given(elements, elements, elements)
@specials(ELEMENTS, ELEMENTS, ELEMENTS)
def test_element_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * Element.one() == a
    assert a - a == Element.zero()


@given(elements)
@specials(ELEMENTS)
def test_scalar_action(a):
    assert a * 2 + a == a * 3
    assert a * H * H == a * (H * H)
    assert (a * Scalar(0, 1, 0, 0)) * Scalar(0, -1, 0, 0) == a


# Pairs over two words with coefficients in -2..2 repeat words, sum to zero
# and carry zero coefficients often; odd ones come as HPolys and even ones as
# ints, so coefficients are passed through and coerced.
pairs = st.lists(
    st.tuples(st.sampled_from([Word((X,)), Word((X, Y))]), st.integers(-2, 2)), max_size=8
)


@settings(max_examples=50)
@given(pairs)
def test_constructor_merges_pairs_like_a_dict(ps):
    want = {}
    for word, c in ps:
        want[word] = want.get(word, 0) + c
    e = Element((word, HPoly.of(c) if c % 2 else c) for word, c in ps)
    assert e.terms == {w: HPoly.of(c) for w, c in want.items() if c}
    assert all(e.terms.values())
    assert Element.sum(Element({w: c}) for w, c in ps) == e
    assert Element(dict(ps)) == Element(list(dict(ps).items()))


def test_element_from_pieces():
    e = Element.from_word(X) * Y + Element.scalar(2)
    assert e.coefficient(Word((X, Y))) == HPoly.of(1)
    assert e.coefficient(EMPTY_WORD) == HPoly.of(2)
    assert e.coefficient(Word((Y, X))) == HPoly.of(0)


def test_division_and_power():
    e = Element.from_word(X) * 4
    assert e / 2 == Element.from_word(X) * 2
    assert (Element.from_word(X) + Element.from_word(Y)) ** 2 == (
        Element.from_word(Word((X, X)))
        + Element.from_word(Word((X, Y)))
        + Element.from_word(Word((Y, X)))
        + Element.from_word(Word((Y, Y)))
    )


def test_power_by_squaring_matches_repeated_products():
    e = Element.from_word(X) * 2 + Element.from_word(Y) * H
    prod = Element.one()
    for n in range(8):
        assert e**n == prod
        prod = prod * e
    assert (Element.from_word(X) * 3) ** 25 == Element.from_word(Word((X,) * 25)) * 3**25


def test_power_refuses_an_expansion_beyond_a_million_words():
    e = Element.from_word(X) + Element.from_word(Y)
    assert len((e**10).terms) == 2**10
    with pytest.raises(ValueError, match="more than 10\\*\\*6 words"):
        e**20
    with pytest.raises(ValueError, match="more than 10\\*\\*6 words"):
        (e + Element.one()) ** 13


def test_product_refuses_a_word_beyond_a_million_letters():
    long, short = Element.from_word(Word((X,) * (10**6 - 2))), Element.from_word(Word((Y, Y)))
    mixed = short + Element.from_word(X) * 3
    assert len(next(iter((long * short).terms))) == 10**6
    assert len((short * long * Element.one()).terms) == 1
    for left, right, m, n in ((long, mixed * X, 10**6 - 2, 3), (mixed, long * X, 2, 10**6 - 1)):
        with pytest.raises(ValueError) as err:
            left * right
        assert str(err.value) == f"({m}-letter word)*({n}-letter word) exceeds 10**6 letters"
    with pytest.raises(ValueError, match="10\\*\\*6 letters"):
        X * (long * Word((Y, Y)))
    assert long * Element.zero() == Element.zero()


def test_power_refuses_coefficients_beyond_a_million_bits_or_degrees():
    assert (Element.one() * (1 + Scalar(0, 1))) ** 64 == Element.scalar(2**32)
    with pytest.raises(ValueError, match="h-degree 10\\*\\*6"):
        Element.scalar(H) ** (10**6 + 1)
    with pytest.raises(ValueError, match="10\\*\\*6 bits"):
        Element.scalar(Fraction(1, 3)) ** (5 * 10**5 + 1)
    assert len((Element.scalar(3) ** (5 * 10**5)).terms) == 1


def _scalar_read_refusal(e: Element, n: int):
    """The refusal of `e ** n` with every coefficient read as Scalars, one per
    h-degree, as the checks were written before HPoly was stored flat."""
    k = len(e.terms)
    if k > 1 and (n >= 20 or k**n > 10**6):
        return f"({k} terms)^{n} would expand to more than 10**6 words"
    longest = max(map(len, e.terms), default=0)
    if longest * n > 10**6:
        return f"({longest}-letter word)^{n} exceeds 10**6 letters"
    degree = e.h_degree()
    if degree * n > 10**6:
        return f"(h-degree {degree})^{n} exceeds h-degree 10**6"
    scalars = [s for c in e.terms.values() for s in c.coeffs]
    bits = max((max(s.d, *map(abs, s.n)).bit_length() for s in scalars), default=0)
    if bits * n > 10**6:
        return f"({bits}-bit coefficient)^{n} exceeds 10**6 bits"
    dense = max((sum(1 for s in c.coeffs if s) for c in e.terms.values()), default=0)
    if n > 1 and _power_work(k, dense, degree, bits, n) > 10**6:
        return f"({k} terms of h-degree {degree})^{n} exceeds 10**6 units of coefficient work"
    return None


sparse_hpolys = st.lists(st.one_of(st.just(0), big_fractions), max_size=5).map(HPoly)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(words, sparse_hpolys, max_size=3).map(Element), st.integers(2, 10**6))
@example(Element.scalar(HPoly((Fraction(1, 2), Fraction(1, 3)))), 5 * 10**5)
@example(Element.scalar(HPoly((Fraction(1, 6), 0, Fraction(5, 4)))), 340_000)
def test_power_refusals_read_each_h_coefficient_in_lowest_terms(e, n):
    want = _scalar_read_refusal(e, n)
    assume(want is not None)
    with pytest.raises(ValueError) as err:
        e**n
    assert str(err.value) == want


def test_h_coefficient_extraction():
    e = Element.from_word(X) * (H * H + 1) + Element.scalar(H * 3)
    assert e.h_coefficient(0) == Element.from_word(X)
    assert e.h_coefficient(1) == Element.scalar(3)
    assert e.h_coefficient(2) == Element.from_word(X)
    assert e.h_degree() == 2


def test_tau_acts_on_coefficients():
    e = Element.from_word(X) * Scalar(0, 1, 0, 0)
    assert e.tau() == Element.from_word(X) * Scalar(0, -1, 0, 0)


def test_generators_hash_and_compare_by_value():
    twin = Generator("x", None, Grade((1, 0)))
    assert twin == X and twin is X
    assert X != Generator("x", 1, Grade((1, 0)))


def _formatted_label(g):
    """The label as it was formatted on every read."""
    return g.name if g.index is None else f"{g.name}{g.index}"


_LABEL_PRESETS = [
    f"{name}:n={n}" if "n" in params else sample
    for name, (params, sample, _) in PRESETS.items()
    for n in ((1, 2, 3) if "n" in params else (None,))
]


@pytest.mark.parametrize("preset", _LABEL_PRESETS)
def test_every_preset_letter_keeps_the_formatted_label(preset):
    alg = parse_preset(preset)
    for g in alg.generators:
        assert g.label == _formatted_label(g) == str(g)
        assert alg.gen(g.label) is g


def test_a_built_generator_keeps_the_formatted_label():
    grade = Grade((1, 0))
    gens = [Generator("x", None, grade), Generator("a", 1, grade), Generator("ad", 12, grade),
            Generator("v", 0, grade)]
    assert [g.label for g in gens] == ["x", "a1", "ad12", "v0"]
    alg = Algebra("built", None, ReductionSystem(gens, []), eps_c(2), 0)
    for g in gens:
        assert g.label == _formatted_label(g) == str(g)
        assert alg.gen(g.label) is g


def test_of_coerces_or_raises():
    assert Scalar.of(2) == Scalar(2) and HPoly.of(Fraction(1, 2)) == H_ONE / 2
    assert Element.of(Word((X,))) == Element.from_word(X)
    for cls in (Scalar, HPoly, Element):
        with pytest.raises(TypeError, match=cls.__name__):
            cls.of("x")
    with pytest.raises(TypeError):
        Scalar.of(H)


def test_grade_of():
    zero = Grade.zero(2)
    assert grade_of(Element.from_word(Word((X, Y))), zero) == Grade((1, 1))
    assert grade_of(Element.zero(), zero) == zero
    assert grade_of(Element.one(), zero) == zero
    mixed = Element.from_word(X) + Element.from_word(Y)
    assert grade_of(mixed, zero) is None
    # distinct words may still share a grade
    same = Element.from_word(Word((X, Y))) + Element.from_word(Z)
    assert grade_of(same, zero) == Grade((1, 1))


@given(elements)
@specials(ELEMENTS)
def test_components_partition(a):
    zero = Grade.zero(2)
    parts = homogeneous_components(a, zero)
    total = Element.zero()
    for g, part in parts.items():
        assert grade_of(part, zero) == g
        total = total + part
    assert total == a


def test_str_frozen():
    e = Element.from_word(Word((X, X))) * 2 - Element.from_word(Y) + Element.scalar(H + 1)
    assert str(e) == "2*x^2 - y + (h + 1)"
    assert str(Element.zero()) == "0"
    assert str(Element.one()) == "1"


# Which operands + - * / accept on each side, as before the three classes
# shared one arithmetic base.  Each row gives `left op right` and then
# `right op left` against int, Fraction, Scalar, H_ONE, H, Element, Word and
# str; S, P, E name the result type, T and V the TypeError or ValueError.
OPERAND_TABLE = [
    "Scalar  + SSSPPETT SSSPPETT",
    "Scalar  - SSSPPETT SSSPPETT",
    "Scalar  * SSSPPETT SSSPPETT",
    "Scalar  / SSSTTTTT SSSPPETT",
    "HPoly   + PPPPPETT PPPPPETT",
    "HPoly   - PPPPPETT PPPPPETT",
    "HPoly   * PPPPPETT PPPPPETT",
    "HPoly   / PPPPVTTT TTTVVVTT",
    "Element + EEEEEEET EEEEEEET",
    "Element - EEEEEEET EEEEEEET",
    "Element * EEEEEEET EEEEEEET",
    "Element / EEEEVTTT TTTTTTTT",
]


@pytest.mark.parametrize("row", OPERAND_TABLE, ids=[" ".join(r.split()[:2]) for r in OPERAND_TABLE])
def test_operands_accepted_and_refused(row):
    lefts = {
        "Scalar": Scalar(2, 1),
        "HPoly": H * Scalar(0, 1) + 3,
        "Element": Element.from_word(X) * 2 + 1,
    }
    rights = [3, Fraction(1, 3), Scalar(2, 1), H_ONE, H, Element.from_word(Y), Word((X,)), "x"]
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    names = {"S": Scalar, "P": HPoly, "E": Element, "T": TypeError, "V": ValueError}
    left, op, forward, reflected = row.split()
    x, fn = lefts[left], ops[op]
    for want, pairs in ((forward, [(x, y) for y in rights]), (reflected, [(y, x) for y in rights])):
        for code, (a, b) in zip(want, pairs):
            expected = names[code]
            if issubclass(expected, Exception):
                with pytest.raises(expected):
                    fn(a, b)
            else:
                assert type(fn(a, b)) is expected, (a, op, b)
