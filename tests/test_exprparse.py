"""Grammar, tree printer, and evaluation of the little expression language."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsalg import (
    BinOp,
    Call,
    Element,
    EvalError,
    H,
    I,
    Neg,
    Num,
    ParseError,
    Pow,
    R2,
    Scalar,
    Sym,
    Word,
    build_noa,
    element_from_text,
    evaluate,
    parse,
    parse_preset,
    print_expr,
    scalar_from_text,
)
from epsalg.exprparse import _monomial_word


# ------------------------------------------------------------------- parsing


def test_precedence():
    assert parse("1 + 2*3") == BinOp("+", Num(1), BinOp("*", Num(2), Num(3)))
    assert parse("(1 + 2)*3") == BinOp("*", BinOp("+", Num(1), Num(2)), Num(3))
    assert parse("a^2*b") == BinOp("*", Pow(Sym("a"), 2), Sym("b"))
    assert parse("a*b^2") == BinOp("*", Sym("a"), Pow(Sym("b"), 2))


def test_left_associativity():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Num(1), Num(2)), Num(3))
    assert parse("8/2/2") == BinOp("/", BinOp("/", Num(8), Num(2)), Num(2))


def test_unary_minus_binds_below_product():
    assert parse("-a*b") == Neg(BinOp("*", Sym("a"), Sym("b")))
    assert parse("1 - -a") == BinOp("-", Num(1), Neg(Sym("a")))


def test_calls():
    assert parse("f(a, b + 1)") == Call("f", (Sym("a"), BinOp("+", Sym("b"), Num(1))))
    assert parse("J(ad1)") == Call("J", (Sym("ad1"),))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError, match=r"offset 4") as exc:
        parse("a1 ** ad1")
    assert exc.value.pos == 4
    with pytest.raises(ParseError, match="unexpected character"):
        parse("a1 @ 2")
    with pytest.raises(ParseError, match="trailing input"):
        parse("1 1")
    with pytest.raises(ParseError, match="expected 'INT'"):
        parse("a ^ b")
    with pytest.raises(ParseError, match="unexpected token"):
        parse("(1 + )")
    with pytest.raises(ParseError):
        parse("")


_trees = st.deferred(
    lambda: st.one_of(
        st.integers(0, 9).map(Num),
        st.sampled_from(["a", "b", "h"]).map(Sym),
        st.tuples(st.sampled_from("+-*/"), _trees, _trees).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        _trees.map(Neg),
        st.tuples(_trees, st.integers(0, 4)).map(lambda t: Pow(t[0], t[1])),
        st.tuples(st.sampled_from(["f", "g"]), st.lists(_trees, min_size=1, max_size=2)).map(
            lambda t: Call(t[0], tuple(t[1]))
        ),
    )
)


@given(_trees)
def test_print_then_parse_is_identity(tree):
    assert parse(print_expr(tree)) == tree


# ---------------------------------------------------------------- evaluation


def test_reserved_symbols():
    assert scalar_from_text("I^2") == Scalar.of(-1)
    assert scalar_from_text("r2^2") == Scalar.of(2)
    assert scalar_from_text("(1 + I)*(1 - I)") == Scalar.of(2)
    assert evaluate(parse("h"), {}) == Element.scalar(H)


def test_element_from_text():
    alg = build_noa("c", 2)
    x = element_from_text("2*ad1*a2 - a2*ad1", alg)
    assert x == alg.parse("ad1*a2") * 2 - alg.parse("a2") * alg.parse("ad1")


def test_division():
    alg = build_noa("c", 1)
    assert element_from_text("a1/2", alg) == alg.parse("a1") / 2
    assert scalar_from_text("3/4") == Scalar.of(Fraction(3, 4))
    with pytest.raises(EvalError, match="division only by scalars"):
        element_from_text("a1/ad1", alg)
    with pytest.raises(EvalError, match="division by zero"):
        element_from_text("a1/0", alg)
    with pytest.raises(EvalError, match="division only by scalars"):
        element_from_text("a1/h", alg)


def test_unknown_names():
    alg = build_noa("c", 1)
    with pytest.raises(EvalError, match="unknown generator 'a2'"):
        element_from_text("a2", alg)
    with pytest.raises(EvalError, match="unknown function 'f'"):
        element_from_text("f(a1)", alg)


def test_function_table_and_arity():
    alg = build_noa("c", 1)
    functions = {"double": (1, lambda x: x * 2)}
    assert element_from_text("double(a1)", alg, functions) == alg.parse("a1") * 2
    with pytest.raises(EvalError, match="takes 1 arguments, got 2"):
        element_from_text("double(a1, a1)", alg, functions)


def test_scalar_from_text_rejects_words():
    with pytest.raises(EvalError, match="unknown generator"):
        scalar_from_text("a1")
    with pytest.raises(ParseError, match="is not a scalar"):
        scalar_from_text("h")


def test_power_evaluation():
    alg = build_noa("c", 1)
    assert element_from_text("(a1 + ad1)^0", alg) == Element.one()
    assert element_from_text("a1^3", alg) == alg.parse("a1*a1*a1")


# ------------------------------------------------------------------ monomials

_MONOMIAL_PRESETS = [
    f"{family}:n={n}"
    for family in ["fermion", "pseudo-fermion", "excl", "excl-dual", "boson", "pseudo-boson"]
    for n in (1, 2, 3)
] + ["cex", "ext:n=3", "qplane:2"]


def _evaluated(text, alg):
    """The general path: tokenizer, parser and evaluator."""
    return evaluate(parse(text), {g.label: Element.from_word(g) for g in alg.generators})


@st.composite
def _monomials(draw):
    alg = parse_preset(draw(st.sampled_from(_MONOMIAL_PRESETS)))
    labels = st.sampled_from([g.label for g in alg.generators])
    # No exponent, or one of 1 to 6 digits, leading zeros and 0 included.
    exps = st.one_of(st.just(""), st.tuples(st.integers(1, 6), st.integers(0, 12)).map(
        lambda z: "^" + str(z[1]).zfill(z[0])))
    factors = draw(st.lists(st.tuples(labels, exps), min_size=1, max_size=10))
    return alg, "*".join(label + exp for label, exp in factors)


@settings(max_examples=200, deadline=None)
@given(_monomials())
def test_a_monomial_is_read_as_the_word_the_evaluator_builds(case):
    alg, text = case
    assert _monomial_word(text, alg._by_label) is not None
    got, want = element_from_text(text, alg), _evaluated(text, alg)
    assert got == want and str(got) == str(want)


@pytest.mark.parametrize(
    "text, result",
    [
        ("a1 * a2", "a1*a2"),
        ("h*a1", "h*a1"),
        ("r2*a1", "r2*a1"),
        ("I", "I"),
        ("a1²", "EvalError: unknown generator 'a1²' (offset 0)"),
        ("a1*", "ParseError: unexpected token 'end' (offset 3)"),
        ("a1^", "ParseError: expected 'INT', found 'end' (offset 3)"),
        ("a1^-1", "ParseError: expected 'INT', found '-' (offset 3)"),
        ("a1^1000001", "ValueError: (1-letter word)^1000001 exceeds 10**6 letters"),
        ("a1^1000000*a1", "ValueError: (1000000-letter word)*(1-letter word) exceeds 10**6 letters"),
        # A monomial past 10**6 letters is left to the general path, which refuses it.
        ("a1^999999*a2^2", "ValueError: (999999-letter word)*(2-letter word) exceeds 10**6 letters"),
        ("b7", "EvalError: unknown generator 'b7' (offset 0)"),
        ("a1*b7^2", "EvalError: unknown generator 'b7' (offset 3)"),
    ],
)
def test_other_texts_take_the_general_path(text, result):
    alg = parse_preset("boson:n=2")
    assert _monomial_word(text, alg._by_label) is None
    try:
        got = str(element_from_text(text, alg))
    except ValueError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == result


def test_a_zero_power_leaves_its_letter_out():
    alg = parse_preset("boson:n=2")
    a1, a2 = alg.gen("a1"), alg.gen("a2")
    assert element_from_text("a1^0", alg) == Element.one()
    assert element_from_text("a1^000*a2^2", alg) == Element.from_word(Word((a2, a2)))
    assert element_from_text("a1^999999", alg) == Element.from_word(Word([a1] * 999999))
