"""Expression grammar of the CLI and of `Algebra.parse`.

    expr    := term (('+' | '-') term)*
    term    := '-' term | product
    product := power (('*' | '/') power)*
    power   := atom ('^' INT)?
    atom    := INT | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Unary minus binds below '*', so -a*b is -(a*b).  Reserved identifiers are
h, I and r2; everything else resolves against the algebra's generator
labels or the installed function table (comm, pb, J in the CLI).  An INT
is a run of the ASCII digits 0-9, at most `scalars.MAX_DIGITS` of them.
Errors carry byte offsets into the source text.

Parsing, printing and evaluation recurse once per nesting level and once per
operator in a chain.  Each recursive step is a generator that yields its
sub-steps to `_trampoline`, so depth costs heap, not Python stack.

The grammar is the same for every text, but `element_from_text` reads a
monomial as one word: a text that is nothing but generator labels, each
bare or raised to at most six ASCII digits, joined by '*' with no spaces
(`_MONOMIAL`), becomes the element of that one word with coefficient 1,
which is what evaluating it gives.  Any other text, a reserved name, an
unknown label or a word past `freealg.MAX_LETTERS` letters included, goes
through the tokenizer, parser and evaluator, which make every refusal and
its offset.
"""
from __future__ import annotations

import re

from .freealg import EMPTY_WORD, MAX_LETTERS, Element, Word
from .scalars import MAX_DIGITS, H, I, R2, HPoly, Scalar, _Value


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


class EvalError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


_OPS = set("+-*/^(),")
# str.isdigit() also holds for superscripts and other scripts' digits.
_DIGITS = frozenset("0123456789")


def tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal with more than {MAX_DIGITS} digits", i)
            tokens.append(Token("INT", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", src[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("END", "", n))
    return tokens


class _Node(_Value):
    """A syntax node: equal, and hashed, by the subclass's `__slots__`, its own
    fields; `pos`, declared here, only places errors and shows last in `repr`."""

    __slots__ = ("pos",)


class Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value: int, pos: int = 0):
        self.value = value
        self.pos = pos


class Sym(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str, pos: int = 0):
        self.name = name
        self.pos = pos


class Neg(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg, pos: int = 0):
        self.arg = arg
        self.pos = pos


class BinOp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right, pos: int = 0):
        self.op = op
        self.left = left
        self.right = right
        self.pos = pos


class Pow(_Node):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp: int, pos: int = 0):
        self.base = base
        self.exp = exp
        self.pos = pos


class Call(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple, pos: int = 0):
        self.name = name
        self.args = args
        self.pos = pos


def _trampoline(step):
    """Run a generator that yields sub-generators and receives their results."""
    stack, value = [step], None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(sub)
            value = None
    return value


class _Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.k = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def next(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        return self.next()

    def parse(self):
        node = _trampoline(self.expr())
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = yield self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            node = BinOp(tok.kind, node, (yield self.term()), tok.pos)
        return node

    def term(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return Neg((yield self.term()), tok.pos)
        return (yield self.product())

    def product(self):
        node = yield self.power()
        while self.peek().kind in ("*", "/"):
            tok = self.next()
            node = BinOp(tok.kind, node, (yield self.power()), tok.pos)
        return node

    def power(self):
        node = yield self.atom()
        if self.peek().kind == "^":
            tok = self.next()
            exp = self.expect("INT")
            node = Pow(node, int(exp.text), tok.pos)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return Num(int(tok.text), tok.pos)
        if tok.kind == "IDENT":
            self.next()
            if self.peek().kind == "(":
                self.next()
                args = [(yield self.expr())]
                while self.peek().kind == ",":
                    self.next()
                    args.append((yield self.expr()))
                self.expect(")")
                return Call(tok.text, tuple(args), tok.pos)
            return Sym(tok.text, tok.pos)
        if tok.kind == "(":
            self.next()
            node = yield self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {tok.text or 'end'!r}", tok.pos)


def parse(src: str):
    """Source text to syntax tree; positions excluded from node equality."""
    return _Parser(src).parse()


_LEVEL_ADD, _LEVEL_NEG, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _render(node, need: int):
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Call):
        inner = []
        for a in node.args:
            inner.append((yield _render(a, _LEVEL_ADD)))
        return f"{node.name}({', '.join(inner)})"
    if isinstance(node, Neg):
        text, level = "-" + (yield _render(node.arg, _LEVEL_NEG)), _LEVEL_NEG
    elif isinstance(node, BinOp) and node.op in "+-":
        left = yield _render(node.left, _LEVEL_ADD)
        text = f"{left} {node.op} {(yield _render(node.right, _LEVEL_NEG))}"
        level = _LEVEL_ADD
    elif isinstance(node, BinOp):
        left = yield _render(node.left, _LEVEL_MUL)
        text = f"{left}{node.op}{(yield _render(node.right, _LEVEL_POW))}"
        level = _LEVEL_MUL
    elif isinstance(node, Pow):
        text, level = f"{(yield _render(node.base, _LEVEL_ATOM))}^{node.exp}", _LEVEL_POW
    else:
        raise TypeError(f"not a syntax node: {node!r}")
    return f"({text})" if level < need else text


def print_expr(node) -> str:
    """Inverse of parse up to positions: parse(print_expr(t)) == t."""
    return _trampoline(_render(node, _LEVEL_ADD))


_RESERVED = {"h": H, "I": I, "r2": R2}


def evaluate(node, atoms: dict, functions: dict = None) -> Element:
    functions = functions or {}

    def run(n) -> Element:
        if isinstance(n, Num):
            return Element.scalar(n.value)
        if isinstance(n, Sym):
            if n.name in _RESERVED:
                return Element.scalar(_RESERVED[n.name])
            got = atoms.get(n.name)
            if got is None:
                raise EvalError(f"unknown generator {n.name!r}", n.pos)
            return got
        if isinstance(n, Neg):
            return -(yield run(n.arg))
        if isinstance(n, BinOp):
            left = yield run(n.left)
            right = yield run(n.right)
            if n.op == "+":
                return left + right
            if n.op == "-":
                return left - right
            if n.op == "*":
                return left * right
            denom = _as_scalar(right)
            if denom is None:
                raise EvalError("division only by scalars", n.pos)
            if denom.is_zero():
                raise EvalError("division by zero", n.pos)
            return left * denom.inverse()
        if isinstance(n, Pow):
            return (yield run(n.base)) ** n.exp
        if isinstance(n, Call):
            fn = functions.get(n.name)
            if fn is None:
                raise EvalError(f"unknown function {n.name!r}", n.pos)
            arity, call = fn
            if len(n.args) != arity:
                raise EvalError(
                    f"{n.name} takes {arity} arguments, got {len(n.args)}", n.pos
                )
            args = []
            for a in n.args:
                args.append((yield run(a)))
            return call(*args)
        raise TypeError(f"not a syntax node: {n!r}")

    return _trampoline(run(node))


def _as_scalar(x: Element):
    if x.is_zero():
        return Scalar()
    if set(x.terms) != {EMPTY_WORD}:
        return None
    coeff = x.terms[EMPTY_WORD]
    if not coeff.is_constant():
        return None
    return coeff.constant()


# An identifier, bare or raised to at most six digits (below the 10**6
# letters a power may have), in ASCII alone and with no spaces.
_FACTOR = r"[A-Za-z_]\w*(?:\^\d{1,6})?"
_MONOMIAL = re.compile(rf"{_FACTOR}(?:\*{_FACTOR})*", re.ASCII)


def _monomial_word(text: str, by_label: dict):
    """The word of a monomial text (module docstring), or None when the text
    is not one, names a reserved identifier or a label not in `by_label`, or
    holds more than `MAX_LETTERS` letters."""
    if _MONOMIAL.fullmatch(text) is None:
        return None
    letters = []
    for factor in text.split("*"):
        label, _, exp = factor.partition("^")
        g = by_label.get(label)
        if g is None or label in _RESERVED:
            return None
        count = int(exp) if exp else 1
        if len(letters) + count > MAX_LETTERS:  # the general path refuses it
            return None
        letters += [g] * count
    return Word(letters)


def element_from_text(text: str, alg, functions: dict = None) -> Element:
    word = _monomial_word(text, alg._by_label)
    if word is not None:
        return Element.from_word(word)
    atoms = {g.label: Element.from_word(g) for g in alg.generators}
    return evaluate(parse(text), atoms, functions)


def hpoly_from_text(text: str) -> HPoly:
    """A polynomial in h: an expression in numbers, h, I and r2 alone."""
    return evaluate(parse(text), {}).coefficient(EMPTY_WORD)


def scalar_from_text(text: str) -> Scalar:
    got = hpoly_from_text(text)
    if not got.is_constant():
        raise ParseError(f"{text!r} is not a scalar", 0)
    return got.constant()
