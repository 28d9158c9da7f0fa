"""Reference arithmetic for the benchmark, written without epsalg.

Everything here is computed from the closed-form rules of the four
number-operator families the benchmark normal-orders (Wick's theorem per
boson mode, a four-state table per fermion mode, one sign per exchange of
letters of different modes), so it can judge epsalg's output without
sharing its reducer, its coefficient types or its parser.

Values are "polys": dicts mapping a word (tuple of letter names such as
"ad1", "a2") to a coefficient in Q(i, sqrt2)[h].  A coefficient is a dict
mapping (power of h, unit) to a nonzero Fraction, where the units 0..3
stand for 1, I, r2 and I*r2.  Zero entries are never stored, so equality
of dicts is equality of values.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

# unit_a * unit_b = sign * unit, for the basis 1, I, r2, I*r2.
_UNIT_MUL = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (1, 3), (2, 2): (2, 0), (2, 3): (2, 1),
    (3, 0): (1, 3), (3, 1): (-1, 2), (3, 2): (2, 1), (3, 3): (-2, 0),
}

# Sign picked up when two letters of different modes change places.
EXCHANGE_SIGN = {"a": -1, "a'": 1, "c": 1, "c'": -1}
FERMIONIC = {"a", "a'"}
FAMILY_OF_PRESET = {"fermion": "a", "pseudo-fermion": "a'", "boson": "c", "pseudo-boson": "c'"}

_LETTER = re.compile(r"^(ad|a)([0-9]+)$")


# ---------------------------------------------------------------- coefficients


def c_const(value, hpow: int = 0, unit: int = 0) -> dict:
    value = Fraction(value)
    return {(hpow, unit): value} if value else {}


def c_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for key, v in b.items():
        s = out.get(key, 0) + scale * v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def c_mul(a: dict, b: dict) -> dict:
    out = {}
    for (ha, ua), va in a.items():
        for (hb, ub), vb in b.items():
            sign, unit = _UNIT_MUL[ua, ub]
            key = (ha + hb, unit)
            s = out.get(key, 0) + sign * va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def c_rational(a: dict):
    """The value as a Fraction if it is a rational constant, else None."""
    if not a:
        return Fraction(0)
    if set(a) == {(0, 0)}:
        return a[0, 0]
    return None


# ----------------------------------------------------------------------- polys


def p_add(x: dict, y: dict, scale=1) -> dict:
    out = dict(x)
    for word, c in y.items():
        s = c_add(out.get(word, {}), c, scale)
        if s:
            out[word] = s
        else:
            out.pop(word, None)
    return out


def p_scale(x: dict, c: dict) -> dict:
    out = {}
    for word, v in x.items():
        s = c_mul(v, c)
        if s:
            out[word] = s
    return out


def p_mul(x: dict, y: dict) -> dict:
    """Free product: words concatenate, coefficients are central."""
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            out = p_add(out, {w1 + w2: c_mul(c1, c2)})
    return out


def p_h_coefficient(x: dict, k: int) -> dict:
    out = {}
    for word, c in x.items():
        part = {(0, u): v for (hp, u), v in c.items() if hp == k}
        if part:
            out[word] = part
    return out


# ---------------------------------------------------------------------- parser

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", int(num)))
        elif name is not None:
            tokens.append(("name", name))
        elif op in "+-*/^()":
            tokens.append(("op", op))
        else:
            raise ValueError(f"unexpected character {op!r} in {text!r}")
        pos = m.end()
    return tokens


class _Parser:
    """expr := unary (('+'|'-') unary)*, unary := '-' unary | product, ..."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", None)

    def take(self, op: str) -> bool:
        if self.peek() == ("op", op):
            self.i += 1
            return True
        return False

    def parse(self) -> dict:
        value = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input in {self.text!r}")
        return value

    def expr(self) -> dict:
        value = self.unary()
        while True:
            if self.take("+"):
                value = p_add(value, self.unary())
            elif self.take("-"):
                value = p_add(value, self.unary(), -1)
            else:
                return value

    def unary(self) -> dict:
        if self.take("-"):
            return p_scale(self.unary(), c_const(-1))
        return self.product()

    def product(self) -> dict:
        value = self.power()
        while True:
            if self.take("*"):
                value = p_mul(value, self.power())
            elif self.take("/"):
                denom = self.power()
                d = c_rational(denom.get((), {})) if set(denom) <= {()} else None
                if not d:
                    raise ValueError(f"division by a non-rational in {self.text!r}")
                value = p_scale(value, c_const(1 / d))
            else:
                return value

    def power(self) -> dict:
        base = self.atom()
        if self.take("^"):
            kind, k = self.peek()
            if kind != "num":
                raise ValueError(f"exponent must be an integer in {self.text!r}")
            self.i += 1
            out = {(): c_const(1)}
            for _ in range(k):
                out = p_mul(out, base)
            return out
        return base

    def atom(self) -> dict:
        kind, value = self.peek()
        self.i += 1
        if kind == "num":
            return {(): c_const(value)} if value else {}
        if kind == "name":
            scalar = {"h": (1, 0), "I": (0, 1), "r2": (0, 2)}.get(value)
            if scalar is not None:
                return {(): c_const(1, *scalar)}
            return {(value,): c_const(1)}
        if (kind, value) == ("op", "("):
            inner = self.expr()
            if not self.take(")"):
                raise ValueError(f"unbalanced parenthesis in {self.text!r}")
            return inner
        raise ValueError(f"unexpected {value!r} in {self.text!r}")


def parse(text: str) -> dict:
    """Read epsalg's printed form (or any input expression) as a poly."""
    return _Parser(text).parse()


# ----------------------------------------------------------- normal ordering


def _letter(name: str):
    m = _LETTER.match(name)
    if not m:
        raise ValueError(f"{name!r} is not a number-operator letter")
    return m.group(1), int(m.group(2))


def _boson_moves(state: tuple, kind: str) -> list:
    """Wick's theorem: a^q ad = ad a^q + q h a^(q-1)."""
    p, q = state
    if kind == "a":
        return [((p, q + 1), 0, 1)]
    return [((p + 1, q), 0, 1)] + ([((p, q - 1), 1, q)] if q else [])


# Right multiplication of the four normal-ordered states 1, ad, a, ad*a of
# one fermion mode by a letter.
_FERMION_TABLE = {
    ((0, 0), "a"): [((0, 1), 0, 1)],
    ((0, 0), "ad"): [((1, 0), 0, 1)],
    ((1, 0), "a"): [((1, 1), 0, 1)],
    ((1, 0), "ad"): [],
    ((0, 1), "a"): [],
    ((0, 1), "ad"): [((0, 0), 1, 1), ((1, 1), 0, -1)],
    ((1, 1), "a"): [],
    ((1, 1), "ad"): [((1, 0), 1, 1)],
}


def _fermion_moves(state: tuple, kind: str) -> list:
    return _FERMION_TABLE[state, kind]


def _order_mode(kinds, moves) -> dict:
    """One mode's letters in normal order: {(p, q): {power of h: coefficient}}.

    (p, q) stands for ad^p a^q; moves(state, letter) lists the
    (state, power of h, factor) terms of state * letter.
    """
    state = {(0, 0): {0: 1}}
    for kind in kinds:
        nxt = {}
        for key, poly in state.items():
            for new, dh, factor in moves(key, kind):
                acc = nxt.setdefault(new, {})
                for hp, v in poly.items():
                    acc[hp + dh] = acc.get(hp + dh, 0) + factor * v
        state = {}
        for key, poly in nxt.items():
            poly = {hp: v for hp, v in poly.items() if v}
            if poly:
                state[key] = poly
    return state


def normal_order_word(word: tuple, family: str, n: int) -> dict:
    """Normal form of one word in family a, a', c or c' on n modes.

    Letters of different modes are first gathered mode by mode, one sign
    per exchange; each mode is then ordered on its own; finally the
    creators of later modes move left past the annihilators of earlier
    ones, again one sign per exchange.  The result is ordered
    ad1..adn a1..an.
    """
    s = EXCHANGE_SIGN[family]
    letters = [_letter(name) for name in word]
    for _, mode in letters:
        if not 1 <= mode <= n:
            raise ValueError(f"mode {mode} outside 1..{n}")
    inversions = sum(
        1
        for i in range(len(letters))
        for j in range(i + 1, len(letters))
        if letters[i][1] > letters[j][1]
    )
    sign = s**inversions
    moves = _fermion_moves if family in FERMIONIC else _boson_moves
    per_mode = [
        list(_order_mode([k for k, m in letters if m == mode], moves).items())
        for mode in range(1, n + 1)
    ]
    out = {}
    for choice in product(*per_mode):
        exps = [pq for pq, _ in choice]
        hpoly = {0: sign}
        for _, poly in choice:
            nxt = {}
            for h1, v1 in hpoly.items():
                for h2, v2 in poly.items():
                    nxt[h1 + h2] = nxt.get(h1 + h2, 0) + v1 * v2
            hpoly = nxt
        crossings = sum(
            exps[i][1] * exps[j][0] for i in range(n) for j in range(i + 1, n)
        )
        factor = s**crossings
        coeff = {(hp, 0): Fraction(factor * v) for hp, v in hpoly.items() if v}
        if not coeff:
            continue
        w = tuple(
            f"ad{m}" for m in range(1, n + 1) for _ in range(exps[m - 1][0])
        ) + tuple(f"a{m}" for m in range(1, n + 1) for _ in range(exps[m - 1][1]))
        out = p_add(out, {w: coeff})
    return out


def normal_order(x: dict, family: str, n: int) -> dict:
    out = {}
    for word, c in x.items():
        out = p_add(out, p_scale(normal_order_word(word, family, n), c))
    return out


# --------------------------------------------------------------- grades, eps


def grade(word: tuple, n: int) -> tuple:
    g = [0] * n
    for name in word:
        kind, mode = _letter(name)
        g[mode - 1] += 1 if kind == "ad" else -1
    return tuple(g)


def eps(family: str, g: tuple, k: tuple) -> int:
    """The commutation factor of each family, from its defining formula."""
    if family == "a":
        e = sum(g) * sum(k)
    elif family == "a'":
        e = sum(a * b for a, b in zip(g, k))
    elif family == "c":
        e = 0
    elif family == "c'":
        e = sum(g[i] * k[j] for i in range(len(g)) for j in range(len(k)) if i != j)
    else:
        raise ValueError(f"no factor for family {family!r}")
    return -1 if e % 2 else 1


def components(x: dict, n: int) -> dict:
    out = {}
    for word, c in x.items():
        out.setdefault(grade(word, n), {})[word] = c
    return out


def eps_commutator(x: dict, y: dict, family: str, n: int) -> dict:
    """[x, y] = xy - eps(x|, y|) yx on homogeneous parts, normal-ordered."""
    out = {}
    for gx, u in components(x, n).items():
        for gy, v in components(y, n).items():
            out = p_add(out, normal_order(p_mul(u, v), family, n))
            e = eps(family, gx, gy)
            out = p_add(out, normal_order(p_mul(v, u), family, n), -e)
    return out


def mu(x: dict, y: dict, family: str, n: int, order: int) -> dict:
    """The h^order coefficient of the quantum normal form of x*y."""
    return p_h_coefficient(normal_order(p_mul(x, y), family, n), order)


def poisson(x: dict, y: dict, family: str, n: int) -> dict:
    """mu_1(x, y) - eps mu_1(y, x), read off the oracle's own products."""
    return p_h_coefficient(eps_commutator(x, y, family, n), 1)


def boson_poisson_agrees(x: dict, y: dict, bracket: dict, n: int) -> bool:
    """Whether bracket = sum_i df/da_i dg/dad_i - df/dad_i dg/da_i.

    The classical boson algebra is commutative, so sympy can check the
    printed bracket against the textbook formula on commuting variables.
    """
    import sympy

    a = [sympy.Symbol(f"a{i}") for i in range(1, n + 1)]
    ad = [sympy.Symbol(f"ad{i}") for i in range(1, n + 1)]
    names = {str(s): s for s in a + ad}
    units = (1, sympy.I, sympy.sqrt(2), sympy.I * sympy.sqrt(2))

    def to_sympy(p: dict):
        total = sympy.Integer(0)
        for word, c in p.items():
            if any(hp for hp, _ in c):
                raise ValueError("classical brackets carry no h")
            coeff = sum(
                sympy.Rational(v.numerator, v.denominator) * units[u]
                for (_, u), v in c.items()
            )
            total += coeff * sympy.Mul(*(names[w] for w in word))
        return total

    f, g = to_sympy(x), to_sympy(y)
    formula = sum(
        sympy.diff(f, a[i]) * sympy.diff(g, ad[i])
        - sympy.diff(f, ad[i]) * sympy.diff(g, a[i])
        for i in range(n)
    )
    return sympy.expand(formula - to_sympy(bracket)) == 0


# ------------------------------------------------------------- closed forms


def dimension(preset: str):
    """Closed-form dimension of a finite-dimensional preset, None if unknown."""
    name, _, rest = preset.partition(":")
    params = dict(part.split("=", 1) for part in rest.split(",") if "=" in part)
    n = int(params.get("n", 1))
    if name in ("fermion", "pseudo-fermion"):
        return 4**n
    if name in ("excl", "excl-dual"):
        return (n + 1) ** 2
    if name == "ext" and params.get("factor", "eps_c") == "eps_c":
        return 2**n
    return None


def rule_left_sides(family: str, n: int) -> set:
    """Left sides of the oriented presentation, from the family's relations.

    Every descending pair of letters is rewritten (the order is
    ad1 < .. < adn < a1 < .. < an); the fermionic families also rewrite
    squares.
    """
    order = [f"ad{i}" for i in range(1, n + 1)] + [f"a{i}" for i in range(1, n + 1)]
    lhs = {(x, y) for i, x in enumerate(order) for y in order[:i]}
    if family in FERMIONIC:
        lhs |= {(x, x) for x in order}
    return lhs


def overlap_words(family: str, n: int) -> list:
    """Every overlap ambiguity xyz with xy and yz both rule left sides."""
    lhs = rule_left_sides(family, n)
    return sorted((x, y, z) for x, y in lhs for y2, z in lhs if y2 == y)


def parity(family: str, g: tuple) -> int:
    return 0 if eps(family, g, g) == 1 else 1


def profile_text(family: str, grades: list) -> str:
    """epsalg's printed rank profile of a list of grades, rebuilt here."""
    counts = {}
    for g in grades:
        counts[g] = counts.get(g, 0) + 1
    even = sum(m for g, m in counts.items() if parity(family, g) == 0)
    odd = sum(m for g, m in counts.items() if parity(family, g) == 1)
    inner = ", ".join(
        "(" + ",".join(str(c) for c in g) + f"):{m}" for g, m in sorted(counts.items())
    )
    return f"{{{inner}}} (even {even} | odd {odd}, total {even + odd})"
