"""Built-in algebras: the six number-operator families, their classical
limits, the quantum plane, the invertible-pair counterexample, and
epsilon-exterior algebras.

An Algebra exists only certified: its constructor proves the commutation
factor's axioms over the whole grade group and the reduction system
confluent, or raises ValueError, so every builder here returns a
certified Algebra.

Confluence is certified by resolving every critical pair (`exhaustive`),
except on a local system S_n of n > 3 modes, certified from R, its own
generators on modes 1-3 and the rules whose left side lies on them
(`locality`).  Rename each mode of a rule by its rank among the modes of
its left side, so a rule on modes i < j reads as one on 1 < 2.  S_n is
confluent when R is and:

  (1) every left side of S_n has two letters;
  (2) every word of a right side of S_n uses only the modes of its left side;
  (3) every mode of S_n carries the same renamed rules, and so does every
      pair of modes;
  (4) the generators of S_n stand in precedence by name and then by mode.

By (1), and as left sides are distinct, every critical pair is an overlap
of three letters, so it lies on at most three modes i < j < k.  The map phi
of modes 1 -> i, 2 -> j, 3 -> k, sending each letter to the letter of the
same name, keeps the order of modes and so the renamed rules: by (3) the
rules of S_n on those modes are the rules of R under phi, and by (2) no
reduction of a word on those modes leaves them.  phi keeps the positions
of letters and, by (4), the precedence, so it keeps the termination order
and the leftmost redex and commutes with the reducer: each critical pair
of S_n and its resolution are the image under phi of one of R, and S_n is
confluent exactly when R is; a pair of R that does not resolve is one of
S_n.  (1)-(4) are checked at every such build in one pass over the rules
of S_n; if a check fails, every critical pair of S_n is resolved instead.
So fermion, pseudo-fermion, boson, pseudo-boson, and `ext` with eps_c or
eps_c', are local.  The excl families have the collective diagonal Sum_k,
which breaks (2); `ext` with eps_a or eps_a' squares no odd generator, so
its modes carry no rule and (3) fails.
"""
from __future__ import annotations

import operator
from functools import cached_property, lru_cache

from .freealg import Element, Generator, Word
from .grading import (
    FACTOR_PRESETS,
    CommutationFactor,
    Grade,
    counterexample_factor,
    eps_a,
    eps_a_prime,
    eps_c,
    eps_c_prime,
    eps_q,
    verify_factor_axioms,
)
from .rewrite import ReductionSystem, Rule
from .scalars import MAX_DIGITS, H, H_ZERO, HPoly, Scalar

# The six number-operator families, one row each: preset name, family
# letter, whether a-letters stand first in normal order, whether the
# diagonal relation is collective, the diagonal sign alpha, whether squares
# vanish, the mixed-mode sign s (s = 0 sends both orders of a mixed pair to
# 0), and the commutation factor.  _noa_rules reads the middle five.
_FAMILY_TABLE = (
    ("fermion", "a", False, False, -1, True, -1, eps_a),
    ("pseudo-fermion", "a'", False, False, -1, True, 1, eps_a_prime),
    ("excl", "b", False, True, -1, True, 0, eps_c_prime),
    ("excl-dual", "b'", True, True, -1, True, 0, eps_c_prime),
    ("boson", "c", False, False, 1, False, 1, eps_c),
    ("pseudo-boson", "c'", False, False, 1, False, -1, eps_c_prime),
)

_FAMILY_ROWS = {row[1]: row for row in _FAMILY_TABLE}

NOA_FAMILIES = tuple(_FAMILY_ROWS)

FAMILY_NAMES = {row[0]: row[1] for row in _FAMILY_TABLE}

# Exhaustive certification grows as n^3 with the modes, so preset strings refuse
# more; build_noa does not.  The local families, certified from modes 1-3,
# no longer bound it (boson:n=16 builds in 0.02 s, boson:n=40 in 0.1 s); excl and
# excl-dual, exhaustive, do: 0.15-0.23 s each on 16 modes (2-CPU Xeon, Python 3.11).
MAX_MODES = 16

# Certification works on h's coefficients, so its time grows with h's degree:
# excl:n=16 takes 0.35 s with h itself and 2.7 s with h^10000 (same machine),
# so preset strings refuse an h above this degree; build_noa does not.
MAX_H_DEGREE = 64

# How an Algebra's reduction system was certified confluent (see the module
# docstring): every critical pair resolved, or the locality proof from modes 1-3.
EXHAUSTIVE = "exhaustive"
LOCALITY = "locality from n=3"


def check_modes(n: int) -> int:
    if n > MAX_MODES:
        raise ValueError(f"n={n} exceeds the input limit n <= {MAX_MODES}")
    return n


def parse_modes(text: str) -> int:
    """The number n of a preset string: ASCII digits 0-9 only.

    int() would also take other scripts' digits, signs, underscores and
    surrounding spaces.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"n must be written in the digits 0-9, got {text!r}")
    if len(text) > MAX_DIGITS:
        raise ValueError(f"n has more than {MAX_DIGITS} digits")
    return int(text)


class Algebra:
    """A graded algebra given by generators, a factor, and a confluent system.

    The constructor certifies: it proves the factor axioms in closed form,
    then the system confluent, and a failure of either raises ValueError, as
    does a factor whose size is not the size of the grades.  Nothing else is
    checked: J and the rules' agreement with h are for the `structure` checks.

    A system on more than three modes that `_local_shape` finds local meets
    (1)-(4) of the module docstring, so only the critical pairs of its rules
    on modes 1-3 are resolved (LOCALITY); any other resolves all (EXHAUSTIVE).
    """

    def __init__(self, label, family, system, factor, h, involution=None, params=None):
        zero = system.zero_grade
        if factor.dim != zero.dim:
            raise ValueError(
                f"{label}: a factor of size {factor.dim} cannot weigh grades of size {zero.dim}"
            )
        bad = verify_factor_axioms(factor, [zero])
        if bad:
            raise ValueError(f"{label}: commutation factor axioms fail: {bad}")
        gens = system.generators
        checked, self._certified_by = system, EXHAUSTIVE
        if len(gens) > 3 * len({g.name for g in gens}) and _local_shape(system):
            checked = ReductionSystem(
                [g for g in gens if g.index <= 3],
                [r for r in system.rules if all(g.index <= 3 for g in r.lhs)],
                system.max_steps,
            )
            self._certified_by = LOCALITY
        unresolved = checked.check_confluence()
        if unresolved:
            raise ValueError(f"{label}: reduction system not confluent, e.g. {unresolved[0]}")
        self.label = label
        self.family = family
        self.system = system
        self.factor = factor
        self.h = HPoly.of(h)
        self.involution = involution
        self.params = dict(params or {})
        self.generators = system.generators
        self._by_label = {g.label: g for g in self.generators}
        self._basis = {}
        self._grades = {}  # word -> Grade, filled as words are met

    @property
    def certified_by(self):
        """EXHAUSTIVE or LOCALITY: how the constructor proved confluence."""
        return self._certified_by

    # ------------------------------------------------------------- structure

    @property
    def zero_grade(self) -> Grade:
        return self.system.zero_grade

    def is_classical(self) -> bool:
        return self.h.is_zero()

    def gen(self, label: str) -> Generator:
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(f"unknown generator {label!r} in {self.label}") from None

    def indexed_gen(self, name: str, index: int) -> Generator:
        return self.gen(f"{name}{index}")

    def relations(self):
        """Defining relations as elements of the free algebra (lhs - rhs),
        built on the first call and kept, as the rules of an algebra are fixed."""
        return self._relations

    @cached_property
    def _relations(self):
        return tuple(Element.from_word(rule.lhs) - rule.rhs for rule in self.system.rules)

    # ------------------------------------------------------------ operations

    def normalize(self, x) -> Element:
        return self.system.normalize(x)

    def mul(self, x: Element, y: Element) -> Element:
        """The product in the quotient: normal form of x*y, free product unbuilt."""
        return self.system.mul(x, y)

    def basis(self, max_len: int):
        got = self._basis.get(max_len)
        if got is None:
            got = self.system.enumerate_basis(max_len)
            self._basis[max_len] = got
        return got

    def word_grade(self, word: Word) -> Grade:
        grade = self._grades.get(word)
        if grade is None:
            grade = self._grades[word] = word.grade(self.zero_grade)
        return grade

    def grade_of(self, x: Element):
        """Common grade of the words of x, None if x is inhomogeneous; the
        zero element reports the zero grade (as `freealg.grade_of`)."""
        grades = set(map(self.word_grade, x.terms))
        if len(grades) > 1:
            return None
        return grades.pop() if grades else self.zero_grade

    def components(self, x: Element) -> dict:
        """Split x by grade (as `freealg.homogeneous_components`); a
        homogeneous x is its own single piece, split no further."""
        grades = list(map(self.word_grade, x.terms))
        if grades and grades.count(grades[0]) == len(grades):
            return {grades[0]: x}
        pairs = {}
        for term, g in zip(x.terms.items(), grades):
            pairs.setdefault(g, []).append(term)
        return {g: Element(p) for g, p in pairs.items()}

    def parse(self, text: str) -> Element:
        from .exprparse import element_from_text

        return element_from_text(text, self)

    def __repr__(self) -> str:
        return f"Algebra({self.label})"


def _local_shape(system: ReductionSystem):
    """(names, rules on one mode, rules on two modes), renamed by rank, when
    (1), (2) and (4) of the module docstring hold and every mode, and every
    pair of modes, carries the same renamed rules; else None.  One pass."""
    gens = system.generators
    names = tuple(dict.fromkeys(g.name for g in gens))
    n = len(gens) // len(names)
    if [(g.name, g.index) for g in gens] != [(x, m) for x in names for m in range(1, n + 1)]:
        return None  # (4)
    on_modes = {}
    for rule in system.rules:
        letters = rule.lhs
        if len(letters) != 2:
            return None  # (1)
        modes = tuple(sorted({g.index for g in letters}))
        rank = {m: r for r, m in enumerate(modes, 1)}
        try:
            rhs = {tuple((g.name, rank[g.index]) for g in w): c for w, c in rule.rhs.terms.items()}
        except KeyError:
            return None  # (2)
        on_modes.setdefault(modes, {})[tuple((g.name, rank[g.index]) for g in letters)] = rhs
    shape = {}
    for modes, rules in on_modes.items():
        if shape.setdefault(len(modes), rules) != rules:
            return None  # (3)
    if len(on_modes) != n * (n + 1) // 2:
        return None  # a mode or a pair of modes carries no rule
    return names, shape.get(1), shape.get(2)


def _noa_generators(n: int):
    """Creators and annihilators on n modes."""
    creators = tuple(Generator("ad", i, Grade.unit(i, n)) for i in range(1, n + 1))
    annihilators = tuple(Generator("a", i, -Grade.unit(i, n)) for i in range(1, n + 1))
    return creators, annihilators


def _noa_rules(a_first, collective, alpha, squares_vanish, s, h: HPoly, ad, a):
    """Oriented presentation of one table row; indices in ad/a are 0-based.

    first/second are the letters that stand left/right in normal order.
    """
    first, second = (a, ad) if a_first else (ad, a)
    n = len(ad)
    one = Element.one()
    rules = []

    def pair(x, y) -> Element:
        return Element.from_word(Word((x, y)))

    total = Element.sum(pair(first[k], second[k]) for k in range(n))
    for i in range(n):
        if squares_vanish:
            rules.append(Rule(Word((a[i], a[i])), Element.zero()))
            rules.append(Rule(Word((ad[i], ad[i])), Element.zero()))
        diagonal = total if collective else pair(first[i], second[i])
        rules.append(Rule(Word((second[i], first[i])), one * h + diagonal * alpha))
    for i in range(n):
        for j in range(i + 1, n):
            for g in (a, ad):
                rules.append(Rule(Word((g[j], g[i])), pair(g[i], g[j]) * s))
                if s == 0:
                    rules.append(Rule(Word((g[i], g[j])), Element.zero()))
    for i in range(n):
        for j in range(n):
            if i != j:
                rules.append(Rule(Word((second[i], first[j])), pair(first[j], second[i]) * s))
    return rules


@lru_cache(maxsize=None)
def _build_noa_cached(family: str, n: int, h: HPoly) -> Algebra:
    row = _FAMILY_ROWS[family]
    tag, _, a_first, *_, factor = row
    ad, a = _noa_generators(n)
    # Generators in normal order: a collective diagonal with a-letters first
    # cannot decrease under the ad-first order.
    generators = a + ad if a_first else ad + a
    rules = _noa_rules(*row[2:7], h, ad, a)
    system = ReductionSystem(generators, rules)
    involution = {}
    for x, y in zip(ad, a):
        involution[x] = y
        involution[y] = x
    label = f"{tag}:n={n}" if h == H else f"{tag}:n={n},h={h}"
    return Algebra(label, family, system, factor(n), h, involution, {"n": n})


def build_noa(family: str, n: int, h=H) -> Algebra:
    """One of the six number-operator families on n modes, n an int
    (`operator.index`, so 2.7 or "2" is a TypeError).

    h is the deformation constant as a polynomial in the formal parameter;
    the default is the symbolic parameter itself, 0 gives the classical
    limit, and any constant from the tau-fixed subfield Q(r2) pins the
    algebra.  An h that tau does not fix (I, 1 + I, I*h) is a ValueError:
    J conjugates coefficients, so it would not respect the relations.
    """
    n = operator.index(n)
    family = FAMILY_NAMES.get(family, family)
    if family not in NOA_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("family needs at least one mode")
    h = HPoly.of(h)
    if h.tau() != h:
        raise ValueError(f"h = {h} is not tau-fixed")
    return _build_noa_cached(family, n, h)


def classical_limit(alg: Algebra) -> Algebra:
    """The same presentation with the deformation constant sent to zero."""
    return with_h(alg, H_ZERO)


def with_h(alg: Algebra, h) -> Algebra:
    if alg.family not in NOA_FAMILIES:
        raise ValueError(f"{alg.label} has no deformation parameter")
    return build_noa(alg.family, alg.params["n"], HPoly.of(h))


@lru_cache(maxsize=None)
def _build_qplane_cached(q: Scalar) -> Algebra:
    if q.is_zero():
        raise ValueError("quantum plane parameter must be invertible")
    # Grade counts (y-degree, x-degree); this labeling makes the algebra
    # eps_q-commutative with the factor's q^(lm-kn) convention.
    x = Generator("x", None, Grade((0, 1)))
    y = Generator("y", None, Grade((1, 0)))
    rule = Rule(Word((x, y)), Element.from_word(Word((y, x)), q))
    system = ReductionSystem((y, x), (rule,))
    return Algebra(f"qplane:q={q}", "qplane", system, eps_q(q), H_ZERO, None, {"q": q})


def build_quantum_plane(q) -> Algebra:
    """K<x,y> with xy = q yx, graded over Z^2 with basis y^k x^l."""
    return _build_qplane_cached(Scalar.of(q))


@lru_cache(maxsize=None)
def build_counterexample() -> Algebra:
    """Localized anticommuting pair: basis x^k y^l with k, l in Z.

    Graded over (Z/2)^2; both homogeneous one-element bases {x} and {y}
    generate it as a graded module, with different epsilon-ranks.
    """
    moduli = (2, 2)
    x = Generator("x", None, Grade((1, 0), moduli))
    xi = Generator("X", None, Grade((1, 0), moduli))
    y = Generator("y", None, Grade((0, 1), moduli))
    yi = Generator("Y", None, Grade((0, 1), moduli))
    one = Element.one()

    def neg(w1, w2) -> Element:
        return Element.from_word(Word((w1, w2)), -1)

    rules = (
        Rule(Word((x, xi)), one),
        Rule(Word((xi, x)), one),
        Rule(Word((y, yi)), one),
        Rule(Word((yi, y)), one),
        Rule(Word((y, x)), neg(x, y)),
        Rule(Word((y, xi)), neg(xi, y)),
        Rule(Word((yi, x)), neg(x, yi)),
        Rule(Word((yi, xi)), neg(xi, yi)),
    )
    system = ReductionSystem((x, xi, y, yi), rules)
    return Algebra("cex", "cex", system, counterexample_factor(), H_ZERO)


def build_epsilon_exterior(grades, factor: CommutationFactor, label: str = "ext") -> Algebra:
    """Quotient of the tensor algebra by v w + eps(v|,w|) w v.

    Even generators square to zero; odd squares survive, which is what makes
    any odd generator force infinite total rank.
    """
    gens = tuple(
        Generator("v", i + 1, grade) for i, grade in enumerate(grades)
    )
    rules = []
    for i, vi in enumerate(gens):
        if factor.parity(vi.grade) == 0:
            rules.append(Rule(Word((vi, vi)), Element.zero()))
        for j in range(i + 1, len(gens)):
            vj = gens[j]
            coeff = -factor.eval(vj.grade, vi.grade)
            rules.append(Rule(Word((vj, vi)), Element.from_word(Word((vi, vj)), coeff)))
    system = ReductionSystem(gens, rules)
    return Algebra(label, "ext", system, factor, H_ZERO)


@lru_cache(maxsize=None)
def build_exterior_preset(n: int, factor_name: str = "eps_c") -> Algebra:
    if factor_name not in FACTOR_PRESETS:
        raise ValueError(f"unknown factor preset {factor_name!r}")
    factor = FACTOR_PRESETS[factor_name](n)
    grades = [Grade.unit(i, n) for i in range(1, n + 1)]
    return build_epsilon_exterior(grades, factor, f"ext:n={n},factor={factor_name}")


# Every preset string by name: the parameters it takes (only the first may be
# given bare), the sample `epsalg presets` shows, and what the algebra is.
PRESETS = {
    "fermion": (("n", "h"), "fermion:n=2", "type a, anticommuting modes, quantum unless h=0"),
    "pseudo-fermion": (
        ("n", "h"), "pseudo-fermion:n=2", "type a', fermionic squares with commuting modes"
    ),
    "excl": (("n", "h"), "excl:n=2", "type b, exclusion algebra, one joint occupation"),
    "excl-dual": (("n", "h"), "excl-dual:n=2", "type b', mirror exclusion algebra"),
    "boson": (("n", "h"), "boson:n=2", "type c, commuting oscillator modes"),
    "pseudo-boson": (
        ("n", "h"), "pseudo-boson:n=2", "type c', bosonic relations with anticommuting modes"
    ),
    "qplane": (("q",), "qplane:2", "two-generator quadratic algebra, xy = q yx"),
    "cex": ((), "cex", "localized Z2xZ2 example separating graded from total rank"),
    "ext": (("n", "factor"), "ext:2", "epsilon-exterior algebra on n even generators"),
}

PRESET_NAMES = tuple(PRESETS)


def parse_preset(text: str) -> Algebra:
    """Build an algebra from a preset string like 'boson:n=2' or 'qplane:2'."""
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    params = _preset_params(name, rest)
    if name in FAMILY_NAMES:
        n = check_modes(parse_modes(params.get("n", "1")))
        h = params.get("h")
        if h is None:
            return build_noa(name, n)
        from .exprparse import hpoly_from_text

        h = hpoly_from_text(h)
        if h.degree > MAX_H_DEGREE:
            raise ValueError(
                f"h of degree {h.degree} exceeds the input limit degree <= {MAX_H_DEGREE}"
            )
        return build_noa(name, n, h)
    if name == "qplane":
        q = _scalar_param(params.get("q"))
        if q is None:
            raise ValueError("qplane needs its parameter, e.g. qplane:2")
        return build_quantum_plane(q)
    if name == "cex":
        return build_counterexample()
    n = check_modes(parse_modes(params.get("n", "1")))
    return build_exterior_preset(n, params.get("factor", "eps_c"))


def _preset_params(name: str, rest: str) -> dict:
    """Each parameter once, keyed, or bare in the first chunk for the first one."""
    takes = PRESETS[name][0]
    params = {}
    for pos, chunk in enumerate(rest.split(",") if rest else ()):
        key, eq, value = (part.strip() for part in chunk.partition("="))
        if not eq and pos == 0 and takes and key:
            key, value = takes[0], key
        if key not in takes:
            raise ValueError(f"preset {name!r} does not take {chunk.strip()!r}")
        if key in params:
            raise ValueError(f"preset {name!r} takes {key} once, got {chunk.strip()!r}")
        params[key] = value
    return params


def _scalar_param(text):
    if text is None:
        return None
    from .exprparse import scalar_from_text

    return scalar_from_text(text)

