"""Epsilon-commutators, epsilon-Poisson brackets, and their law checkers.

Both brackets are defined on homogeneous pieces and extended bilinearly:
the commutator [x,y] = xy - eps(x|,y|) yx inside one algebra, the Poisson
bracket {x,y} = mu_1(x,y) - eps(x|,y|) mu_1(y,x) on a classical limit
through its deformation expansion, the epsilon-bracket of mu_1 read from
the h^1 parts of the quantum normal forms alone.  Every bracket is one
`ReductionSystem.mul_sum` over the pairs of pieces, so it is a sum of
normal forms, supported on irreducible words, and a sum of brackets needs
no second pass.  The verifiers draw seeded random homogeneous elements and
report every violated instance exactly.
"""
from __future__ import annotations

import random

from .deformation import DeformationExpansion
from .freealg import Element, Word
from .grading import CommutationFactor
from .presets import Algebra
from .scalars import H_MINUS_ONE, H_ONE, I, MINUS_ONE, ONE, R2, Scalar, _Record

UNITS = (ONE, MINUS_ONE, I, -I)
# A sampled homogeneous element has 1 to this many terms.
MAX_SAMPLE_TERMS = 2


class BracketContext(_Record):
    """Where products normalize and which factor weighs the swaps."""

    __slots__ = ("algebra", "factor", "expansion")

    def __init__(
        self,
        algebra: Algebra,
        factor: CommutationFactor = None,
        expansion: DeformationExpansion = None,
    ):
        self.algebra = algebra
        self.factor = algebra.factor if factor is None else factor
        self.expansion = expansion

    @staticmethod
    def quantum(algebra: Algebra, factor=None) -> BracketContext:
        return BracketContext(algebra, factor)

    @staticmethod
    def classical(expansion: DeformationExpansion, factor=None) -> BracketContext:
        return BracketContext(expansion.classical, factor, expansion)


def commutator(ctx: BracketContext, x: Element, y: Element) -> Element:
    """Plain [x,y] = xy - yx, normalized."""
    return ctx.algebra.system.mul_sum(((H_ONE, x, y), (H_MINUS_ONE, y, x)))


def _eps_bracket(ctx: BracketContext, system, x: Element, y: Element, degree=None) -> Element:
    """uv - eps(u|, v|) vu over homogeneous pieces u, v: one `system.mul_sum`."""
    alg, eps = ctx.algebra, ctx.factor.eval
    ys = alg.components(y).items()
    return system.mul_sum([t for gx, u in alg.components(x).items() for gy, v in ys
                           for t in ((H_ONE, u, v), (-eps(gx, gy), v, u))], degree)


def epsilon_commutator(ctx: BracketContext, x: Element, y: Element) -> Element:
    return _eps_bracket(ctx, ctx.algebra.system, x, y)


def poisson_bracket(ctx: BracketContext, x: Element, y: Element) -> Element:
    if ctx.expansion is None:
        raise ValueError("Poisson bracket needs a deformation expansion")
    return _eps_bracket(ctx, ctx.expansion.quantum.system, x, y, 1)


def _lie_residuals(ctx, bracket, x, y, z):
    alg, eps = ctx.algebra, ctx.factor.eval
    gx, gy, gz = alg.grade_of(x), alg.grade_of(y), alg.grade_of(z)
    xy = bracket(ctx, x, y)
    anti = xy + bracket(ctx, y, x) * eps(gx, gy)
    jacobi = (
        bracket(ctx, x, bracket(ctx, y, z)) * eps(gz, gx)
        + bracket(ctx, z, xy) * eps(gy, gz)
        + bracket(ctx, y, bracket(ctx, z, x)) * eps(gx, gy)
    )
    return anti, jacobi, xy


def _law_failures(ctx: BracketContext, bracket, triples, leibniz: bool) -> list:
    """A line per nonzero antisymmetry, epsilon-Jacobi (and Leibniz) residual."""
    failures = []
    alg, eps = ctx.algebra, ctx.factor.eval
    for k, (x, y, z) in enumerate(triples):
        anti, jacobi, xy = _lie_residuals(ctx, bracket, x, y, z)
        laws = [("antisymmetry", anti), ("Jacobi", jacobi)]
        if leibniz:
            eps_xy = eps(alg.grade_of(x), alg.grade_of(y))
            terms = ((H_ONE, xy, z), (eps_xy, y, bracket(ctx, x, z)))
            laws.append(("Leibniz", bracket(ctx, x, alg.mul(y, z)) - alg.system.mul_sum(terms)))
        failures += [f"triple {k}: {law} residual {r}" for law, r in laws if not r.is_zero()]
    return failures


def verify_lie_axioms(ctx: BracketContext, triples) -> list:
    """Antisymmetry and the epsilon-Jacobi identity for the commutator."""
    return _law_failures(ctx, epsilon_commutator, triples, False)


def verify_poisson_axioms(ctx: BracketContext, triples) -> list:
    """Lie axioms plus the graded Leibniz rule for the Poisson bracket."""
    return _law_failures(ctx, poisson_bracket, triples, True)


# ----------------------------------------------------------------- sampling


def _random_scalar(rng: random.Random) -> Scalar:
    """A nonzero n/d + k*I + m*r2, drawn as n, d, k, m in that order."""
    while True:
        s = Scalar(rng.randint(-3, 3)) / rng.choice((1, 1, 2)) + Scalar(
            0, rng.randint(-2, 2), rng.randint(-1, 1)
        )
        if not s.is_zero():
            return s


def sample_homogeneous(alg: Algebra, rng: random.Random, max_len: int = 3) -> Element:
    """Random nonzero homogeneous element supported on irreducible words."""
    buckets = {}
    for word in alg.basis(max_len):
        buckets.setdefault(alg.word_grade(word), []).append(word)
    grades = sorted(buckets, key=lambda g: g.sort_key())
    grade = grades[rng.randrange(len(grades))]
    words = buckets[grade]
    count = rng.randint(1, min(MAX_SAMPLE_TERMS, len(words)))
    return Element((word, _random_scalar(rng)) for word in rng.sample(words, count))


def sample_triples(alg: Algebra, count: int, seed: int, max_len: int = 3):
    rng = random.Random(seed)
    return [
        tuple(sample_homogeneous(alg, rng, max_len) for _ in range(3))
        for _ in range(count)
    ]


# --------------------------------------------------------------- oscillators


class OscillatorSet(_Record):
    """Position, momentum, and energy elements for one mode."""

    __slots__ = ("p", "q", "energy")

    def __init__(self, p: Element, q: Element, energy: Element):
        self.p = p
        self.q = q
        self.energy = energy


def oscillator_set(alg: Algebra, i: int) -> OscillatorSet:
    a = Element.from_word(alg.indexed_gen("a", i))
    ad = Element.from_word(alg.indexed_gen("ad", i))
    inv_r2 = R2 / 2  # 1/sqrt2
    inv_ir2 = I * R2 / -2  # 1/(i sqrt2)
    energy = Word((alg.indexed_gen("ad", i), alg.indexed_gen("a", i)))
    return OscillatorSet(
        p=(a + ad) * inv_r2,
        q=(ad - a) * inv_ir2,
        energy=Element.from_word(energy),
    )


class OscillatorReport(_Record):
    __slots__ = ("family", "entries", "c", "c_prime", "pattern_ok", "notes")

    def __init__(
        self,
        family: str,
        entries: dict,
        c: Scalar | None,
        c_prime: Scalar | None,
        pattern_ok: bool,
        notes: list,
    ):
        self.family = family
        self.entries = entries
        self.c = c
        self.c_prime = c_prime
        self.pattern_ok = pattern_ok
        self.notes = notes

    def constants_are_units(self) -> bool:
        return self.c in UNITS and self.c_prime in UNITS


def _scalar_ratio(elem: Element, target: Element):
    """u with elem == u*target, if one exists; None otherwise."""
    if target.is_zero():
        return None
    if set(elem.terms) != set(target.terms):
        return None
    ratio = None
    for word, coeff in target.terms.items():
        c = elem.terms[word]
        if not (c.is_constant() and coeff.is_constant()):
            return None
        r = c.constant() / coeff.constant()
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


def oscillator_table(expansion: DeformationExpansion) -> OscillatorReport:
    """All pairwise brackets of p, q, H across modes, with unit constants.

    Asserting values is left to callers: the table records the computed
    brackets, extracts c from {p_i,q_i} = c and c' from {H_i,p_i} = c' q_i,
    and checks the delta-support pattern exactly.  When the pattern fails,
    the last note names the first bracket off it, in the order computed.
    """
    ctx = BracketContext.classical(expansion)
    alg = ctx.algebra
    n = alg.params["n"]
    sets = {i: oscillator_set(alg, i) for i in range(1, n + 1)}
    entries = {}
    notes = [
        "p_i and q_i mix the grades -p_i and p_i; brackets expand componentwise"
    ]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            si, sj = sets[i], sets[j]
            entries[("p", "p", i, j)] = poisson_bracket(ctx, si.p, sj.p)
            entries[("q", "q", i, j)] = poisson_bracket(ctx, si.q, sj.q)
            entries[("p", "q", i, j)] = poisson_bracket(ctx, si.p, sj.q)
            entries[("H", "p", i, j)] = poisson_bracket(ctx, si.energy, sj.p)
            entries[("H", "q", i, j)] = poisson_bracket(ctx, si.energy, sj.q)
    off = None  # why the first bracket off the pattern is off it
    c = c_prime = None
    for (kind_a, kind_b, i, j), value in entries.items():
        why = None
        if kind_a == kind_b or i != j:
            if not value.is_zero():
                why = "not 0"
        elif kind_a == "p":
            got = _scalar_ratio(value, Element.one())
            if got is None:
                why = "not a nonzero constant"
            elif c is not None and got != c:
                why = f"which gives c = {got}, not {c}"
            else:
                c = got
        else:
            target = "q" if kind_b == "p" else "p"
            got = _scalar_ratio(value, getattr(sets[i], target))
            if got is None:
                why = f"not a multiple of {target}_{i}"
            else:
                if kind_b == "q":
                    got = -got
                if c_prime is None:
                    c_prime = got
                elif c_prime != got:
                    why = f"which gives c' = {got}, not {c_prime}"
        if why is not None and off is None:
            off = f"first off the delta pattern: {{{kind_a}_{i}, {kind_b}_{j}}} = {value}, {why}"
    if off is not None:
        notes.append(off)
    return OscillatorReport(alg.family, entries, c, c_prime, off is None, notes)
