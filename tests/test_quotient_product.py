"""Products taken in the quotient: `Algebra.mul`, `ReductionSystem.mul_sum`
and the laws built on them.

`mul(x, y)` must equal `normalize(x * y)` for every pair of inputs, and
`mul_sum` the sum of its products, or with a degree that sum's h^k
coefficient.  The brackets, law checkers and deformation identities that
now multiply in the quotient, and read mu_n and the Poisson bracket off
h^n parts, are compared against copies of their earlier formulas, which
formed every product in full (some in the free algebra) and sliced it
afterwards; and a counter keeps a second normal pass from coming back.
"""
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsalg import (
    FACTOR_PRESETS,
    FAMILY_NAMES,
    H,
    H_ONE,
    MINUS_ONE,
    ONE,
    I,
    Algebra,
    BracketContext,
    CommutationFactor,
    DeformationExpansion,
    Element,
    Grade,
    HPoly,
    ReductionSystem,
    Rule,
    Scalar,
    Word,
    build_counterexample,
    build_exterior_preset,
    build_noa,
    build_quantum_plane,
    check_deformation_identity,
    classical_limit,
    eps_c,
    eps_q,
    epsilon_commutator,
    grade_of,
    homogeneous_components,
    parse_preset,
    poisson_bracket,
    sample_triples,
    verify_lie_axioms,
    verify_poisson_axioms,
)
from epsalg.brackets import _lie_residuals
from epsalg.cli import run
from epsalg.scalars import H_MINUS_ONE
from value_strategies import bounded_fractions, scalars_of

FAMILIES = ["a", "a'", "b", "b'", "c", "c'"]

ALGEBRAS = [(f"{family}:n={n}", lambda f=family, n=n: build_noa(f, n))
            for family in FAMILIES for n in (1, 2)] + [
    ("classical-b:n=2", lambda: classical_limit(build_noa("b", 2))),
    ("excl:n=2", lambda: parse_preset("excl:n=2")),
    ("qplane:q=3", lambda: build_quantum_plane(3)),
    ("ext:n=3", lambda: build_exterior_preset(3)),
    ("cex", build_counterexample),
]


def _random_scalar(rng):
    while True:
        s = Scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2))), rng.randint(-1, 1),
                   rng.randint(-1, 1), 0)
        if not s.is_zero():
            return s


def _random_element(rng, alg, h_degree):
    """Up to three words of up to four letters in any order, most of them
    reducible; coefficients polynomials in h of degree <= h_degree."""
    return Element(
        (
            Word(rng.choice(alg.generators) for _ in range(rng.randint(0, 4))),
            HPoly([_random_scalar(rng) for _ in range(rng.randint(1, h_degree + 1))]),
        )
        for _ in range(rng.randint(1, 3))
    )


@pytest.mark.parametrize("name,build", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_mul_is_the_normal_form_of_the_free_product(name, build):
    alg = build()
    rng = random.Random(name)
    special = [Element.zero(), Element.one(), Element.from_word(alg.generators[-1])]
    pairs = [(x, y) for x in special for y in special]
    for _ in range(25):
        x = _random_element(rng, alg, rng.randint(0, 2))
        y = _random_element(rng, alg, rng.randint(0, 2))
        pairs += [(x, y), (x, Element.zero()), (Element.one(), y), (alg.normalize(x), y)]
    for x, y in pairs:
        assert alg.mul(x, y) == alg.normalize(x * y), (x, y)


def test_mul_reads_the_word_memo():
    base = build_noa("c", 2)
    system = ReductionSystem(base.system.generators, base.system.rules)
    x, y = base.parse("a1^2 + ad2"), base.parse("ad1*a2 - 3")
    assert system.normalize(x * y) == base.normalize(x * y)
    assert system._nf == {}
    assert system.mul(x, y) == base.normalize(x * y)
    assert set(system._nf) == {(u, v) for u in x.terms for v in y.terms}
    assert len(system._nf) == len((x * y).terms) == 4
    for (u, v), nf in system._nf.items():
        assert Element(nf) == base.normalize(Element.from_word(u) * Element.from_word(v))


_MEMO_SYSTEMS = [(f"{family}:n={n}{h}", family, n, h)
                 for family in FAMILIES for n in (1, 2) for h in ("", ",h=0")]


@pytest.mark.parametrize("name,family,n,h", _MEMO_SYSTEMS, ids=[m[0] for m in _MEMO_SYSTEMS])
def test_the_memo_holds_each_word_and_coefficient_once(name, family, n, h):
    alg = build_noa(family, n, 0 if h else H)
    system = ReductionSystem(alg.system.generators, alg.system.rules)
    rng = random.Random(f"memo {name}")
    for _ in range(12):
        h_free = rng.random() < 0.5
        terms = [(_random_scalar(rng), _random_element(rng, alg, 0 if h_free else 2),
                  _random_element(rng, alg, 0 if h_free else 2)) for _ in range(rng.randint(1, 3))]
        system.mul_sum(terms, rng.choice((0, 1)) if h_free else None)
    assert system._nf
    objects = {}  # value -> the ids of the objects holding it
    pairs = 0
    for (u, v), nf in system._nf.items():
        assert type(nf) is tuple
        pairs += len(nf)
        # each (word, coefficient) pair, and the word and coefficient in it
        for value in (u, v, *nf, *(x for pair in nf for x in pair)):
            objects.setdefault(value, set()).add(id(value))
    assert all(len(ids) == 1 for ids in objects.values())
    assert {id(x) for x in system._shared.values()} == set().union(*objects.values())
    assert sum(type(value) is tuple for value in objects) < pairs  # some entries share a pair


@pytest.mark.parametrize("name,build", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_only_products_fill_the_memo(name, build):
    # normalize, the confluence check and the basis code keep nothing, so a
    # fresh system per call (the normal-order path) holds no memo.
    alg = build()
    system = ReductionSystem(alg.system.generators, alg.system.rules)
    rng = random.Random(f"no memo {name}")
    for _ in range(5):
        system.normalize(_random_element(rng, alg, 2))
    assert system.check_confluence() == []
    system.enumerate_basis(3)
    system.basis_counts(4)
    assert system._nf == {} and system._shared == {}


def test_a_zero_product_is_reduced_once(monkeypatch):
    base = parse_preset("fermion:n=1")
    system = ReductionSystem(base.system.generators, base.system.rules)
    calls = []
    word_nf = ReductionSystem._word_nf

    def counted(self, word):
        calls.append(word)
        return word_nf(self, word)

    monkeypatch.setattr(ReductionSystem, "_word_nf", counted)
    a1, ad1 = base.parse("a1"), base.parse("ad1")
    for _ in range(3):
        assert system.mul(a1, a1) == Element.zero()
        assert system.mul_sum(((2, a1, a1), (H, a1, a1))) == Element.zero()
        assert system.mul_sum(((2, a1, a1), (1, ad1, a1)), 1) == Element.zero()
    assert Element(system._nf[next(iter(a1.terms)), next(iter(a1.terms))]) == Element.zero()
    assert calls == [next(iter((a1 * a1).terms)), next(iter((ad1 * a1).terms))]


@pytest.mark.parametrize("name,build", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_pairs_with_one_concatenation_have_one_product(name, build):
    alg = build()
    system = ReductionSystem(alg.system.generators, alg.system.rules)
    rng = random.Random(f"splits {name}")
    for _ in range(15):
        word = Word(rng.choice(alg.generators) for _ in range(rng.randint(0, 5)))
        want = alg.normalize(word)
        for k in range(len(word) + 1):
            u, v = Element.from_word(word[:k]), Element.from_word(word[k:])
            assert system.mul(u, v) == want, (word, k)
            assert Element(system._nf[word[:k], word[k:]]) == want
    if "ad1" in {g.label for g in alg.generators}:
        a1, ad1 = alg.parse("a1"), alg.parse("ad1")
        left, right = system.mul(a1, alg.parse("a1*ad1")), system.mul(alg.parse("a1*a1"), ad1)
        assert left == right == alg.normalize(alg.parse("a1*a1*ad1"))


# -------------------------------------- the shortcuts against their definitions

# Scales and coefficients: 0 and +-1 as ints, Scalars and HPolys (the unit
# singletons and fresh objects equal to them), Fractions, and field values
# with all four coordinates, I*r2 included.
_FRACTIONS = bounded_fractions(3, 4)
_SCALES = st.one_of(
    st.sampled_from([0, 1, -1, ONE, MINUS_ONE, H_ONE, H_MINUS_ONE, HPoly((ONE,)), -H_ONE]),
    _FRACTIONS,
    scalars_of(_FRACTIONS),
)


@st.composite
def _product_sums(draw, h_free):
    """An algebra and terms (s, x, y) over it; with h in coefficients and
    scales unless `h_free`."""
    alg = draw(st.sampled_from(ALGEBRAS))[1]()
    coeffs = _SCALES if h_free else st.one_of(
        _SCALES, st.lists(scalars_of(_FRACTIONS), min_size=2, max_size=3).map(HPoly))
    words = st.lists(st.sampled_from(alg.generators), max_size=4).map(Word)
    elements = st.lists(st.tuples(words, coeffs), max_size=3).map(Element)
    return alg, draw(st.lists(st.tuples(coeffs, elements, elements), min_size=1, max_size=3))


def _free_sum(alg, terms):
    return alg.normalize(Element.sum(x * y * s for s, x, y in terms))


def _assert_units_are_the_singletons(system):
    for nf in system._nf.values():
        for _, c in nf:
            if c == H_ONE or c == H_MINUS_ONE:
                assert c is H_ONE or c is H_MINUS_ONE


@settings(max_examples=80, deadline=None)
@given(_product_sums(h_free=False))
def test_a_sum_of_products_is_the_normal_form_of_the_free_sum(case):
    alg, terms = case
    want = _free_sum(alg, terms)
    assert Element.sum(alg.mul(x, y) * s for s, x, y in terms) == want
    system = ReductionSystem(alg.system.generators, alg.system.rules)
    for _ in range(2):  # on a fresh system, then on the same, warm one
        assert system.mul_sum(terms) == want
    _assert_units_are_the_singletons(system)


@settings(max_examples=80, deadline=None)
@given(_product_sums(h_free=True), st.integers(-1, 3))
def test_a_slice_is_the_h_coefficient_of_the_sum(case, k):
    alg, terms = case
    want = _free_sum(alg, terms).h_coefficient(k)
    for slice_first in (True, False):
        system = ReductionSystem(alg.system.generators, alg.system.rules)
        for _ in range(2):  # each way first on a fresh system, then warm
            if slice_first:
                assert system.mul_sum(terms, k) == want
            assert system.mul_sum(terms).h_coefficient(k) == want
            assert system.mul_sum(terms, k) == want
        _assert_units_are_the_singletons(system)


# ------------------------------------------- the free-product formulas, kept


def _old_components(alg, x):
    return homogeneous_components(x, alg.zero_grade)


def _old_eps_bracket(ctx, product, x, y):
    alg, eps = ctx.algebra, ctx.factor.eval
    ys = _old_components(alg, y).items()
    return Element.sum(
        term
        for gx, u in _old_components(alg, x).items()
        for gy, v in ys
        for term in (product(u, v), product(v, u) * -eps(gx, gy))
    )


def _old_epsilon_commutator(ctx, x, y):
    return ctx.algebra.normalize(_old_eps_bracket(ctx, operator.mul, x, y))


def _old_mu_n(exp, x, y, n):
    return exp.mu(x, y).h_coefficient(n)


def _old_poisson_bracket(ctx, x, y):
    return _old_eps_bracket(ctx, lambda u, v: _old_mu_n(ctx.expansion, u, v, 1), x, y)


def _old_lie_residuals(ctx, bracket, x, y, z):
    alg, eps = ctx.algebra, ctx.factor.eval
    gx, gy, gz = (grade_of(e, alg.zero_grade) for e in (x, y, z))
    xy = bracket(ctx, x, y)
    anti = alg.normalize(xy + bracket(ctx, y, x) * eps(gx, gy))
    jacobi = alg.normalize(
        bracket(ctx, x, bracket(ctx, y, z)) * eps(gz, gx)
        + bracket(ctx, z, xy) * eps(gy, gz)
        + bracket(ctx, y, bracket(ctx, z, x)) * eps(gx, gy)
    )
    return anti, jacobi


def _old_verify_poisson_axioms(ctx, triples):
    failures = []
    alg, eps = ctx.algebra, ctx.factor.eval
    for k, (x, y, z) in enumerate(triples):
        anti, jacobi = _old_lie_residuals(ctx, _old_poisson_bracket, x, y, z)
        if not anti.is_zero():
            failures.append(f"triple {k}: antisymmetry residual {anti}")
        if not jacobi.is_zero():
            failures.append(f"triple {k}: Jacobi residual {jacobi}")
        gx, gy = grade_of(x, alg.zero_grade), grade_of(y, alg.zero_grade)
        yz = alg.normalize(y * z)
        leibniz = alg.normalize(
            _old_poisson_bracket(ctx, x, yz)
            - _old_poisson_bracket(ctx, x, y) * z
            - y * _old_poisson_bracket(ctx, x, z) * eps(gx, gy)
        )
        if not leibniz.is_zero():
            failures.append(f"triple {k}: Leibniz residual {leibniz}")
    return failures


def _old_verify_lie_axioms(ctx, triples):
    failures = []
    for k, (x, y, z) in enumerate(triples):
        anti, jacobi = _old_lie_residuals(ctx, _old_epsilon_commutator, x, y, z)
        if not anti.is_zero():
            failures.append(f"triple {k}: antisymmetry residual {anti}")
        if not jacobi.is_zero():
            failures.append(f"triple {k}: Jacobi residual {jacobi}")
    return failures


def _old_check_deformation_identity(exp, x, y, z, n):
    xy, yz = exp.mu(x, y), exp.mu(y, z)
    return Element.sum(
        term
        for q in range(n + 1)
        for term in (
            _old_mu_n(exp, xy.h_coefficient(q), z, n - q),
            -_old_mu_n(exp, x, yz.h_coefficient(q), n - q),
        )
    )


def _old_full_residual(exp, x, y, z, n):
    """h^n of N(N(xy)z) - N(xN(yz)), every order formed and then sliced."""
    q = exp.quantum
    return (q.mul(exp.mu(x, y), z) - q.mul(x, exp.mu(y, z))).h_coefficient(n)


def _old_mu_sums(exp, x, y, z, n):
    """The two sides of order-n associativity, each summed order by order."""
    xy, yz = exp.mu(x, y), exp.mu(y, z)
    left = Element.sum(_old_mu_n(exp, xy.h_coefficient(q), z, n - q) for q in range(n + 1))
    right = Element.sum(_old_mu_n(exp, x, yz.h_coefficient(q), n - q) for q in range(n + 1))
    return left, right


def _compare_laws(exp, qctx, cctx, triples):
    """Every residual and failure list of the new code against the old
    formulas; returns how many compared values were nonzero."""
    nonzero = 0
    for x, y, z in triples:
        values = [
            (epsilon_commutator(qctx, x, y), _old_epsilon_commutator(qctx, x, y)),
            (poisson_bracket(cctx, x, y), _old_poisson_bracket(cctx, x, y)),
            *zip(_lie_residuals(qctx, epsilon_commutator, x, y, z),
                 _old_lie_residuals(qctx, _old_epsilon_commutator, x, y, z)),
            *zip(_lie_residuals(cctx, poisson_bracket, x, y, z),
                 _old_lie_residuals(cctx, _old_poisson_bracket, x, y, z)),
            *((exp.mu_n(u, v, n), _old_mu_n(exp, u, v, n))
              for u, v in ((x, y), (y, z), (x, z)) for n in range(-1, 4)),
        ]
        # The residuals vanish by associativity; each side of the identity,
        # N(N(xy)z) and N(xN(yz)) at h^n, is compared on its own as well.
        q = exp.quantum
        for n in range(4):
            values.append((check_deformation_identity(exp, x, y, z, n),
                           _old_check_deformation_identity(exp, x, y, z, n)))
            values.append((check_deformation_identity(exp, x, y, z, n),
                           _old_full_residual(exp, x, y, z, n)))
            values += zip(
                (q.mul(exp.mu(x, y), z).h_coefficient(n), q.mul(x, exp.mu(y, z)).h_coefficient(n)),
                _old_mu_sums(exp, x, y, z, n),
            )
        for new, old in values:
            assert new == old, (x, y, z)
            nonzero += not new.is_zero()
    assert verify_poisson_axioms(cctx, triples) == _old_verify_poisson_axioms(cctx, triples)
    assert verify_lie_axioms(qctx, triples) == _old_verify_lie_axioms(qctx, triples)
    return nonzero


@pytest.mark.parametrize("family", FAMILIES)
def test_laws_match_the_free_product_formulas(family):
    exp = DeformationExpansion(build_noa(family, 2))
    qctx, cctx = BracketContext.quantum(exp.quantum), BracketContext.classical(exp)
    triples = sample_triples(exp.classical, 6, seed=FAMILIES.index(family))
    assert _compare_laws(exp, qctx, cctx, triples) > 0


def test_laws_match_the_free_product_formulas_where_leibniz_fails():
    # the cases of test_exclusion_limits_break_leibniz and
    # test_wrong_factor_breaks_leibniz, whose residuals are nonzero
    exp = DeformationExpansion(build_noa("b", 2))
    triples = sample_triples(exp.classical, 40, seed=5, max_len=2)
    cctx = BracketContext.classical(exp)
    old = _old_verify_poisson_axioms(cctx, triples)
    assert old and verify_poisson_axioms(cctx, triples) == old

    exp = DeformationExpansion(build_noa("a", 1))
    wrong = eps_c(1)
    qctx = BracketContext.quantum(exp.quantum, factor=wrong)
    cctx = BracketContext.classical(exp, factor=wrong)
    a1, ad1 = exp.classical.parse("a1"), exp.classical.parse("ad1")
    triples = [(a1, a1, ad1), (ad1, a1, a1 * ad1), (a1, ad1, ad1)]
    assert _old_verify_poisson_axioms(cctx, triples)
    assert _compare_laws(exp, qctx, cctx, triples) > 0


def _sign_mutated_expansion():
    """The fermion on one mode with the sign of a1*ad1 -> -ad1*a1 + h
    flipped: not confluent, so its product is not associative and the
    order-n residuals are not all zero."""
    base = build_noa("a", 1)
    a, ad = base.gen("a1"), base.gen("ad1")
    rules = [Rule(Word((a, a)), Element.zero()), Rule(Word((ad, ad)), Element.zero()),
             Rule(Word((a, ad)), Element.from_word(Word((ad, a))) + Element.scalar(H))]
    system = ReductionSystem(base.system.generators, rules)
    assert system.check_confluence()
    # Algebra refuses a system that is not confluent, and this test needs
    # one on purpose: only this instance reports no unresolved pair.
    system.check_confluence = lambda: []
    return DeformationExpansion(Algebra("sign-mutated", base.family, system, base.factor, H,
                                        params=base.params))


def _expansions():
    """The expansions of `ALGEBRAS` (those with h left to expand in), and
    one of a product that is not associative."""
    got = []
    for name, build in ALGEBRAS:
        alg = build()
        if not alg.is_classical():
            got.append((name, DeformationExpansion(alg)))
    return got + [("sign-mutated", _sign_mutated_expansion())]


def test_deformation_identity_matches_the_sliced_formula(monkeypatch):
    expansions = _expansions()
    assert len(expansions) >= len(FAMILIES) * 2
    calls = []
    mul_sum = ReductionSystem.mul_sum

    def counted(self, terms, degree=None):
        calls.append(degree)
        return mul_sum(self, terms, degree)

    monkeypatch.setattr(ReductionSystem, "mul_sum", counted)
    nonzero = 0
    for name, exp in expansions:
        for x, y, z in sample_triples(exp.classical, 4, seed=name):
            for n in range(-1, 5):
                calls.clear()
                got = check_deformation_identity(exp, x, y, z, n)
                made = list(calls)
                assert got == _old_check_deformation_identity(exp, x, y, z, n), (name, n)
                if n >= 0:
                    # one exact mu(x, y), one mu(y, z), one outer sum per q
                    assert made == [None, None] + [n - q for q in range(n + 1)]
                nonzero += not got.is_zero()
    assert nonzero > 0


def _preset_factors():
    """The factor of every preset at one and two modes, eps_q(2) (whose
    exponents go negative) and a factor on the modular group Z/4."""
    specs = [f"{family}:n={n}" for family in FAMILY_NAMES for n in (1, 2)]
    specs += ["qplane:2", "qplane:q=3", "cex"] + [
        f"ext:n=2,factor={name}" for name in FACTOR_PRESETS]
    factors = []
    for spec in specs:
        alg = parse_preset(spec)
        factors.append((spec, alg.factor, alg.zero_grade.dim, alg.zero_grade.moduli))
    return factors + [("eps_q(2)", eps_q(2), 2, (0, 0)),
                      ("i on Z/4", CommutationFactor(I, ((1,),)), 1, (4,))]


def test_memoized_eval_is_the_power_of_the_base():
    factors = _preset_factors()
    assert {moduli for *_, moduli in factors} > {(0,), (0, 0)}
    for label, factor, dim, moduli in factors:
        fresh = CommutationFactor(factor.base, factor.form, factor.label)
        grades = [Grade(c, moduli) for c in itertools.product(range(-2, 3), repeat=dim)]
        for g, k in itertools.product(grades, repeat=2):
            want = factor.base ** factor.exponent(g, k)
            first = fresh.eval(g, k)
            assert first == want, (label, g, k)
            # a second call, with equal but distinct grades, is the memo's
            assert fresh.eval(Grade(g.coords, moduli), Grade(k.coords, moduli)) is first
            assert factor.eval(g, k) == want
        assert len(fresh._values) == len({(g, k) for g in grades for k in grades})


# ---------------------------------------------------- no second normal pass


@pytest.mark.parametrize("family", FAMILIES)
def test_law_check_never_renormalizes(family, monkeypatch):
    exp = DeformationExpansion(build_noa(family, 2))
    x, y, z = sample_triples(exp.classical, 1, seed=11)[0]
    qctx, cctx = BracketContext.quantum(exp.quantum), BracketContext.classical(exp)
    calls = []
    normalize = ReductionSystem.normalize

    def counted(self, x):
        calls.append(x)
        return normalize(self, x)

    monkeypatch.setattr(ReductionSystem, "normalize", counted)
    verify_poisson_axioms(cctx, [(x, y, z)])
    verify_lie_axioms(qctx, [(x, y, z)])
    for n in range(4):
        check_deformation_identity(exp, x, y, z, n)
    assert calls == []


# ------------------------------------------------- sums of products, h^k parts


def _h_free_element(rng, alg):
    return Element((Word(rng.choice(alg.generators) for _ in range(rng.randint(0, 4))),
                    _random_scalar(rng)) for _ in range(rng.randint(1, 3)))


def _product_terms(rng, alg, element, scale):
    """Seeded (scale, x, y) triples with the zero, the unit and repeated pairs."""
    special = [Element.zero(), Element.one(), Element.from_word(alg.generators[0])]
    terms = []
    for _ in range(rng.randint(1, 4)):
        x = rng.choice(special) if rng.random() < 0.3 else element()
        y = rng.choice(special) if rng.random() < 0.3 else element()
        terms.append((scale(), x, y))
        if rng.random() < 0.3:
            terms.append((scale(), x, y))  # the same pair again
    return terms


def _scale(rng, with_h):
    pick = rng.randrange(4 if with_h else 3)
    return (rng.randint(-2, 2), _random_scalar(rng), HPoly.of(_random_scalar(rng)),
            HPoly([_random_scalar(rng), _random_scalar(rng)]))[pick]


@pytest.mark.parametrize("name,build", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_mul_sum_is_the_sum_of_its_products(name, build):
    alg = build()
    rng = random.Random(f"sum {name}")
    for _ in range(20):
        terms = _product_terms(rng, alg, lambda: _random_element(rng, alg, rng.randint(0, 2)),
                               lambda: _scale(rng, True))
        want = Element.sum(alg.mul(x, y) * s for s, x, y in terms)
        assert alg.system.mul_sum(terms) == want, terms
        assert want == alg.normalize(Element.sum(x * y * s for s, x, y in terms))


@pytest.mark.parametrize("name,build", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_mul_sum_slice_is_the_h_coefficient_of_the_sum(name, build):
    alg = build()
    rng = random.Random(f"slice {name}")
    for _ in range(20):
        terms = _product_terms(rng, alg, lambda: _h_free_element(rng, alg),
                               lambda: _scale(rng, False))
        full = alg.system.mul_sum(terms)
        for k in range(-2, 5):
            assert alg.system.mul_sum(terms, k) == full.h_coefficient(k), (terms, k)


def test_hpoly_part_is_the_coefficient_as_a_polynomial():
    rng = random.Random("part")
    for _ in range(200):
        p = HPoly([_random_scalar(rng) if rng.random() < 0.7 else 0
                   for _ in range(rng.randint(0, 5))])
        coeffs = p.coeffs
        for k in range(-2, len(coeffs) + 2):
            want = HPoly.of(coeffs[k] if 0 <= k < len(coeffs) else 0)
            assert p.part(k) == want and p.coefficient(k) == want.constant()


@pytest.mark.parametrize("family", FAMILIES)
def test_mu_n_is_the_h_coefficient_of_mu(family):
    exp = DeformationExpansion(build_noa(family, 2))
    for x, y, z in sample_triples(exp.classical, 8, seed=21):
        for u, v in ((x, y), (y, z), (z, x), (x, Element.one()), (Element.zero(), y)):
            for n in range(-2, 5):
                assert exp.mu_n(u, v, n) == _old_mu_n(exp, u, v, n)


# ------------------------------------------------------------- refusing h


def _refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _h_message(element):
    return f"deformation inputs live over the base field, got h in {element}"


@pytest.mark.parametrize("family", FAMILIES)
def test_deformation_laws_refuse_h_as_before(family):
    exp = DeformationExpansion(build_noa(family, 1))
    cctx = BracketContext.classical(exp)
    a, ad = exp.classical.parse("a1"), exp.classical.parse("ad1")
    ha, had = a * H, ad * (H * 2 + 1)
    zero = Element.zero()
    for x, y, bad in ((ha, ad, ha), (a, had, had), (ha, had, ha), (ha, zero, ha),
                      (zero, had, had)):
        for n in (-1, 0, 1, 3):
            assert _refusal(lambda: exp.mu_n(x, y, n)) == _h_message(bad)
            assert _refusal(lambda: _old_mu_n(exp, x, y, n)) == _h_message(bad)
        if x and y:
            assert _refusal(lambda: poisson_bracket(cctx, x, y)) == _h_message(bad)
    for x, y, z, bad in ((ha, ad, a, ha), (a, had, a, had), (a, ad, ha, ha),
                         (ha, had, ha, ha), (zero, zero, ha, ha)):
        for n in (-1, 0, 2):
            assert _refusal(lambda: check_deformation_identity(exp, x, y, z, n)) == _h_message(bad)
            assert _refusal(lambda: _old_full_residual(exp, x, y, z, n)) == _h_message(bad)


def test_mul_sum_slice_refuses_h_instead_of_a_wrong_slice():
    alg = build_noa("b", 1)
    a, ad = alg.parse("a1"), alg.parse("ad1")
    system = alg.system
    # a1*ad1 = ad1*a1 + h: with h in an input the h^1 part would need a
    # convolution, so the slice path refuses what the exact path sums.
    for terms, bad in ((((1, a * H, ad),), a * H), (((1, a, ad * H),), ad * H),
                       (((1, a, ad), (H, a, ad)), H), (((-1, a, ad), (1, ad * H, a)), ad * H)):
        assert _refusal(lambda: system.mul_sum(terms, 1)) == _h_message(bad)
        assert system.mul_sum(terms) == Element.sum(alg.mul(x, y) * s for s, x, y in terms)
    # Nothing to refuse where no product is formed.
    assert system.mul_sum(((1, a * H, Element.zero()), (0, a, ad * H)), 1) == Element.zero()


def test_cli_poisson_bracket_refuses_h_in_one_line(capsys):
    assert run(["bracket", "--kind", "poisson", "--alg", "boson:n=1", "h*a1", "ad1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: deformation inputs live over the base field, got h in h*a1\n"
