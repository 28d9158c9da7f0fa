"""Reduction engine checked against an exhaustive all-orders reducer.

The oracle below shares no code with the engine: it applies every applicable
rule at every position, in every order, and records the set of fully reduced
elements it can reach.  For a confluent system that set must be a singleton
containing the engine's normal form.
"""
import functools
import heapq
import itertools
import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epsalg
from epsalg import (
    EMPTY_WORD,
    Element,
    Generator,
    Grade,
    H,
    H_ONE,
    HPoly,
    I,
    R2,
    ReductionSystem,
    Rule,
    StepBudgetExceeded,
    Word,
    build_noa,
    grade_of,
    parse_preset,
    scalars,
)
from epsalg.rewrite import _BASE, _UNESCAPED, MAX_GENERATORS


def _key(e: Element):
    """Order-free fingerprint of an element, for set membership."""
    return tuple(sorted((str(w), str(c)) for w, c in e.terms.items()))


def _one_steps(rules, e: Element):
    """Every element reachable from e by a single rewrite anywhere."""
    out = []
    for word, coeff in e.terms.items():
        letters = word.letters
        for pos in range(len(letters)):
            for rule in rules:
                m = len(rule.lhs)
                if letters[pos : pos + m] != rule.lhs.letters:
                    continue
                patched = Word(letters[:pos]) * rule.rhs * Word(letters[pos + m :])
                out.append(e - Element.from_word(word) * coeff + patched * coeff)
    return out


def _all_normal_forms(rules, start: Element):
    reached = {}
    frontier = [start]
    seen = set()
    while frontier:
        cur = frontier.pop()
        k = _key(cur)
        if k in seen:
            continue
        seen.add(k)
        steps = _one_steps(rules, cur)
        if steps:
            frontier.extend(steps)
        else:
            reached[k] = cur
    return reached


def _all_words(gens, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(gens, repeat=n):
            yield Word(tup)


@pytest.mark.parametrize(
    "family,n",
    [pytest.param(f, 1, id=f) for f in ["a", "b", "c"]]
    + [pytest.param(f, 2, id=f"{f}:n=2") for f in ["a", "a'", "b", "b'", "c", "c'"]],
)
def test_engine_agrees_with_all_orders_oracle(family, n):
    alg = build_noa(family, n)
    sys_ = alg.system
    for word in _all_words(sys_.generators, 3):
        nfs = _all_normal_forms(sys_.rules, Element.from_word(word))
        assert len(nfs) == 1, f"{word} has several normal forms"
        (only,) = nfs.values()
        assert sys_.normalize(word) == only


def test_boson_frozen_value():
    alg = build_noa("c", 1)
    a, ad = alg.parse("a1"), alg.parse("ad1")
    assert str(alg.normalize(a * ad * ad)) == "ad1^2*a1 + 2*h*ad1"


def test_normalize_is_idempotent_and_linear():
    alg = build_noa("c", 2)
    a1, ad2 = alg.parse("a1"), alg.parse("ad2")
    x = alg.normalize(a1 * ad2 * a1 * ad2)
    assert alg.normalize(x) == x
    y = alg.normalize(ad2 * a1)
    assert alg.normalize((a1 * ad2 * a1 * ad2) * 3 + (ad2 * a1) * H) == x * 3 + y * H


def test_normalize_accepts_words_and_generators():
    alg = build_noa("a", 1)
    g = alg.gen("a1")
    assert alg.system.normalize(g) == Element.from_word(g)
    assert alg.system.normalize(Word((g, g))) == Element.zero()


def test_basis_matches_brute_force():
    alg = build_noa("b", 2)
    sys_ = alg.system
    # independent filter: irreducible = no rule left side occurs as a subword
    expect = [
        w
        for w in _all_words(sys_.generators, 3)
        if all(
            w.letters[i : i + len(r.lhs)] != r.lhs.letters
            for r in sys_.rules
            for i in range(len(w) - len(r.lhs) + 1)
        )
    ]
    got = sys_.enumerate_basis(3)
    assert set(got) == set(expect)
    # ascending deglex, no duplicates
    keys = [sys_.word_key(w) for w in got]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_excl_basis_closes_at_two():
    alg = build_noa("b", 2)
    assert alg.system.basis_is_complete(2)
    assert len(alg.basis(2)) == 9
    assert not build_noa("c", 1).system.basis_is_complete(5)


def test_confluence_of_presets():
    for family in ["a", "a'", "b", "b'", "c", "c'"]:
        assert build_noa(family, 2).system.check_confluence() == []


def _sign_mutated_fermion():
    base = build_noa("a", 1)
    a, ad = base.gen("a1"), base.gen("ad1")
    h1 = Element.from_word(Word((ad, a))) + Element.scalar(H)
    return ReductionSystem(
        base.system.generators,
        [
            Rule(Word((a, a)), Element.zero()),
            Rule(Word((ad, ad)), Element.zero()),
            # sign of the mixed term flipped relative to the fermion relation
            Rule(Word((a, ad)), h1),
        ],
    )


def _inclusion_system():
    base = build_noa("a", 1)
    a, ad = base.gen("a1"), base.gen("ad1")
    return ReductionSystem(
        base.system.generators,
        [
            Rule(Word((a, a)), Element.zero()),
            Rule(Word((a, a, ad)), Element.from_word(a)),
        ],
    )


def test_sign_mutated_fermion_is_not_confluent():
    bad = _sign_mutated_fermion().check_confluence()
    assert bad
    residuals = {str(amb.residual) for amb in bad}
    assert residuals & {"2*h*a1", "-2*h*a1", "2*h*ad1", "-2*h*ad1"}
    for amb in bad:
        assert not amb.resolvable
        assert "UNRESOLVED" in str(amb)


def test_inclusion_ambiguity_is_reported():
    sys_ = _inclusion_system()
    kinds = {amb.kind for amb in sys_.iter_ambiguities()}
    assert "inclusion" in kinds
    assert sys_.check_confluence() != []


def test_rule_validation():
    base = build_noa("a", 1)
    gens = base.system.generators
    a, ad = base.gen("a1"), base.gen("ad1")
    with pytest.raises(ValueError, match="duplicate rule"):
        ReductionSystem(gens, [Rule(Word((a, a)), Element.zero())] * 2)
    square = Rule(Word((a, a)), Element.zero())
    with pytest.raises(ValueError, match=r"duplicate rule left side a1\^2$"):
        ReductionSystem(gens, [square, Rule(Word((ad, ad)), Element.zero()), square])
    with pytest.raises(ValueError, match=r"duplicate rule left side a1\*ad1$"):
        ReductionSystem(gens, [Rule(Word((a, ad)), Element.zero()),
                               Rule(Word((a, ad)), Element.from_word(Word((ad, a))))])
    with pytest.raises(ValueError, match="inhomogeneous"):
        ReductionSystem(
            gens,
            [Rule(Word((a, ad)), Element.from_word(a) + Element.one())],
        )
    with pytest.raises(ValueError, match="termination order"):
        # right side is longer than the left: not a decrease
        ReductionSystem(gens, [Rule(Word((a, ad)), Element.from_word(Word((ad, a, a, ad))))])
    with pytest.raises(ValueError, match=r"changes grade: \(0\) -> \(-1\)$"):
        ReductionSystem(gens, [Rule(Word((a, ad)), Element.from_word(a))])
    with pytest.raises(ValueError, match="empty left side"):
        ReductionSystem(gens, [Rule(EMPTY_WORD, Element.zero())])
    stranger = Generator("z", None, a.grade)
    with pytest.raises(ValueError, match="rule uses foreign generator z"):
        ReductionSystem(gens, [Rule(Word((a, ad)), Element.from_word(Word((stranger, a))))])
    with pytest.raises(ValueError, match="rule uses foreign generator z"):
        ReductionSystem(gens, [Rule(Word((stranger, a)), Element.zero())])


def test_step_budget():
    base = build_noa("c", 1)
    a, ad = base.gen("a1"), base.gen("ad1")
    tiny = ReductionSystem(base.system.generators, base.system.rules, max_steps=2)
    with pytest.raises(StepBudgetExceeded):
        tiny.normalize(Word((a, a, a, ad, ad, ad)))


def test_step_budget_applies_per_call():
    base = build_noa("c", 2)
    g = base.gen
    words = [Word((g(f"a{i}"),) * 3 + (g(f"ad{i}"),) * 3) for i in (1, 2)]
    x = Element.from_word(words[0]) + Element.from_word(words[1])

    def system(max_steps):
        return ReductionSystem(base.system.generators, base.system.rules, max_steps)

    # the fewest steps that reduce one of the two mirror-image words, and both
    one = next(k for k in range(1000) if _reduces(system(k), words[0]))
    steps = next(k for k in range(1000) if _reduces(system(k), x))
    assert steps == 2 * one  # the budget covers the whole sum; no rewrite is shared
    assert system(steps).normalize(x) == base.normalize(x)
    with pytest.raises(StepBudgetExceeded) as err:
        system(steps - 1).normalize(x)
    assert str(err.value) == f"step budget {steps - 1} exhausted while reducing a sum of 2 words"


def _reduces(sys_, word):
    try:
        sys_.normalize(word)
    except StepBudgetExceeded:
        return False
    return True


def test_normalize_leaves_the_memo_to_mul():
    base = build_noa("c", 2)
    sys_ = ReductionSystem(base.system.generators, base.system.rules)
    x = base.parse("a1^3*ad1^3*a2*ad2 + 2*a2*ad2*a1")
    y = base.parse("ad1 + h*a2*ad1")
    assert sys_.normalize(x) == base.normalize(x)
    assert sys_._nf == {}
    assert sys_.mul(x, y) == base.normalize(x * y) == sys_.normalize(x * y)
    assert set(sys_._nf) == {(u, v) for u in x.terms for v in y.terms}
    assert len(sys_._nf) == 4


def test_word_order_is_deglex():
    sys_ = build_noa("a", 2).system
    gens = sys_.generators
    key = sys_.word_key
    assert key(Word((gens[3],))) < key(Word((gens[0], gens[0])))
    assert key(Word((gens[0], gens[1]))) < key(Word((gens[1], gens[0])))


# ------------------------------------------- the per-Word build as an oracle
#
# The build the engine had before it checked rules on code strings, kept as
# it was: a Grade per rule word through Word.grade, the termination order
# through word_key, then a second walk over the rules that encodes them and
# finds the sign-only rules by HPoly equality with 1 and -1.  Both builds
# must accept and refuse the same rule sets, with the same message, and
# encode the accepted ones identically.


def _word_build(generators, rules):
    """The refusal message of the per-Word build, or what it compiled."""
    bare = ReductionSystem(generators, [])
    zero = bare.zero_grade
    left_sides = {}
    try:
        for rule in rules:
            if len(rule.lhs) == 0:
                raise ValueError("rule with empty left side")
            if rule.lhs.letters in left_sides:
                raise ValueError(f"duplicate rule left side {rule.lhs}")
            left_sides[rule.lhs.letters] = rule
            for letter in itertools.chain(rule.lhs, *(w for w in rule.rhs.terms)):
                if letter not in bare._prec:
                    raise ValueError(f"rule uses foreign generator {letter}")
            lhs_grade = rule.lhs.grade(zero)
            if not rule.rhs.is_zero():
                g = grade_of(rule.rhs, zero)
                if g is None:
                    raise ValueError(f"rule {rule} has inhomogeneous right side")
                if g != lhs_grade:
                    raise ValueError(f"rule {rule} changes grade: {lhs_grade} -> {g}")
            for word in rule.rhs.terms:
                if not bare.word_key(word) < bare.word_key(rule.lhs):
                    raise ValueError(
                        f"rule {rule} does not decrease the termination order at {word}"
                    )
    except ValueError as exc:
        return str(exc)
    rewrites = {
        bare._encode(lhs): [(bare._encode(w.letters), c) for w, c in rule.rhs.terms.items()]
        for lhs, rule in left_sides.items()
    }
    signed = {
        lhs: (rhs[0][0], 1 if rhs[0][1] == H_ONE else -1)
        for lhs, rhs in rewrites.items() if len(rhs) == 1 and rhs[0][1] in (H_ONE, -H_ONE)
    }
    lefts = sorted(rewrites, key=lambda s: (len(s), s))
    pattern = "|".join(map(re.escape, lefts)) or "(?!)"
    reach = len(lefts[-1]) - 1 if lefts else 0
    return (list(left_sides.items()), list(rewrites.items()), list(signed.items()),
            pattern, reach)


def _one_pass_build(generators, rules):
    try:
        sys_ = ReductionSystem(generators, rules)
    except ValueError as exc:
        return str(exc)
    return (list(sys_.left_sides.items()), list(sys_._rewrites.items()),
            list(sys_._signed.items()), sys_._redex.pattern, sys_._reach)


_PARITY_PRESETS = [
    f"{family}:n={n}{h}"
    for family in ["fermion", "pseudo-fermion", "excl", "excl-dual", "boson", "pseudo-boson"]
    for n in (1, 2, 3)
    for h in ("", ",h=0")
] + ["qplane:2", "cex", "ext:n=3"]  # cex's x*X -> 1 has grade 0 only mod (2, 2)


def _mutants(gens, rules, rng, count):
    """Rule sets that differ from `rules` in one right-side word of one rule.

    The word gets two adjacent letters swapped, a letter dropped, a letter
    added, a letter replaced by another of the same grade mod 2, or a pair of
    equal letters inserted (longer, and of the same grade mod 2).
    """
    gens = list(gens)
    for _ in range(count):
        k = rng.randrange(len(rules))
        rule = rules[k]
        terms = list(rule.rhs.terms.items()) or [(EMPTY_WORD, H_ONE)]
        t = rng.randrange(len(terms))
        letters = list(terms[t][0].letters)
        kind = rng.choice(["swap", "drop", "add", "mod2", "pair"])
        at = rng.randrange(len(letters) + 1)
        if kind == "swap" and len(letters) >= 2:
            i = rng.randrange(len(letters) - 1)
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
        elif kind == "drop" and letters:
            del letters[min(at, len(letters) - 1)]
        elif kind == "mod2" and letters:
            i = min(at, len(letters) - 1)
            g = letters[i]
            same = [
                u for u in gens
                if u != g and all(
                    (x - y) % 2 == 0 for x, y in zip(u.grade.coords, g.grade.coords)
                )
            ]
            letters[i] = rng.choice(same or gens)
        elif kind == "pair":
            g = rng.choice(gens)
            letters[at:at] = [g, g]
        else:
            letters.insert(at, rng.choice(gens))
        terms[t] = (Word(letters), terms[t][1])
        yield rules[:k] + [Rule(rule.lhs, Element(terms))] + rules[k + 1:]


_REFUSALS = ("empty left side", "duplicate rule", "foreign generator",
             "inhomogeneous", "changes grade", "termination order")


def test_one_pass_build_matches_the_word_build():
    refusals, signs = set(), set()
    for name in _PARITY_PRESETS:
        sys_ = parse_preset(name).system
        gens, rules = sys_.generators, list(sys_.rules)
        g0, g1 = gens[:2]
        stranger = Generator("z", None, g0.grade)
        cases = [
            rules,
            rules + [rules[0]],
            # one Rule object twice among three rules
            [rules[0], rules[-1], rules[0]],
            # one left side carried by two distinct Rule objects
            rules + [Rule(Word(rules[-1].lhs.letters), rules[0].rhs)],
            # +-1/2 has the numerators of +-1: no sign-only rule
            [Rule(rule.lhs, rule.rhs / 2) for rule in rules],
            rules + [Rule(EMPTY_WORD, Element.zero())],
            rules[:-1] + [Rule(rules[-1].lhs, Element.from_word(Word((g0, stranger))))],
            # the same letters, not the same number of each
            rules + [Rule(Word((g1, g1, g0)), Element.from_word(Word((g0, g0, g1))))],
        ]
        cases.extend(_mutants(gens, rules, random.Random(name), 30))
        for case in cases:
            want = _word_build(gens, case)
            assert _one_pass_build(gens, case) == want, name
            if isinstance(want, str):
                refusals.add(next(why for why in _REFUSALS if why in want))
        assert not isinstance(_one_pass_build(gens, rules), str), name
        signed = _one_pass_build(gens, rules)[2]
        signs.update(sign for _, (_, sign) in signed)
    # Every check refused some rule set, and both signs were followed.
    assert signs == {1, -1}
    assert refusals == set(_REFUSALS)


# ------------------------------------------------ the tuple reducer as an oracle
#
# The reducer the engine had before words became code strings, kept word for
# word: it scans letter tuples for the leftmost, then shortest, redex and
# orders pending words by precedence tuples.  On a non-confluent system the
# normal form depends on where each rewrite happens, so agreement there pins
# the redex choice and the start of each search, not just the quotient.


def _tuple_find_redex(self, word: Word):
    """Leftmost, then shortest, match: (position, rule) or None."""
    letters = word.letters
    for pos in range(len(letters)):
        for m in sorted(set(map(len, self.left_sides))):
            rule = self.left_sides.get(letters[pos : pos + m])
            if rule is not None:
                return pos, rule
    return None


def _tuple_word_nf(self, word: Word) -> Element:
    prec = self._prec

    def largest_first(w):
        return (-len(w), tuple(-prec[g] for g in w))

    pending = {word: H_ONE}
    heap = [(largest_first(word), word)]
    irreducible = []
    steps = self.max_steps
    while heap:
        top = heapq.heappop(heap)[1]
        coeff = pending.pop(top)
        if not coeff:
            continue
        match = _tuple_find_redex(self, top)
        if match is None:
            irreducible.append((top, coeff))
            continue
        steps -= 1
        if steps < 0:
            raise StepBudgetExceeded(
                f"step budget {self.max_steps} exhausted while reducing {word}"
            )
        pos, rule = match
        head, tail = top.letters[:pos], top.letters[pos + len(rule.lhs) :]
        for w, c in rule.rhs.terms.items():
            child = Word(head + w.letters + tail)
            prev = pending.get(child)
            if prev is None:
                heapq.heappush(heap, (largest_first(child), child))
            term = coeff * c
            pending[child] = term if prev is None else prev + term
    return Element(irreducible)


_ORACLE_PRESETS = [
    f"{family}:n=2{h}"
    for family in ["fermion", "pseudo-fermion", "excl", "excl-dual", "boson", "pseudo-boson"]
    for h in ("", ",h=0")
] + ["qplane:2", "cex", "ext:n=3"]


@functools.lru_cache(maxsize=None)
def _oracle_system(name):
    if name == "sign-mutated":
        return _sign_mutated_fermion()
    if name == "inclusion":
        return _inclusion_system()
    return parse_preset(name).system


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_ORACLE_PRESETS + ["sign-mutated", "inclusion"]),
    st.lists(st.integers(0, 10**6), max_size=9),
)
@example("inclusion", [0, 0, 1])
@example("inclusion", [1, 0, 0, 1, 0, 0, 1])
@example("sign-mutated", [0, 0, 1, 1, 0, 1])
@example("sign-mutated", [0, 1, 0, 1, 0, 1, 0, 1, 0])
def test_code_string_reducer_matches_the_tuple_reducer(name, picks):
    sys_ = _oracle_system(name)
    gens = sys_.generators
    word = Word(gens[k % len(gens)] for k in picks)
    want = _tuple_word_nf(sys_, word)
    assert list(sys_._word_nf(word).terms.items()) == list(want.terms.items())


# Certification as the engine did it before critical pairs were found on code
# strings, kept word for word: every ordered pair of rules is scanned as
# letter tuples, each side of an ambiguity is a free product and the two are
# normalized apart.  Normalizing is K[h]-linear, so the one-pass residual must
# equal the difference even where the system is not confluent.


def _tuple_ambiguities(self):
    for r1, r2 in itertools.product(self.rules, repeat=2):
        l1, l2 = r1.lhs.letters, r2.lhs.letters
        for k in range(1, min(len(l1), len(l2))):
            if l1[len(l1) - k :] != l2[:k]:
                continue
            word = Word(l1 + l2[k:])
            left = r1.rhs * Word(l2[k:])
            right = Word(l1[: len(l1) - k]) * r2.rhs
            yield _tuple_resolve(self, word, "overlap", left, right)
        if r1 is not r2 and len(l2) < len(l1):
            for pos in range(len(l1) - len(l2) + 1):
                if l1[pos : pos + len(l2)] != l2:
                    continue
                word = r1.lhs
                left = r1.rhs
                right = Word(l1[:pos]) * r2.rhs * Word(l1[pos + len(l2) :])
                yield _tuple_resolve(self, word, "inclusion", left, right)


def _tuple_resolve(self, word, kind, left, right):
    return str(word), kind, str(self.normalize(left) - self.normalize(right))


def _overlap_and_inner_inclusion():
    """Two-letter overlaps and an inclusion at an inner position, most unresolved."""
    base = build_noa("boson", 1)
    a, ad = base.gen("a1"), base.gen("ad1")
    return ReductionSystem(
        base.system.generators,
        [
            Rule(Word((a, ad)), Element.from_word(Word((ad, a))) + Element.scalar(H)),
            Rule(Word((a, a, ad, a)), Element.from_word(Word((ad, a, a, a)))),
            Rule(Word((ad, a, a, ad)), Element.zero()),
        ],
    )


_CERTIFIED = [
    f"{family}:n={n}{h}"
    for family in ["fermion", "pseudo-fermion", "excl", "excl-dual", "boson", "pseudo-boson"]
    for n in range(1, 5)
    for h in ("", ",h=0")
] + ["excl:n=3,h=2", "qplane:2", "qplane:I", "cex", "ext:n=3", "ext:n=3,factor=eps_a"]


@pytest.mark.parametrize("name", _CERTIFIED + ["sign-mutated", "inclusion", "inner-inclusion"])
def test_certification_matches_the_free_product_resolution(name):
    if name == "inner-inclusion":
        sys_ = _overlap_and_inner_inclusion()
    else:
        sys_ = _oracle_system(name)
    fresh = ReductionSystem(sys_.generators, sys_.rules)
    got = [(str(a.word), a.kind, str(a.residual)) for a in fresh.iter_ambiguities()]
    assert got == list(_tuple_ambiguities(ReductionSystem(sys_.generators, sys_.rules)))
    if name == "inner-inclusion":
        assert len(got) == 8 and sum(r != "0" for _, _, r in got) == 7
        assert ("ad1*a1^2*ad1", "inclusion", "-ad1^2*a1^2 - 2*h*ad1*a1") in got


def test_certification_never_normalizes(monkeypatch):
    base = build_noa("fermion", 8).system
    sys_ = ReductionSystem(base.generators, base.rules)
    calls, seen = [], []
    normalize, iter_ambiguities = ReductionSystem.normalize, ReductionSystem.iter_ambiguities

    def counted(self, x):
        calls.append(x)
        return normalize(self, x)

    def listed(self):
        for amb in iter_ambiguities(self):
            seen.append(amb)
            yield amb

    monkeypatch.setattr(ReductionSystem, "normalize", counted)
    monkeypatch.setattr(ReductionSystem, "iter_ambiguities", listed)
    assert sys_.check_confluence() == []
    assert len(seen) == 816
    assert calls == [] and sys_._nf == {}


def test_step_budget_applies_per_critical_pair():
    base = build_noa("fermion", 2).system
    words = [amb.word for amb in base.iter_ambiguities()]
    tiny = ReductionSystem(base.generators, base.rules, max_steps=1)
    with pytest.raises(StepBudgetExceeded) as err:
        tiny.check_confluence()
    seen = []
    with pytest.raises(StepBudgetExceeded) as again:
        for amb in tiny.iter_ambiguities():
            seen.append(amb.word)
    assert seen == words[: len(seen)]
    assert str(err.value) == str(again.value)
    assert str(err.value) == f"step budget 1 exhausted while reducing {words[len(seen)]}"


# ------------------------------------------------ the heap reducer as an oracle
#
# The code-string reducer before sign-only rewrites were followed in place,
# kept word for word: every child goes through the heap and the pending
# dict.  The engine must meet the same strings with the same coefficients
# and search starts in the same order, so normal forms (term order too),
# residuals, budget errors and the number of rewrites all agree, also on
# systems that are not confluent.


def _heap_reduce(self, pending: dict, word) -> Element:
    search, rewrites, reach = self._redex.search, self._rewrites, self._reach
    starts = dict.fromkeys(pending, 0)
    heap = sorted((-len(s), s) for s in pending)  # a sorted list is a heap
    irreducible = []
    steps = self.max_steps
    while heap:
        top = heapq.heappop(heap)[1]
        coeff = pending.pop(top)
        start = starts.pop(top)
        if not coeff:
            continue
        match = search(top, start)
        if match is None:
            irreducible.append((self._decode(top), coeff))
            continue
        steps -= 1
        if steps < 0:
            raise StepBudgetExceeded(
                f"step budget {self.max_steps} exhausted while reducing {word}"
            )
        pos, end = match.span()
        head, tail = top[:pos], top[end:]
        start = max(0, pos - reach)
        for w, c in rewrites[match.group()]:
            child = head + w + tail
            prev = pending.get(child)
            term = coeff * c
            if prev is None:
                heapq.heappush(heap, (-len(child), child))
                pending[child] = term
                starts[child] = start
            else:
                pending[child] = prev + term
                starts[child] = min(starts[child], start)
    return Element(irreducible)


class _HeapSystem(ReductionSystem):
    _reduce = _heap_reduce


class _CountingSearch:
    """The redex pattern of a system, counting the searches that find one."""

    def __init__(self, pattern):
        self.pattern, self.found = pattern, 0

    def search(self, s, start):
        match = self.pattern.search(s, start)
        self.found += match is not None
        return match


def _both(sys_, max_steps=None):
    steps = sys_.max_steps if max_steps is None else max_steps
    return [cls(sys_.generators, sys_.rules, steps) for cls in (ReductionSystem, _HeapSystem)]


def _outcome(sys_, x):
    """The terms of the normal form of x, a word or an element, in order,
    and the rewrites made; or the message of the budget error."""
    sys_._redex = counting = _CountingSearch(sys_._redex)
    try:
        return list(sys_.normalize(x).terms.items()), counting.found
    except StepBudgetExceeded as exc:
        return str(exc)


_HEAP_ORACLE = _ORACLE_PRESETS + [
    f"{family}:n={n}" for family in ["fermion", "pseudo-fermion", "boson", "pseudo-boson"]
    for n in (3, 4)
] + ["excl:n=3", "excl-dual:n=3", "ext:n=3,factor=eps_a", "sign-mutated", "inclusion"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_HEAP_ORACLE), st.lists(st.integers(0, 10**6), max_size=12))
@example("fermion:n=3", [1, 4, 0, 3, 2, 5])
@example("pseudo-boson:n=2", [0, 0, 0, 2, 1, 3, 3, 1, 2, 2])
@example("sign-mutated", [0, 0, 1, 1, 0, 1])
def test_sign_following_reducer_matches_the_heap_reducer(name, picks):
    sys_ = _oracle_system(name)
    gens = sys_.generators
    word = Word(gens[k % len(gens)] for k in picks)
    new, old = _both(sys_)
    assert _outcome(new, word) == _outcome(old, word)


@pytest.mark.parametrize("name", _CERTIFIED + ["sign-mutated", "inclusion", "inner-inclusion"])
def test_sign_following_resolves_every_critical_pair_as_the_heap_reducer(name):
    if name == "inner-inclusion":
        sys_ = _overlap_and_inner_inclusion()
    else:
        sys_ = _oracle_system(name)
    new, old = _both(sys_)
    got = [(a.word, a.kind, list(a.residual.terms.items())) for a in new.iter_ambiguities()]
    want = [(a.word, a.kind, list(a.residual.terms.items())) for a in old.iter_ambiguities()]
    assert got == want


@pytest.mark.parametrize(
    "name,text",
    [
        ("fermion:n=3", "a1*a2*a3*ad3*ad2*ad1"),
        ("pseudo-fermion:n=3", "a3*ad1*a2*ad3*a1*ad2"),
        ("boson:n=2", "a1^2*a2^2*ad2^2*ad1^2"),
        ("pseudo-boson:n=2", "a2^2*a1*ad2*ad1^2"),
        ("excl:n=3", "ad1*a1*ad1*a3*ad3^2"),
        ("excl-dual:n=2", "ad1*a1*ad2*a2^2*ad1"),
    ],
)
def test_sign_following_spends_the_budget_as_the_heap_reducer(name, text):
    alg = parse_preset(name)
    (word,) = alg.parse(text).terms
    for budget in range(60):
        new, old = _both(alg.system, budget)
        got = _outcome(new, word)
        assert got == _outcome(old, word)
        if not isinstance(got, str):
            break
    else:
        pytest.fail(f"{text} needs more than 60 rewrites")
    assert budget > 3


def _cross_length_system():
    """Sign-only rules that shorten a word (x*x -> -1, z*z -> -x) beside
    sign-only rules that keep its length and a rule with a shorter term."""
    even, odd = Grade((0,)), Grade((1,))
    x, y, z = Generator("x", None, even), Generator("y", None, odd), Generator("z", None, even)
    return ReductionSystem((x, y, z), [
        Rule(Word((x, x)), -Element.one()),
        Rule(Word((z, z)), -Element.from_word(x)),
        Rule(Word((y, x)), -Element.from_word(Word((x, y)))),
        Rule(Word((z, x)), Element.from_word(Word((x, z)))),
        Rule(Word((z, y)), Element.from_word(Word((y, z))) + H * Element.from_word(y)),
    ])


def test_a_sign_only_rule_that_shortens_a_word_goes_through_its_length_heap():
    # A child shorter than the string it came from belongs to a later heap,
    # whatever its letters; only a child of the same length can be reduced
    # in place.
    sys_ = _cross_length_system()
    assert [len(w) for w, _ in sys_._signed.values()] == [0, 1, 2, 2]
    gens = sys_.generators
    rng = random.Random("cross-length sign rules")
    coeffs = [H_ONE, -H_ONE, H, 2 - H, I]
    for k in range(300):
        x = Element(
            (Word(rng.choice(gens) for _ in range(rng.randint(0, 7))), rng.choice(coeffs))
            for _ in range(rng.randint(1, 5))
        )
        if not x:
            continue
        new, old = _both(sys_)
        got = _outcome(new, x)
        assert got == _outcome(old, x), x
        if k < 60:
            for budget in range(got[1] + 1):
                new, old = _both(sys_, budget)
                assert _outcome(new, x) == _outcome(old, x), (x, budget)
    new, old = _both(sys_)
    got = [(a.word, a.kind, list(a.residual.terms.items())) for a in new.iter_ambiguities()]
    want = [(a.word, a.kind, list(a.residual.terms.items())) for a in old.iter_ambiguities()]
    assert got == want and len(got) > 5


def test_sign_following_makes_no_more_rewrites_on_the_normal_order_workload(monkeypatch):
    # Seed 1 of the benchmark's normal-order workload: 180 cold normal forms.
    # Every rule coefficient there is +-1 or h, and every product with +-h^k
    # is a shift, so no coefficient product convolves.
    convolutions = []
    convolve = scalars._convolve
    monkeypatch.setattr(scalars, "_convolve",
                        lambda a, b: convolutions.append((a, b)) or convolve(a, b))
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    ops = workloads.normal_order_ops(random.Random("normal-order/1"), 180)
    outputs, rewrites = {}, {}
    for cls in (ReductionSystem, _HeapSystem):
        outputs[cls], rewrites[cls] = [], 0
        for op in ops:
            alg = parse_preset(op["preset"])
            sys_ = cls(alg.system.generators, alg.system.rules)
            sys_._redex = counting = _CountingSearch(sys_._redex)
            outputs[cls].append(str(sys_.normalize(alg.parse(op["text"]))))
            rewrites[cls] += counting.found
    assert outputs[ReductionSystem] == outputs[_HeapSystem]
    assert rewrites[ReductionSystem] == 45_135 <= rewrites[_HeapSystem]
    assert convolutions == []


# --------------------------------------------- the per-word normalize as an oracle
#
# `normalize` as it was before a whole element went through one `_reduce`,
# kept word for word: each word is reduced on its own through the `mul` memo
# and its normal form multiplied back by the word's coefficient.  Every
# string is rewritten at its own leftmost redex whichever word reaches it,
# so the one pass gives the same Element, also on systems that are not
# confluent, and rewrites a string that several words reach once.


def _per_word_normalize(self, x) -> Element:
    if isinstance(x, (Word, Generator)):
        x = Element.from_word(x)
    return Element(
        (w, c * coeff)
        for word, coeff in x.terms.items()
        for w, c in Element(self._cached_nf(word)).terms.items()
    )


_COEFFS = [H_ONE, -H_ONE, H, I, R2, H * I - 2, R2 * H**2 + I, 3 - R2 * H]

_ONE_PASS = [
    f"{family}:n={n}"
    for family in ["fermion", "pseudo-fermion", "excl", "excl-dual", "boson", "pseudo-boson"]
    for n in (1, 2, 3)
] + ["excl:n=3,h=2", "qplane:2", "cex", "ext:n=3", "sign-mutated", "inclusion"]


def _random_term(gens, rng, low, high):
    word = Word(rng.choices(gens, k=rng.randint(low, high)))
    return Element.from_word(word, rng.choice(_COEFFS))


def _counted(sys_, normalize, x, budget=10**6):
    """normalize(sys_, x) on a fresh copy of sys_ with the given budget, and
    the rewrites made; or the message of the budget error."""
    fresh = ReductionSystem(sys_.generators, sys_.rules, budget)
    fresh._redex = counting = _CountingSearch(fresh._redex)
    try:
        return normalize(fresh, x), counting.found
    except StepBudgetExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("name", _ONE_PASS)
def test_one_pass_normalize_matches_the_per_word_normalize(name):
    sys_ = _oracle_system(name)
    rng = random.Random(name)
    for _ in range(8):
        x = Element.sum(_random_term(sys_.generators, rng, 0, 7)
                        for _ in range(rng.randint(1, 40)))
        got, rewrites = _counted(sys_, ReductionSystem.normalize, x)
        want, per_word = _counted(sys_, _per_word_normalize, x)
        assert got == want
        assert rewrites <= per_word


@pytest.mark.parametrize("name", _ONE_PASS)
def test_one_word_spends_the_budget_as_the_per_word_normalize(name):
    sys_ = _oracle_system(name)
    rng = random.Random(name)
    for _ in range(3):
        x = _random_term(sys_.generators, rng, 4, 8)
        for budget in range(61):
            got = _counted(sys_, ReductionSystem.normalize, x, budget)
            assert got == _counted(sys_, _per_word_normalize, x, budget)


def _boson_power(n: int) -> Element:
    """(a1 + ad1)^n on boson:n=1 by Wick's theorem: h^k ad1^j a1^l, with
    j + l + 2k = n, has the coefficient n! / (j! l! k! 2^k)."""
    alg = build_noa("boson", 1)
    a, ad = alg.gen("a1"), alg.gen("ad1")
    f = math.factorial
    return Element.sum(
        Element.from_word(Word((ad,) * j + (a,) * (n - 2 * k - j)),
                          H**k * (f(n) // (f(j) * f(n - 2 * k - j) * f(k) * 2**k)))
        for k in range(n // 2 + 1)
        for j in range(n - 2 * k + 1)
    )


def test_a_power_of_a_sum_normalizes_in_one_pass():
    # (a1+ad1)^14 expands to 16,384 words that share most of their rewrites;
    # reduced word by word it takes over 10 s, in one pass well under 1 s.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsalg.__file__)))

    def child(n):
        proc = subprocess.run(
            [sys.executable, "-m", "epsalg", "normalize", "--alg", "boson:n=1", f"(a1+ad1)^{n}"],
            capture_output=True, text=True, timeout=5, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert child(14) == f"{_boson_power(14)}\n"
    alg = build_noa("boson", 1)
    x = alg.parse("(a1+ad1)^6")
    assert child(6) == f"{_per_word_normalize(alg.system, x)}\n" == f"{_boson_power(6)}\n"


def test_generator_count_is_bounded_by_the_encoding():
    grade = Grade((1,))
    gens = tuple(Generator("x", i, grade) for i in range(MAX_GENERATORS + 1))
    sys_ = ReductionSystem(gens[:-1], [])
    codes = set(sys_._code.values())
    assert len(codes) == MAX_GENERATORS
    assert not any(0xD800 <= ord(c) <= 0xDFFF for c in codes)
    word = Word((gens[0], gens[-2], gens[7]))
    assert sys_.normalize(word) == Element.from_word(word)
    with pytest.raises(ValueError, match=f"at most {MAX_GENERATORS} generators"):
        ReductionSystem(gens, [])


@pytest.mark.parametrize("count", [_UNESCAPED, MAX_GENERATORS])
def test_the_redex_pattern_is_the_escaped_pattern(count):
    # Precedence i is coded chr(_BASE - i): with _UNESCAPED generators no
    # code is ASCII, and with all of them "." and "|" are codes too.
    grade = Grade((1,))
    gens = tuple(Generator("x", i, grade) for i in range(count))
    by_code = {chr(_BASE - i): g for i, g in enumerate(gens)}
    low = chr(_BASE - count + 1)
    pairs = [(".", "|"), ("*", "+")] if count == MAX_GENERATORS else [(low, chr(ord(low) + 1))]
    # x*y -> y*x, where y's code is the larger: a swap that decreases.
    swaps = [(by_code[p], by_code[q]) for p, q in pairs]
    rules = [Rule(Word((x, y)), Element.from_word(Word((y, x)))) for x, y in swaps]
    sys_ = ReductionSystem(gens, rules)
    lefts = sorted(sys_._rewrites, key=lambda s: (len(s), s))
    assert lefts == sorted(p + q for p, q in pairs)
    assert sys_._redex.pattern == "|".join(map(re.escape, lefts))
    for x, y in swaps:
        assert sys_.normalize(Word((x, y))) == Element.from_word(Word((y, x)))
        for word in (Word((y, y, x)), Word((gens[0], y))):  # no redex in either
            assert sys_.normalize(word) == Element.from_word(word)


def test_foreign_letters_are_refused():
    sys_ = build_noa("a", 1).system
    stranger = Generator("z", None, sys_.generators[0].grade)
    with pytest.raises(ValueError, match="foreign generator z"):
        sys_.normalize(Word((sys_.generators[0], stranger)))


# ------------------------------------------------------- finiteness of the basis


def _avoiding(ngens, lefts, length):
    """Letter-index words of one length in which no left side occurs."""
    return [
        w
        for w in itertools.product(range(ngens), repeat=length)
        if not any(
            w[i : i + len(lhs)] == lhs for lhs in lefts for i in range(length - len(lhs) + 1)
        )
    ]


@st.composite
def _monomial_rules(draw):
    ngens, longest = draw(st.sampled_from([(2, 3), (3, 2)]))
    lhs = st.lists(st.integers(0, ngens - 1), min_size=1, max_size=longest).map(tuple)
    return ngens, draw(st.lists(lhs, min_size=1, max_size=5, unique=True))


@settings(max_examples=60, deadline=None)
@given(_monomial_rules())
@example((2, [(0,), (1, 1)]))
@example((2, [(0,), (1,)]))
@example((3, [(1,)]))
@example((2, [(0, 0), (1, 1)]))
@example((2, [(0, 0, 0), (0, 1), (1, 1, 1)]))
def test_dimension_and_basis_match_subword_filter(case):
    # Monomial rules (right sides 0) make every left-side set a valid system.
    # Oracle: with m the longest left side and N the number of avoiding words
    # of length m-1, an avoiding word of length m+N repeats a window of length
    # m-1 (pigeonhole), so the set is infinite iff such a word exists.
    ngens, lefts = case
    gens = tuple(Generator("x", i, Grade((1,))) for i in range(ngens))
    sys_ = ReductionSystem(
        gens, [Rule(Word(tuple(gens[i] for i in lhs)), Element.zero()) for lhs in lefts]
    )
    m = max(map(len, lefts))
    bound = m + len(_avoiding(ngens, lefts, m - 1))
    levels = [_avoiding(ngens, lefts, length) for length in range(bound + 1)]
    expect = None if levels[-1] else sum(map(len, levels))
    assert sys_.dimension() == expect
    got = sys_.enumerate_basis(bound)
    assert {tuple(gens.index(g) for g in w) for w in got} == {
        w for level in levels for w in level
    }
    keys = [sys_.word_key(w) for w in got]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@settings(max_examples=60, deadline=None)
@given(_monomial_rules(), st.integers(0, 6))
@example((2, [(0,), (1, 1)]), 4)
@example((2, [(0, 0, 0), (0, 1), (1, 1, 1)]), 6)
def test_basis_counts_match_the_enumerated_basis(case, max_len):
    ngens, lefts = case
    gens = tuple(Generator("x", i, Grade((1,))) for i in range(ngens))
    sys_ = ReductionSystem(
        gens, [Rule(Word(tuple(gens[i] for i in lhs)), Element.zero()) for lhs in lefts]
    )
    words = sys_.enumerate_basis(max_len)
    want = [sum(len(w) == t for w in words) for t in range(max_len + 1)]
    if 0 in want:
        want = want[: want.index(0) + 1]
    assert sys_.basis_counts(max_len) == want
    longer = sys_.enumerate_basis(max_len + 1)
    assert sys_.basis_is_complete(max_len) == all(len(w) <= max_len for w in longer)
    limited = sys_.basis_counts(max_len, limit=3)
    assert limited == want[: len(limited)] and (limited == want or sum(limited) > 3)


def test_free_algebra_counts_every_word():
    gens = build_noa("a", 1).system.generators
    assert ReductionSystem(gens, []).basis_counts(3) == [1, 2, 4, 8]


def test_free_algebra_has_no_dimension():
    assert ReductionSystem(build_noa("a", 1).system.generators, []).dimension() is None


def test_dimension_enumerates_the_window_words_once(monkeypatch):
    base = build_noa("a", 3).system
    sys_ = ReductionSystem(base.generators, base.rules)
    lengths = []
    irreducible_codes = ReductionSystem._irreducible_codes

    def counted(self, max_len):
        lengths.append(max_len)
        return irreducible_codes(self, max_len)

    monkeypatch.setattr(ReductionSystem, "_irreducible_codes", counted)
    assert sys_.dimension() == 64
    assert lengths == [2]
    # The window graph is kept: later counts on the system walk it again.
    assert sys_.dimension() == 64 and sys_.basis_counts(3) == [1, 6, 15, 20]
    assert lengths == [2]


@pytest.mark.parametrize(
    "family,n,dim",
    [("a", 3, 64), ("a'", 2, 16), ("b", 3, 16), ("b'", 2, 9), ("c", 2, None), ("c'", 3, None)],
)
def test_dimension_of_families(family, n, dim):
    assert build_noa(family, n).system.dimension() == dim


def test_normalizing_a_large_sum_is_linear_in_its_words():
    # The 65,536 words that take each fermion:n=8 generator at most once, in
    # precedence order, are the basis and their own normal forms.  A sum that
    # copies the whole element per word is quadratic (over 30 s for this one);
    # the child's timeout turns that into a failure.
    code = (
        "import itertools\n"
        "from epsalg import H_ONE, Element, Word, build_noa\n"
        "alg = build_noa('fermion', 8)\n"
        "gens = alg.generators\n"
        "words = (Word(c) for r in range(17) for c in itertools.combinations(gens, r))\n"
        "x = Element.sum(Element.from_word(w, H_ONE) for w in words)\n"
        "assert len(x.terms) == 2**16 and alg.normalize(x) == x\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsalg.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env=env)
    assert proc.returncode == 0, proc.stderr
