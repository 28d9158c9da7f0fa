"""Built-in algebras: relations, bases, labels, preset string parsing."""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsalg import (
    CommutationFactor,
    Element,
    Generator,
    Grade,
    H,
    HPoly,
    Scalar,
    Word,
    build_counterexample,
    build_epsilon_exterior,
    build_exterior_preset,
    build_noa,
    build_quantum_plane,
    classical_limit,
    grade_of,
    homogeneous_components,
    parse_preset,
    rescale,
    with_h,
)
from epsalg import presets
from epsalg.grading import eps_a, eps_a_prime, eps_c, eps_c_prime
from epsalg.rewrite import ReductionSystem, Rule


def _nf(alg, text):
    return str(alg.normalize(alg.parse(text)))


# ----------------------------------------------------------------- relations


def test_fermion_relations():
    alg = build_noa("a", 2)
    assert _nf(alg, "a1*a1") == "0"
    assert _nf(alg, "ad1*ad1") == "0"
    assert _nf(alg, "a1*ad1") == "-ad1*a1 + h"
    assert _nf(alg, "a2*a1") == "-a1*a2"
    assert _nf(alg, "ad2*ad1") == "-ad1*ad2"
    assert _nf(alg, "a1*ad2") == "-ad2*a1"


def test_pseudo_fermion_relations():
    alg = build_noa("a'", 2)
    assert _nf(alg, "a1*ad1") == "-ad1*a1 + h"
    # mixed-index pairs commute without a sign here
    assert _nf(alg, "a2*a1") == "a1*a2"
    assert _nf(alg, "a1*ad2") == "ad2*a1"


def test_boson_relations():
    alg = build_noa("c", 2)
    assert _nf(alg, "a1*ad1") == "ad1*a1 + h"
    assert _nf(alg, "a2*a1") == "a1*a2"
    assert _nf(alg, "a1*ad2") == "ad2*a1"
    assert _nf(alg, "a1*a1") == "a1^2"


def test_pseudo_boson_relations():
    alg = build_noa("c'", 2)
    assert _nf(alg, "a1*ad1") == "ad1*a1 + h"
    assert _nf(alg, "a2*a1") == "-a1*a2"
    assert _nf(alg, "a1*ad2") == "-ad2*a1"


def test_excl_relations():
    alg = build_noa("b", 2)
    for bad in ["a1*a2", "a2*a1", "a1*a1", "ad1*ad2", "ad2*ad1", "a1*ad2", "a2*ad1"]:
        assert _nf(alg, bad) == "0"
    assert _nf(alg, "a1*ad1") == "-ad2*a2 - ad1*a1 + h"


def test_excl_dual_relations():
    alg = build_noa("b'", 2)
    for bad in ["a1*a2", "a1*a1", "ad1*ad2", "ad1*a2", "ad2*a1"]:
        assert _nf(alg, bad) == "0"
    assert _nf(alg, "ad1*a1") == "-a2*ad2 - a1*ad1 + h"
    # a-letters normalize to the left in this family
    assert alg.normalize(alg.parse("a1*ad1")) == alg.parse("a1*ad1")


def test_long_names_and_label():
    assert build_noa("boson", 2) is build_noa("c", 2)
    assert build_noa("c", 2).label == "boson:n=2"
    assert build_noa("b'", 1).label == "excl-dual:n=1"


def test_build_noa_rejects():
    with pytest.raises(ValueError, match="unknown family"):
        build_noa("d", 1)
    with pytest.raises(ValueError, match="at least one mode"):
        build_noa("a", 0)


# --------------------------------------------------------------------- bases


def test_fermion_small_basis():
    alg = build_noa("a", 1)
    words = [str(w) for w in alg.basis(2)]
    assert words == ["1", "ad1", "a1", "ad1*a1"]
    assert alg.system.basis_is_complete(2)


@pytest.mark.parametrize("n,dim", [(1, 4), (2, 9), (3, 16)])
def test_excl_dimension(n, dim):
    for family in ("b", "b'"):
        alg = build_noa(family, n)
        assert alg.system.basis_is_complete(2)
        assert len(alg.basis(2)) == dim


def test_classical_fermion_dimension():
    alg = classical_limit(build_noa("a", 2))
    assert alg.system.basis_is_complete(4)
    assert len(alg.basis(4)) == 16


def test_grades_of_generators():
    alg = build_noa("c", 2)
    assert alg.gen("ad1").grade == Grade((1, 0))
    assert alg.gen("a2").grade == Grade((0, -1))
    assert alg.grade_of(alg.parse("ad1*a2")) == Grade((1, -1))


def test_grades_read_the_word_memo_and_match_the_free_algebra():
    alg = build_noa("c", 2)
    zero = alg.zero_grade
    for text in ("0", "1", "ad1*a2", "ad1*a2 + 3*a2*ad1", "a1 + ad1", "a1*ad2 + a2 - 2",
                 "a1 + ad1 + a2*a1*ad2"):
        x = alg.parse(text)
        assert alg.grade_of(x) == grade_of(x, zero)
        assert alg.components(x) == homogeneous_components(x, zero)
    word = Word((alg.gen("ad1"), alg.gen("a2")))
    assert alg.word_grade(word) is alg.word_grade(Word(word.letters))


# ------------------------------------------------------- other preset blocks


def test_quantum_plane():
    alg = build_quantum_plane(2)
    assert _nf(alg, "x*y") == "2*y*x"
    assert _nf(alg, "x^2*y") == "4*y*x^2"
    assert build_quantum_plane(1).normalize(
        Element.from_word(Word((alg.gen("x"), alg.gen("y"))))
    )
    assert _nf(build_quantum_plane(-1), "x*y") == "-y*x"
    with pytest.raises(ValueError, match="invertible"):
        build_quantum_plane(0)


def test_quantum_plane_label_and_cache():
    assert build_quantum_plane(2).label == "qplane:q=2"
    assert build_quantum_plane(Scalar.of(2)) is build_quantum_plane(2)


def test_counterexample_localization():
    alg = build_counterexample()
    assert len(alg.system.rules) == 8
    assert _nf(alg, "x*X") == "1"
    assert _nf(alg, "X*x") == "1"
    assert _nf(alg, "X*y*Y*x") == "1"
    assert _nf(alg, "y*x") == "-x*y"
    assert alg.gen("x").grade.moduli == (2, 2)


def test_exterior_all_even():
    alg = build_exterior_preset(3)
    assert alg.system.basis_is_complete(3)
    assert len(alg.basis(3)) == 8
    assert _nf(alg, "v2*v1") == "-v1*v2"
    assert _nf(alg, "v1*v1") == "0"


def test_exterior_odd_generator_grows_forever():
    alg = build_exterior_preset(2, "eps_a")
    assert not alg.system.basis_is_complete(4)
    assert _nf(alg, "v1*v1") == "v1^2"


def test_exterior_rejects_unknown_factor():
    with pytest.raises(ValueError, match="unknown factor preset"):
        build_exterior_preset(2, "eps_z")


# ------------------------------------------------- the certifying constructor


def _x_y(grades):
    return Generator("x", None, Grade(grades[0])), Generator("y", None, Grade(grades[1]))


def test_certification_rejects_factor_breaking_axiom_one():
    # eps(p1,p2)*eps(p2,p1) = 2**(1+0) = 2, so this is no commutation factor
    factor = CommutationFactor(Scalar.of(2), ((0, 1), (0, 0)))
    with pytest.raises(ValueError, match="commutation factor axioms fail"):
        build_epsilon_exterior([Grade((1, 0)), Grade((0, 1))], factor)
    # eps(p,p)**2 = 4 on Z: the constructor, called directly, refuses it too
    x, y = _x_y([(1,), (2,)])
    with pytest.raises(ValueError, match="free: commutation factor axioms fail"):
        presets.Algebra("free", "free", ReductionSystem((y, x), ()),
                        CommutationFactor(2, ((1,),)), 0)


def test_the_constructor_refuses_a_system_that_is_not_confluent():
    # x*x -> y and x*y -> 0 reduce x^3 two ways: (x*x)*x = y*x, x*(x*x) = 0
    x, y = _x_y([(1,), (2,)])
    xx, xy = Word((x, x)), Word((x, y))
    system = ReductionSystem((y, x), (Rule(xx, Element.from_word(y)), Rule(xy, Element.zero())))
    with pytest.raises(ValueError) as err:
        presets.Algebra("x3", "x3", system, eps_c(1), 0)
    assert str(err.value) == (
        "x3: reduction system not confluent, e.g. overlap at x^3: UNRESOLVED, residual y*x"
    )


def test_the_constructor_refuses_a_factor_of_another_size():
    x, y = _x_y([(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="^m: a factor of size 3 cannot weigh grades of size 2$"):
        presets.Algebra("m", "m", ReductionSystem((y, x), ()), eps_c(3), 0)


def test_a_directly_built_algebra_is_certified_exhaustively():
    x, y = _x_y([(0, 1), (1, 0)])
    system = ReductionSystem((y, x), (Rule(Word((x, y)), Element.from_word(Word((y, x)))),))
    alg = presets.Algebra("plane", "plane", system, eps_c(2), 0)
    assert alg.certified_by == presets.EXHAUSTIVE
    with pytest.raises(AttributeError):
        alg.certified_by = None


# ----------------------------------------------------- limits and parameters


def test_classical_limit():
    alg = classical_limit(build_noa("c", 2))
    assert alg.is_classical()
    assert alg.label == "boson:n=2,h=0"
    assert _nf(alg, "a1*ad1") == "ad1*a1"
    with pytest.raises(ValueError, match="deformation parameter"):
        classical_limit(build_quantum_plane(2))


def test_with_h():
    alg = with_h(build_noa("a", 1), 2)
    assert alg.label == "fermion:n=1,h=2"
    assert _nf(alg, "a1*ad1") == "-ad1*a1 + 2"
    assert not alg.is_classical()


@pytest.mark.parametrize("family", presets.NOA_FAMILIES)
def test_builds_of_one_family_share_generator_objects(family):
    for n in (1, 2):
        quantum = build_noa(family, n)
        others = (classical_limit(quantum), with_h(quantum, 2), build_noa(family, n, 0))
        for other in others:
            assert other is not quantum
            for i, g in enumerate(quantum.generators):
                assert other.generators[i] is g


# ------------------------------------------------ certification by locality
#
# The local families on n > 3 modes are certified from n = 3 (the proof in
# the presets docstring); resolving every critical pair is the oracle.

_LOCAL_FAMILIES = ("a", "a'", "c", "c'")


@pytest.mark.parametrize("family", _LOCAL_FAMILIES)
def test_locality_certificates_agree_with_exhaustive_certification(family):
    for n in range(1, 9):
        for h in (H, 0, 2):
            alg = build_noa(family, n, h)
            assert alg.certified_by == (presets.LOCALITY if n > 3 else presets.EXHAUSTIVE)
            assert alg.system.check_confluence() == [], (family, n, h)


_table_rules = presets._noa_rules


def _fermion_rules_with_a5_a4_flipped(*row_h_gens):
    """The fermion rules, and on 5 modes a5*a4 -> +a4*a5 instead of -a4*a5."""
    rules = _table_rules(*row_h_gens)
    ad, a = row_h_gens[-2:]
    if len(a) == 5:
        k = next(k for k, r in enumerate(rules) if r.lhs.letters == (a[4], a[3]))
        rules[k] = Rule(rules[k].lhs, -rules[k].rhs)
    return rules


def test_locality_refuses_a_flipped_rule_and_the_build_raises(monkeypatch):
    row, h = presets._FAMILY_ROWS["a"][2:7], HPoly.of(13)
    ad, a = presets._noa_generators(5)
    good = ReductionSystem(ad + a, _table_rules(*row, h, ad, a))
    ad3, a3 = presets._noa_generators(3)
    three = ReductionSystem(ad3 + a3, _table_rules(*row, h, ad3, a3))
    assert presets._local_shape(good) == presets._local_shape(three) is not None
    cubed = ReductionSystem(ad + a, good.rules + (Rule(Word((a[0],) * 3), Element.zero()),))
    assert presets._local_shape(cubed) is None  # (1)
    excl = ReductionSystem(ad + a, _table_rules(*presets._FAMILY_ROWS["b"][2:7], h, ad, a))
    assert presets._local_shape(excl) is None  # (2), Sum_k
    bad = ReductionSystem(ad + a, _fermion_rules_with_a5_a4_flipped(*row, h, ad, a))
    assert presets._local_shape(bad) is None  # (3)
    ad6, a6 = presets._noa_generators(6)
    ad_gap, a_gap = ad6[:4] + ad6[5:], a6[:4] + a6[5:]
    gap = ReductionSystem(ad_gap + a_gap, _table_rules(*row, h, ad_gap, a_gap))
    assert presets._local_shape(gap) is None  # (4), modes 1-4 and 6
    assert bad.check_confluence()
    monkeypatch.setattr(presets, "_noa_rules", _fermion_rules_with_a5_a4_flipped)
    # h = 13 is built by no other test, so the build is not cached
    with pytest.raises(ValueError, match="fermion:n=5,h=13: reduction system not confluent"):
        build_noa("a", 5, h)


def test_local_shape_refuses_a_pair_of_modes_without_rules():
    ad, a = presets._noa_generators(5)
    rules = _table_rules(*presets._FAMILY_ROWS["a"][2:7], H, ad, a)
    kept = [r for r in rules if {g.index for g in r.lhs} != {4, 5}]
    assert len(kept) < len(rules)
    assert presets._local_shape(ReductionSystem(ad + a, kept)) is None


def test_a_local_build_makes_rules_for_n_modes_only(monkeypatch):
    modes = []

    def counted(*row_h_gens):
        modes.append(len(row_h_gens[-1]))
        return _table_rules(*row_h_gens)

    monkeypatch.setattr(presets, "_noa_rules", counted)
    # h = 19 is built by no other test, so the build below is new
    assert build_noa("a", 9, 19).certified_by == presets.LOCALITY
    assert modes == [9]


def test_local_families_resolve_only_the_three_mode_pairs(monkeypatch):
    modes = []
    iter_ambiguities = ReductionSystem.iter_ambiguities

    def counted(self):
        for amb in iter_ambiguities(self):
            modes.append(len(self.generators) // 2)
            yield amb

    monkeypatch.setattr(ReductionSystem, "iter_ambiguities", counted)
    # h = 17 is built by no other test, so every build below is new
    alg = build_noa("a", 8, 17)
    assert alg.certified_by == presets.LOCALITY
    assert modes == [3] * 56  # the pairs of its own rules on modes 1-3
    modes.clear()
    assert build_noa("a", 3, 17).certified_by == presets.EXHAUSTIVE
    assert modes == [3] * 56
    modes.clear()
    assert build_noa("b", 4, 17).certified_by == presets.EXHAUSTIVE
    assert modes == [4] * 256
    with pytest.raises(AttributeError):
        alg.certified_by = presets.EXHAUSTIVE


@pytest.mark.parametrize("family", ["a", "c"])
def test_a_directly_built_local_system_is_certified_by_locality(family):
    row = presets._FAMILY_ROWS[family]
    for n in (4, 5, 6):
        # fresh generator objects and no preset builder: only the rules decide
        ad = tuple(Generator("ad", i, Grade.unit(i, n)) for i in range(1, n + 1))
        a = tuple(Generator("a", i, -Grade.unit(i, n)) for i in range(1, n + 1))
        system = ReductionSystem(ad + a, _table_rules(*row[2:7], H, ad, a))
        alg = presets.Algebra("direct", "direct", system, row[-1](n), H)
        assert alg.certified_by == presets.LOCALITY
        assert system.check_confluence() == []


def test_locality_resolves_the_pairs_on_three_modes():
    # y_i x_i -> 0 and x_i x_j -> 2 x_i x_i (i < j) are local, and every pair
    # on one or two modes resolves, but x1*x2*x3 reduces to 4 and 8 times x1^3.
    def system(n):
        x = [Generator("x", i, Grade((1,))) for i in range(1, n + 1)]
        y = [Generator("y", i, Grade((1,))) for i in range(1, n + 1)]
        rules = [Rule(Word((y[i], x[i])), Element.zero()) for i in range(n)]
        rules += [Rule(Word((x[i], x[j])), Element.from_word(Word((x[i], x[i])), 2))
                  for i in range(n) for j in range(i + 1, n)]
        return ReductionSystem(x + y, rules)

    assert system(2).check_confluence() == []
    four = system(4)
    assert presets._local_shape(four) is not None
    first = "overlap at x1*x2*x3: UNRESOLVED, residual -4*x1^3"
    assert first in map(str, four.check_confluence())
    with pytest.raises(ValueError) as err:
        presets.Algebra("x3", "x3", four, eps_c(1), 0)
    assert str(err.value) == f"x3: reduction system not confluent, e.g. {first}"


@pytest.mark.parametrize("factor", ["eps_a", "eps_a'", "eps_c", "eps_c'"])
def test_ext_is_local_exactly_when_every_generator_squares_to_zero(factor):
    for n in range(4, 9):
        alg = build_exterior_preset(n, factor)
        local = factor in ("eps_c", "eps_c'")
        assert alg.certified_by == (presets.LOCALITY if local else presets.EXHAUSTIVE)
        assert alg.system.check_confluence() == []
        assert parse_preset(alg.label) is alg


def _renamed(rule):
    """A rule's left side with each mode renamed by its rank, as in (3)."""
    modes = sorted({g.index for g in rule.lhs})
    return tuple((g.name, modes.index(g.index)) for g in rule.lhs)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["a", "c"]),
    n=st.sampled_from([4, 5]),
    kind=st.integers(0, 99),
    which=st.integers(0, 99),
    term=st.integers(0, 1),
    scale=st.sampled_from([-1, 0, 2]),
    everywhere=st.booleans(),
)
def test_a_mutated_local_system_is_certified_by_locality_only_when_confluent(
    family, n, kind, which, term, scale, everywhere
):
    # One coefficient of one kind of rule is scaled, on every mode (pair) that
    # carries that kind, or on one of them; exhaustive certification judges.
    row = presets._FAMILY_ROWS[family]
    ad, a = presets._noa_generators(n)
    rules = _table_rules(*row[2:7], HPoly.of(3), ad, a)
    kinds = sorted(set(map(_renamed, rules)))
    hit = [k for k, r in enumerate(rules) if _renamed(r) == kinds[kind % len(kinds)]]
    for k in hit if everywhere else [hit[which % len(hit)]]:
        lhs, rhs = rules[k].lhs, rules[k].rhs
        if rhs.terms:
            w, c = list(rhs.terms.items())[term % len(rhs.terms)]
            rules[k] = Rule(lhs, rhs + Element([(w, c * (scale - 1))]))
    system = ReductionSystem(ad + a, rules)
    unresolved = [str(amb) for amb in system.check_confluence()]
    try:
        alg = presets.Algebra("m", "m", system, row[-1](n), 3)
    except ValueError as exc:
        prefix = "m: reduction system not confluent, e.g. "
        assert str(exc).startswith(prefix)
        assert str(exc)[len(prefix):] in unresolved
    else:
        assert unresolved == []
        if everywhere:
            assert alg.certified_by == presets.LOCALITY


# ------------------------------------------------------------ preset strings


def test_parse_preset_roundtrip():
    assert parse_preset("boson:n=2") is build_noa("c", 2)
    assert parse_preset("excl:3") is build_noa("b", 3)
    assert parse_preset("fermion") is build_noa("a", 1)
    assert parse_preset("qplane:2") is build_quantum_plane(2)
    assert parse_preset("qplane:q=1/2") is build_quantum_plane(Fraction(1, 2))
    assert parse_preset("cex") is build_counterexample()
    assert parse_preset("ext:n=2,factor=eps_c").label == "ext:n=2,factor=eps_c"
    assert parse_preset("boson:n=1,h=0").is_classical()


# Preset strings: each of the six families with the symbolic h, h = 0, a
# pinned tau-fixed h and a tau-fixed polynomial in h; the quantum plane; ext
# with each factor; cex.
_preset_strings = st.one_of(
    st.builds(
        "{}:n={}{}".format,
        st.sampled_from(sorted(presets.FAMILY_NAMES)),
        st.integers(1, 3),
        st.sampled_from(["", ",h=0", ",h=2", ",h=-1/2", ",h=r2", ",h=1 + r2", ",h=2*h",
                         ",h=h^2 + h", ",h=1/2*h", ",h=(1 + r2)*h^3 - 2"]),
    ),
    st.sampled_from(["qplane:2", "qplane:q=-1", "qplane:q=1/2", "qplane:q=I", "qplane:1 + I"]),
    st.builds("ext:n={},factor={}".format, st.integers(1, 3),
              st.sampled_from(["eps_a", "eps_a'", "eps_c", "eps_c'"])),
    st.just("cex"),
)


@settings(max_examples=60, deadline=None)
@given(text=_preset_strings)
def test_a_preset_label_is_its_preset_string(text):
    alg = parse_preset(text)
    assert parse_preset(alg.label) is alg


@pytest.mark.parametrize(
    "build,label",
    [
        (lambda: with_h(build_noa("c", 1), 2 * H), "boson:n=1,h=2*h"),
        (lambda: with_h(build_noa("c", 1), H + H * H), "boson:n=1,h=h^2 + h"),
        (lambda: rescale(build_noa("a", 2), Scalar(1, 1)).target, "fermion:n=2,h=1/2*h"),
    ],
)
def test_a_label_with_a_polynomial_h_is_its_preset_string(build, label):
    # An h other than h itself is labelled with its polynomial, which a
    # preset string takes back; the last is the rescaling target that
    # `verify --suite noa --alg fermion:n=2` prints.
    alg = build()
    assert alg.label == label
    assert parse_preset(label) is alg


def test_a_preset_h_above_the_degree_limit_is_refused():
    limit = presets.MAX_H_DEGREE
    assert parse_preset(f"boson:n=1,h=h^{limit}").h == H**limit
    with pytest.raises(ValueError, match=f"h of degree {limit + 1} exceeds the input limit"):
        parse_preset(f"excl:n=16,h=h^{limit + 1}")


@pytest.mark.parametrize(
    "text,h", [("I", Scalar(0, 1)), ("1 + I", Scalar(1, 1)), ("I*h", H * Scalar(0, 1))]
)
def test_h_outside_the_tau_fixed_field_is_refused(text, h):
    message = re.escape(f"h = {text} is not tau-fixed")
    with pytest.raises(ValueError, match=message):
        build_noa("c", 1, h)
    with pytest.raises(ValueError, match=message):
        with_h(build_noa("c", 1), h)
    with pytest.raises(ValueError, match=message):
        parse_preset(f"boson:n=1,h={text}")


def test_parse_preset_errors():
    with pytest.raises(ValueError, match="unknown preset"):
        parse_preset("nonsense:n=2")
    with pytest.raises(ValueError, match="does not take"):
        parse_preset("cex:n=2")
    with pytest.raises(ValueError, match="does not take"):
        parse_preset("boson:n=2,junk=1")
    with pytest.raises(ValueError, match="needs its parameter"):
        parse_preset("qplane")


def test_an_unknown_generator_label_is_refused():
    with pytest.raises(KeyError, match="unknown generator 'a3' in boson:n=2"):
        build_noa("c", 2).gen("a3")


def test_relations_are_free_elements():
    alg = build_noa("a", 1)
    rels = alg.relations()
    assert len(rels) == len(alg.system.rules)
    assert all(alg.normalize(r).is_zero() for r in rels)


def test_relations_are_built_once_per_algebra(monkeypatch):
    preset = build_noa("a", 2)
    alg = presets.Algebra(preset.label, preset.family, preset.system, preset.factor, preset.h)
    built = []
    sub = Element.__sub__
    monkeypatch.setattr(Element, "__sub__", lambda x, y: built.append(y) or sub(x, y))
    first = alg.relations()
    assert len(built) == len(alg.system.rules) == len(first)
    assert alg.relations() is first and len(built) == len(first)


# ------------------------------------------------- the family table's rules
#
# The six families were written out by hand before one parameter table
# built them.  The hand-written presentation is kept here, word for word,
# as the oracle of the table's rule builder.

_OLD_NOA_FAMILIES = ("a", "a'", "b", "b'", "c", "c'")

_OLD_FAMILY_NAMES = {
    "fermion": "a",
    "pseudo-fermion": "a'",
    "excl": "b",
    "excl-dual": "b'",
    "boson": "c",
    "pseudo-boson": "c'",
}

_OLD_FACTORS = {
    "a": eps_a,
    "a'": eps_a_prime,
    "c": eps_c,
    "c'": eps_c_prime,
    "b": eps_c_prime,
    "b'": eps_c_prime,
}


def _old_noa_rules(family: str, n: int, h: HPoly, ad, a):
    """Oriented presentation of one family; indices in ad/a are 0-based."""
    one = Element.one()
    rules = []

    def word(*gens) -> Word:
        return Word(tuple(gens))

    def w_elem(*gens) -> Element:
        return Element.from_word(word(*gens))

    if family in ("a", "a'", "c", "c'"):
        fermionic = family in ("a", "a'")
        sign = -1 if family in ("a", "c'") else 1
        for i in range(n):
            if fermionic:
                rules.append(Rule(word(a[i], a[i]), Element.zero()))
                rules.append(Rule(word(ad[i], ad[i]), Element.zero()))
                rules.append(Rule(word(a[i], ad[i]), one * h - w_elem(ad[i], a[i])))
            else:
                rules.append(Rule(word(a[i], ad[i]), w_elem(ad[i], a[i]) + one * h))
        for i in range(n):
            for j in range(i + 1, n):
                rules.append(Rule(word(a[j], a[i]), w_elem(a[i], a[j]) * sign))
                rules.append(Rule(word(ad[j], ad[i]), w_elem(ad[i], ad[j]) * sign))
        for i in range(n):
            for j in range(n):
                if i != j:
                    rules.append(Rule(word(a[i], ad[j]), w_elem(ad[j], a[i]) * sign))
    elif family == "b":
        for i in range(n):
            for j in range(n):
                rules.append(Rule(word(a[i], a[j]), Element.zero()))
                rules.append(Rule(word(ad[i], ad[j]), Element.zero()))
                if i != j:
                    rules.append(Rule(word(a[i], ad[j]), Element.zero()))
        total = Element.sum(w_elem(ad[k], a[k]) for k in range(n))
        for i in range(n):
            rules.append(Rule(word(a[i], ad[i]), one * h - total))
    elif family == "b'":
        for i in range(n):
            for j in range(n):
                rules.append(Rule(word(a[i], a[j]), Element.zero()))
                rules.append(Rule(word(ad[i], ad[j]), Element.zero()))
                if i != j:
                    rules.append(Rule(word(ad[j], a[i]), Element.zero()))
        total = Element.sum(w_elem(a[k], ad[k]) for k in range(n))
        for i in range(n):
            rules.append(Rule(word(ad[i], a[i]), one * h - total))
    else:
        raise ValueError(f"unknown family {family!r}")
    return rules


def test_family_table_names_match_the_hand_written_ones():
    assert presets.NOA_FAMILIES == _OLD_NOA_FAMILIES
    assert list(presets.FAMILY_NAMES.items()) == list(_OLD_FAMILY_NAMES.items())


@pytest.mark.parametrize("family", _OLD_NOA_FAMILIES)
def test_family_table_rules_match_the_hand_written_ones(family):
    row = presets._FAMILY_ROWS[family]
    for n in range(1, 5):
        ad, a = presets._noa_generators(n)
        for h in (H, HPoly.of(0), HPoly.of(2)):
            new = [str(r) for r in presets._noa_rules(*row[2:7], h, ad, a)]
            old = [str(r) for r in _old_noa_rules(family, n, h, ad, a)]
            assert sorted(new) == sorted(old), (family, n, h)
            if family not in ("b", "b'"):
                assert new == old, (family, n, h)
    alg = build_noa(family, 2)
    ad, a = presets._noa_generators(2)
    old_order = tuple(a) + tuple(ad) if family == "b'" else tuple(ad) + tuple(a)
    assert alg.generators == old_order
    assert alg.factor == _OLD_FACTORS[family](2)
