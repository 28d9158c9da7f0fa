"""The hand-written value classes against their former dataclass definitions.

The oracle below is each class as a `dataclasses.dataclass`, copied with the
fields, defaults, `field(compare=False)` markers, `__post_init__` checks and
custom `__repr__`/`__hash__` it had; no method that does not bear on
construction, equality, hashing or repr.  The oracle instances hold the same
field values as the library's (real `Grade`, `Word`, `Element` objects), so
each comparison pins one class's own methods.

Classes whose equality no caller uses compare by identity now; for those the
test pins their fields and repr and that equality is identity.
"""
import dataclasses
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

import epsalg
from epsalg import (
    EMPTY_WORD,
    H,
    HPoly,
    MINUS_ONE,
    Element,
    Scalar,
    Word,
    build_noa,
    rescale,
    with_h,
)
from epsalg import brackets, cli, exprparse, freealg, grading, matrices, rewrite, structure


# -------------------------------------------------------------------- oracle


@dataclass(frozen=True)
class Grade:
    coords: tuple
    moduli: tuple = None

    def __post_init__(self):
        moduli = self.moduli
        if moduli is None:
            moduli = (0,) * len(self.coords)
        if len(moduli) != len(self.coords):
            raise ValueError("moduli shape does not match coordinates")
        coords = tuple(
            c % m if m else c for c, m in zip(self.coords, moduli)
        )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "moduli", tuple(moduli))

    def __repr__(self) -> str:
        if any(self.moduli):
            return f"Grade{self.coords!r} mod {self.moduli!r}"
        return f"Grade{self.coords!r}"


@dataclass(frozen=True)
class CommutationFactor:
    base: Scalar
    form: tuple
    label: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "base", Scalar.of(self.base))
        object.__setattr__(self, "form", tuple(tuple(int(x) for x in row) for row in self.form))
        if self.base.is_zero():
            raise ValueError("commutation factor base must be invertible")
        for row in self.form:
            if len(row) != len(self.form):
                raise ValueError("bilinear form matrix must be square")


@dataclass(frozen=True)
class Generator:
    name: str
    index: int | None
    grade: Grade

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name, self.index, self.grade)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        return self.name if self.index is None else f"{self.name}{self.index}"

    def __repr__(self) -> str:
        return f"Generator({self.label}, grade {self.grade})"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


@dataclass(frozen=True)
class Num:
    value: int
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Sym:
    name: str
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Neg:
    arg: object
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Element


@dataclass(frozen=True)
class Ambiguity:
    word: Word
    kind: str
    residual: Element = field(compare=False)


@dataclass(frozen=True)
class RankProfile:
    entries: tuple
    even: int
    odd: int


@dataclass
class IbnReport:
    ok: bool
    kind: str
    reason: str
    row_profile: RankProfile
    col_profile: RankProfile


@dataclass
class BracketContext:
    algebra: object
    factor: object = None
    expansion: object = None

    def __post_init__(self):
        if self.factor is None:
            self.factor = self.algebra.factor


@dataclass
class OscillatorSet:
    p: Element
    q: Element
    energy: Element


@dataclass
class OscillatorReport:
    family: str
    entries: dict
    c: Scalar | None
    c_prime: Scalar | None
    pattern_ok: bool
    notes: list


@dataclass(frozen=True)
class RescalingMap:
    lam: Scalar
    source: object
    target: object

    def __post_init__(self):
        if self.lam.is_zero():
            raise ValueError("rescaling parameter must be invertible")
        if (
            self.source.family != self.target.family
            or self.source.params.get("n") != self.target.params.get("n")
        ):
            raise ValueError("rescaling connects two algebras of one family and size")
        if self.source.h != HPoly.of(self.norm) * self.target.h:
            raise ValueError(
                f"rescaling undefined: source h {self.source.h} != "
                f"{self.norm} * target h {self.target.h}"
            )

    @property
    def norm(self) -> Scalar:
        return self.lam * self.lam.tau()


@dataclass
class Report:
    suite: str
    fmt: str = "text"
    passed: int = field(default=0, init=False)
    total: int = field(default=0, init=False)


# ------------------------------------------------------------------- samples


def _build(cls, args):
    """(instance, None) or (None, the constructor's error message)."""
    try:
        return cls(*args), None
    except (ValueError, TypeError) as exc:
        return None, str(exc)


def _pin_value_class(new_cls, old_cls, samples):
    """==, hash and repr of new_cls agree with the oracle on every pair of samples."""
    built = []
    for args in samples:
        new, new_err = _build(new_cls, args)
        old, old_err = _build(old_cls, args)
        assert new_err == old_err, args
        if new is None:
            continue
        assert repr(new) == repr(old)
        assert hash(new) == hash(old)
        built.append((new, old, args))
    assert len(built) >= 2
    for new_a, old_a, args_a in built:
        for new_b, old_b, args_b in built:
            assert (new_a == new_b) == (old_a == old_b), (args_a, args_b)
            assert (new_a != new_b) == (old_a != old_b), (args_a, args_b)
        assert new_a != object() and old_a != object()


def _pin_identity_class(new_cls, old_cls, args, has_repr=True):
    """Same fields and repr as the oracle; equality is identity."""
    new, old = new_cls(*args), old_cls(*args)
    names = [f.name for f in dataclasses.fields(old_cls)]
    assert [getattr(new, n) for n in names] == [getattr(old, n) for n in names]
    if has_repr:
        assert repr(new) == repr(old)
    twin = new_cls(*args)
    assert new == new and new != twin
    return new


_G = grading.Grade


def test_grade():
    samples = [
        ((1, -1),),
        ((1, -1), (0, 0)),
        ([1, -1], [0, 0]),
        ((3, 1), (2, 0)),
        ((1, 1), (2, 0)),
        ((-1, 5), (2, 3)),
        ((1,),),
        ((), ()),
        ((1, 2), (2,)),
    ]
    _pin_value_class(_G, Grade, samples)
    with pytest.raises(ValueError, match=r"^grade group mismatch: Grade\(1, 0\) vs "
                                         r"Grade\(1, 0\) mod \(2, 2\)$"):
        _G((1, 0)) + _G((1, 0), (2, 2))
    with pytest.raises(ValueError, match=r"^grade group mismatch: Grade\(1,\) vs Grade\(1, 0\)$"):
        _G((1,)) - _G((1, 0))


def test_commutation_factor_ignores_its_label():
    samples = [
        (MINUS_ONE, ((1, 0), (0, 1)), "a"),
        (MINUS_ONE, ((1, 0), (0, 1)), "b"),
        (MINUS_ONE, [[1, 0], [0, 1]]),
        (-1, ((True, 0), (0, 1))),
        (MINUS_ONE, ((0, 1), (1, 0)), "a"),
        (Scalar.of(2), ((0, -1), (1, 0)), "eps_q"),
        (0, ((1,),)),
        (MINUS_ONE, ((1, 0),)),
    ]
    _pin_value_class(grading.CommutationFactor, CommutationFactor, samples)


def test_generator_keeps_its_cached_hash():
    g, g_twin, k = _G((1, 0)), _G((1, 0)), _G((0, 1))
    samples = [("a", 1, g), ("a", 1, g_twin), ("a", None, g), ("ad", 1, g), ("a", 1, k),
               ("a", 2, g)]
    _pin_value_class(freealg.Generator, Generator, samples)
    gen = freealg.Generator("a", 1, g)
    assert gen._hash == hash(("a", 1, g))


def _tree(ns, shift):
    """1 + f(a, -b^2) with every position moved by shift."""
    return ns.BinOp(
        "+",
        ns.Num(1, shift),
        ns.Call("f", (ns.Sym("a", shift + 6),
                      ns.Neg(ns.Pow(ns.Sym("b", shift + 10), 2, shift + 11), shift + 9)),
                shift + 4),
        shift + 2,
    )


_ORACLE_NODES = sys.modules[__name__]


@pytest.mark.parametrize("name", ["Num", "Sym", "Neg", "BinOp", "Pow", "Call"])
def test_syntax_nodes_ignore_pos(name):
    new_cls, old_cls = getattr(exprparse, name), globals()[name]
    fields = {
        "Num": [(1,), (1, 7), (2,)],
        "Sym": [("a",), ("a", 3), ("b", 3)],
        "Neg": [(exprparse.Num(1),), (exprparse.Num(1, 4), 9), (exprparse.Sym("a"),)],
        "BinOp": [("+", exprparse.Num(1), exprparse.Sym("a")),
                  ("+", exprparse.Num(1, 5), exprparse.Sym("a", 6), 2),
                  ("*", exprparse.Num(1), exprparse.Sym("a"))],
        "Pow": [(exprparse.Sym("a"), 2), (exprparse.Sym("a", 1), 2, 3),
                (exprparse.Sym("a"), 3)],
        "Call": [("J", (exprparse.Sym("a"),)), ("J", (exprparse.Sym("a", 2),), 1),
                 ("comm", (exprparse.Sym("a"), exprparse.Sym("b")))],
    }[name]
    _pin_value_class(new_cls, old_cls, fields)


def test_whole_syntax_trees_match_the_oracle():
    for shift in (0, 3):
        new, old = _tree(exprparse, shift), _tree(_ORACLE_NODES, shift)
        assert repr(new) == repr(old)
        assert hash(new) == hash(old)
        assert new == _tree(exprparse, 0) and old == _tree(_ORACLE_NODES, 0)
    assert exprparse.parse("1 + f(a, -b^2)") == _tree(exprparse, 0)
    assert repr(exprparse.parse("1 + f(a, -b^2)")) == repr(_tree(_ORACLE_NODES, 0))


def test_ambiguity_compares_word_and_kind():
    alg = build_noa("boson", 1)
    a, ad = alg.generators
    w, v = Word((a, ad)), Word((a, a, ad))
    x, y = Element.from_word(a), Element.from_word(ad)
    zero = Element.zero()
    samples = [
        (w, "overlap", zero),
        (w, "overlap", x - y),
        (w, "inclusion", zero),
        (v, "overlap", zero),
    ]
    _pin_value_class(rewrite.Ambiguity, Ambiguity, samples)


def test_rank_profile():
    g, k = _G((0, 1)), _G((1, 0))
    samples = [
        (((g, 1),), 1, 0),
        (((g, 1),), 1, 0),
        (((k, 1),), 1, 0),
        (((g, 1), (k, 2)), 1, 2),
        (((g, 1),), 0, 1),
    ]
    _pin_value_class(matrices.RankProfile, RankProfile, samples)


def test_classes_without_value_equality():
    alg = build_noa("boson", 1)
    a, ad = alg.generators
    x, y = Element.from_word(a), Element.from_word(ad)
    profile = matrices.RankProfile(((_G((1,)), 1),), 1, 0)
    _pin_identity_class(rewrite.Rule, Rule, (Word((a, ad)), x * y + Element.scalar(H)))
    _pin_identity_class(rewrite.Rule, Rule, (EMPTY_WORD, Element.zero()))
    _pin_identity_class(matrices.IbnReport, IbnReport, (True, "eps", "ok", profile, profile))
    _pin_identity_class(brackets.OscillatorSet, OscillatorSet, (x, y, x * y))
    _pin_identity_class(
        brackets.OscillatorReport, OscillatorReport,
        ("boson", {"{p,q}": x}, Scalar.of(1), None, True, ["note"]),
    )
    exp = epsalg.DeformationExpansion(alg)
    for args in ((alg,), (alg, grading.eps_a(2)), (exp.classical, None, exp)):
        _pin_identity_class(brackets.BracketContext, BracketContext, args)
    _pin_identity_class(exprparse.Token, Token, ("INT", "12", 3), has_repr=False)
    report = _pin_identity_class(cli.Report, Report, ("dim",), has_repr=False)
    assert report.fmt == "text" and report.passed == report.total == 0
    _pin_identity_class(cli.Report, Report, ("dim", "machine"), has_repr=False)


def test_rescaling_map_checks_and_repr():
    source = with_h(build_noa("boson", 1), H * 2)
    good = rescale(source, Scalar(1, 1, 0, 0))
    _pin_identity_class(structure.RescalingMap, RescalingMap, (good.lam, source, good.target))
    for args in (
        (Scalar.of(0), source, source),
        (Scalar.of(1), source, build_noa("fermion", 1)),
        (Scalar.of(1), source, build_noa("boson", 2)),
        (Scalar(1, 1, 0, 0), source, source),
        (Scalar.of(Fraction(1, 2)), source, good.target),
    ):
        new, new_err = _build(structure.RescalingMap, args)
        old, old_err = _build(RescalingMap, args)
        assert new is None and old is None and new_err == old_err
