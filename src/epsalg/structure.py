"""Structure maps of number-operator algebras.

The anti-involution J swaps creators with annihilators, reverses words and
conjugates coefficients; permutations relabel modes; rescalings multiply
generators by lambda and tau(lambda) and connect algebras whose parameters
differ by the norm lambda*tau(lambda).  Each map is verified by pushing the
defining relations through it and normalizing on the far side.
"""
from __future__ import annotations

from functools import partial

from .freealg import Element, Word
from .presets import Algebra, with_h
from .scalars import HPoly, Scalar, _Record


def apply_J(alg: Algebra, x: Element) -> Element:
    """The anti-involution: reverse words, swap paired letters, conjugate."""
    if not alg.involution:
        raise ValueError(f"{alg.label} carries no anti-involution")
    return Element(
        (Word(tuple(alg.involution[g] for g in reversed(word.letters))), coeff.tau())
        for word, coeff in x.terms.items()
    )


def _unkilled_relations(source: Algebra, target: Algebra, image, name: str,
                        where: str = "") -> list:
    """A line for each defining relation of source whose image under the map
    `image`, normalized in target, is not 0."""
    images = ((rel, target.normalize(image(rel))) for rel in source.relations())
    return [f"{name}({rel}) normalizes to {x}, not 0{where}"
            for rel, x in images if not x.is_zero()]


def verify_J_well_defined(alg: Algebra) -> list:
    """J must kill every defining relation and square to the identity."""
    failures = _unkilled_relations(alg, alg, partial(apply_J, alg), "J")
    for g in alg.generators:
        twice = apply_J(alg, apply_J(alg, Element.from_word(g)))
        if twice != Element.from_word(g):
            failures.append(f"J(J({g})) = {twice} != {g}")
    return failures


def _as_perm(perm, n: int) -> dict:
    if not isinstance(perm, dict):
        perm = {i + 1: image for i, image in enumerate(perm)}
    if sorted(perm) != list(range(1, n + 1)) or sorted(perm.values()) != list(
        range(1, n + 1)
    ):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    return perm


def apply_sigma(alg: Algebra, perm, x: Element) -> Element:
    """Relabel modes: a_i -> a_perm(i), likewise for creators."""
    n = alg.params.get("n")
    if n is None:
        raise ValueError(f"{alg.label} has no indexed modes to permute")
    perm = _as_perm(perm, n)
    return Element(
        (Word(tuple(alg.indexed_gen(g.name, perm[g.index]) for g in word.letters)), coeff)
        for word, coeff in x.terms.items()
    )


def verify_sigma(alg: Algebra, perm) -> list:
    return _unkilled_relations(alg, alg, partial(apply_sigma, alg, perm), "sigma")


class RescalingMap(_Record):
    """a_i -> lam a_i, a+_i -> tau(lam) a+_i, from the lam*tau(lam)*h algebra
    onto the h algebra.

    Well-defined exactly when source.h == lam*tau(lam)*target.h; the
    constructor rejects anything else.
    """

    __slots__ = ("lam", "source", "target")

    def __init__(self, lam: Scalar, source: Algebra, target: Algebra):
        self.lam = lam
        self.source = source
        self.target = target
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


def rescale(source: Algebra, lam) -> RescalingMap:
    """Build the target algebra (parameter divided by the norm) and the map."""
    lam = Scalar.of(lam)
    norm = lam * lam.tau()
    # lam = 0 has no norm to divide by; the map refuses it with its own message
    target = with_h(source, source.h / norm) if norm else source
    return RescalingMap(lam, source, target)


def apply_phi(m: RescalingMap, x: Element) -> Element:
    tl = m.lam.tau()

    def image(word, c):
        for g in word.letters:
            c = c * (m.lam if g.name == "a" else tl)
        return c

    return Element((word, image(word, coeff)) for word, coeff in x.terms.items())


def verify_rescaling(m: RescalingMap) -> list:
    return _unkilled_relations(m.source, m.target, partial(apply_phi, m), "phi", " in target")


def number_operator_element(alg: Algebra, i: int) -> Element:
    """A representative of h N_i, unique only modulo the center.

    The word a+_i a_i works in five families.  Not in b': there it
    normalizes to h - sum_k a_k a+_k, which counts every mode at once and
    commutes with a+_j the same way for all j.  The mirrored family needs
    the mirrored candidate h - a_i a+_i, whose commutators carry the
    per-mode delta with the right sign.
    """
    ad_i, a_i = alg.indexed_gen("ad", i), alg.indexed_gen("a", i)
    if alg.family == "b'":
        flipped = Element.from_word(Word((a_i, ad_i)))
        return alg.normalize(Element.scalar(alg.h) - flipped)
    return alg.normalize(Element.from_word(Word((ad_i, a_i))))


def number_operator_check(alg: Algebra, i: int, j: int) -> list:
    """Residuals of [hN_i, a+_j] = delta_ij h a+_j and the a_j mirror."""
    n_elem = number_operator_element(alg, i)
    failures = []
    delta = 1 if i == j else 0
    one = Element.one()
    for name, sign in (("ad", 1), ("a", -1)):
        g = Element.from_word(alg.indexed_gen(name, j))
        expected = g * alg.h * (sign * delta)
        residual = alg.system.mul_sum(((1, n_elem, g), (-1, g, n_elem), (-1, expected, one)))
        if not residual.is_zero():
            failures.append(
                f"[hN_{i}, {name}{j}] residual {residual} (expected {expected})"
            )
    return failures
