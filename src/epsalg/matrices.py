"""Graded matrices over an algebra, rank profiles, and the IBN probe.

A graded matrix carries row grades, column grades, and a shift gamma; entry
(i, j) must be homogeneous of grade row_i + gamma - col_j.  Invertible
pairs witness graded module isomorphisms; the probe pushes them through the
coefficient-of-1 augmentation, once the relations prove it a ring map, and
compares rank profiles over the scalars, equal then by Cohn's lemma.
"""
from __future__ import annotations

import itertools
from math import prod

from .freealg import EMPTY_WORD, Element, Word
from .grading import CommutationFactor
from .presets import Algebra
from .scalars import H_ONE, H_ZERO, HPoly, _Record, _Value


class RankProfile(_Value):
    """Multiplicity of each grade in a homogeneous basis, plus parity split."""

    __slots__ = ("entries", "even", "odd")

    def __init__(self, entries: tuple, even: int, odd: int):
        self.entries = entries
        self.even = even
        self.odd = odd

    @property
    def total(self) -> int:
        return self.even + self.odd

    def __str__(self) -> str:
        inner = ", ".join(f"{g}:{m}" for g, m in self.entries)
        return f"{{{inner}}} (even {self.even} | odd {self.odd}, total {self.total})"


def rank_profile(grades, factor: CommutationFactor) -> RankProfile:
    counts = {}
    for g in grades:
        counts[g] = counts.get(g, 0) + 1
    even = sum(m for g, m in counts.items() if factor.parity(g) == 0)
    odd = sum(m for g, m in counts.items() if factor.parity(g) == 1)
    entries = tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))
    return RankProfile(entries, even, odd)


class GradedMatrix:
    """Rectangular array of homogeneous elements with prescribed grades."""

    def __init__(self, alg: Algebra, row_grades, col_grades, entries, gamma=None):
        entries = [[alg.normalize(e) for e in row] for row in entries]
        self.alg = alg
        self.row_grades = tuple(row_grades)
        self.col_grades = tuple(col_grades)
        self.gamma = gamma if gamma is not None else alg.zero_grade
        if len(entries) != len(self.row_grades):
            raise ValueError("entry rows do not match row grades")
        for row in entries:
            if len(row) != len(self.col_grades):
                raise ValueError("entry row does not match column grades")
        self.entries = tuple(map(tuple, entries))
        self._check_grades()

    def _check_grades(self):
        for i, j in itertools.product(range(self.nrows), range(self.ncols)):
            need = self.row_grades[i] + self.gamma - self.col_grades[j]
            entry = self.entries[i][j]
            if entry.is_zero():
                continue
            got = self.alg.grade_of(entry)
            if got != need:
                raise ValueError(
                    f"entry ({i},{j}) has grade {got}, required {need}"
                )

    @property
    def nrows(self) -> int:
        return len(self.row_grades)

    @property
    def ncols(self) -> int:
        return len(self.col_grades)

    def __str__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"[{body}]"


def gm_mul(P: GradedMatrix, Q: GradedMatrix) -> GradedMatrix:
    if P.alg is not Q.alg:
        raise ValueError("matrices live over different algebras")
    if P.col_grades != Q.row_grades:
        raise ValueError("inner grades do not match")
    mul_sum, inner = P.alg.system.mul_sum, range(P.ncols)
    entries = [[mul_sum([(1, p[k], Q.entries[k][j]) for k in inner]) for j in range(Q.ncols)]
               for p in P.entries]
    return GradedMatrix(P.alg, P.row_grades, Q.col_grades, entries, P.gamma + Q.gamma)


def is_identity(M: GradedMatrix) -> bool:
    """Square grades, no shift, one in place (i, i) and zero everywhere else."""
    if M.row_grades != M.col_grades or not M.gamma.is_zero():
        return False
    one, zero = Element.one(), Element.zero()
    return all(v == (one if i == j else zero) for i, row in enumerate(M.entries)
               for j, v in enumerate(row))


def invertible_pair(P: GradedMatrix, Q: GradedMatrix) -> bool:
    """P*Q and Q*P both the identity (shapes included)."""
    if P.col_grades != Q.row_grades or Q.col_grades != P.row_grades:
        return False
    if not (P.gamma + Q.gamma).is_zero():
        return False
    return is_identity(gm_mul(P, Q)) and is_identity(gm_mul(Q, P))


def unit_coefficient(x: Element) -> HPoly:
    """The augmentation: coefficient of the empty word."""
    return x.coefficient(EMPTY_WORD)


def augmentation_violations(alg: Algebra) -> list:
    """A line for each rule whose two sides phi sends to different values, phi
    the algebra map on the free algebra with phi(g) = pi(g) on generators and
    pi(x) the coefficient of 1 in the normal form N(x); none exactly when pi
    is multiplicative.

    Proof.  If pi is multiplicative, pi is an algebra map of the free algebra
    agreeing with phi on generators, so phi(lhs) = pi(lhs) = pi(rhs) =
    phi(rhs).  If no rule gives a line, phi kills the relations, so phi(x) =
    phi(N(x)), and phi(N(x)) = pi(x): a nonempty irreducible word has only
    irreducible letters g, with phi(g) = pi(g) = 0.

    A rule u*v -> rhs (u a letter) prints `pi(u * v) = phi(rhs) != pi(u)*pi(v)
    = phi(u*v)`, values of pi where rhs and v are irreducible, as in presets.
    """
    pi = {g: unit_coefficient(alg.normalize(Element.from_word(g))) for g in alg.generators}

    def phi(word: Word) -> HPoly:
        return prod(map(pi.__getitem__, word), start=H_ONE)

    violations = []
    for rule in alg.system.rules:
        lhs = phi(rule.lhs)
        rhs = sum((c * phi(w) for w, c in rule.rhs.terms.items()), H_ZERO)
        if lhs != rhs:
            u, v = rule.lhs[0], rule.lhs[1:]
            violations.append(f"pi({u} * {v}) = {rhs} != pi({u})*pi({v}) = {lhs}")
    return violations


class IbnReport(_Record):
    __slots__ = ("ok", "kind", "reason", "row_profile", "col_profile")

    def __init__(
        self, ok: bool, kind: str, reason: str, row_profile: RankProfile, col_profile: RankProfile
    ):
        self.ok = ok
        self.kind = kind
        self.reason = reason
        self.row_profile = row_profile
        self.col_profile = col_profile

    def __str__(self) -> str:
        status = "certified" if self.ok else "refused"
        return (
            f"ibn[{self.kind}] {status}: {self.reason}; "
            f"rows {self.row_profile} vs cols {self.col_profile}"
        )


def ibn_probe(P: GradedMatrix, Q: GradedMatrix, kind: str = "eps") -> IbnReport:
    """Compare rank profiles through the augmentation pi, refusing when unsound.

    kind picks how much grading survives the probe: 'total' forgets it all,
    'super' keeps the parity split, 'eps' keeps every grade; a grade's key
    is 0, its parity, or itself.  Refused unless pi is a ring map, (P, Q) an
    invertible pair, and the shift gamma of trivial key.  Then the projected
    scalar blocks multiply to identities both ways: pi(P) pi(Q) = pi(PQ) = 1
    and pi(Q) pi(P) = 1; pi kills nonzero grades, so pi(P)_ij = 0 unless
    col_j = row_i + gamma, of row_i's key; so pi(P) and pi(Q) are block
    diagonal with inverse blocks, square over the commutative scalars, and
    the multiplicities agree.  With gamma's key nontrivial, a nonempty pi(P)
    is nonzero (it has a right inverse) and each nonzero entry crosses blocks.
    """
    if kind not in ("total", "super", "eps"):
        raise ValueError(f"unknown probe kind {kind!r}")
    factor = P.alg.factor
    rows = rank_profile(P.row_grades, factor)
    cols = rank_profile(P.col_grades, factor)

    def refuse(reason: str) -> IbnReport:
        return IbnReport(False, kind, reason, rows, cols)

    bad = augmentation_violations(P.alg)
    if bad:
        return refuse(f"augmentation not multiplicative, e.g. {bad[0]}")
    if not invertible_pair(P, Q):
        return refuse("not an invertible pair")
    if P.row_grades and (kind == "eps" and not P.gamma.is_zero()
                         or kind == "super" and factor.parity(P.gamma)):
        return refuse(f"shift {P.gamma} crosses blocks")
    return IbnReport(True, kind, "profiles agree through the augmentation", rows, cols)
