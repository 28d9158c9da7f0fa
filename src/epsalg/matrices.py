"""Graded matrices over an algebra, rank profiles, and the IBN probe.

A graded matrix carries row grades, column grades, and a shift gamma; entry
(i, j) must be homogeneous of grade row_i + gamma - col_j.  Invertible
pairs witness graded module isomorphisms; the probe pushes them through the
coefficient-of-1 augmentation (when that map is multiplicative) to compare
rank profiles over the scalar field, where ranks are honest.
"""
from __future__ import annotations

import itertools

from .freealg import EMPTY_WORD, Element
from .grading import CommutationFactor, Grade
from .presets import Algebra
from .scalars import H_ONE, H_ZERO, HPoly, _Record, _Value

# Basis words up to this length are multiplied in pairs to test the augmentation.
AUGMENTATION_LEN = 2


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


def _rows_are_identity(rows, one, zero) -> bool:
    """Each row i holds one in place i and zero everywhere else."""
    return all(v == (one if i == j else zero) for i, row in enumerate(rows)
               for j, v in enumerate(row))


def is_identity(M: GradedMatrix) -> bool:
    if M.row_grades != M.col_grades or not M.gamma.is_zero():
        return False
    return _rows_are_identity(M.entries, Element.one(), Element.zero())


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
    """Multiplicativity of the augmentation on pairs of basis words of length
    at most `AUGMENTATION_LEN`.

    The augmentation kills every nonzero grade outright, so the only way it
    fails to be an algebra map is a product of basis words acquiring a
    constant term; that is exactly what happens in any quantum family
    (a_1 ad_1 -> h + ...) and in the localized counterexample (x X -> 1).
    """
    violations = []
    basis = alg.basis(AUGMENTATION_LEN)
    for u, v in itertools.product(basis, repeat=2):
        lhs = unit_coefficient(alg.mul(Element.from_word(u), Element.from_word(v)))
        rhs = unit_coefficient(Element.from_word(u)) * unit_coefficient(
            Element.from_word(v)
        )
        if lhs != rhs:
            violations.append(f"pi({u} * {v}) = {lhs} != pi({u})*pi({v}) = {rhs}")
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
    """Compare rank profiles through the augmentation, refusing when unsound.

    kind picks how much grading survives the probe: 'total' forgets it all,
    'super' keeps the parity split, 'eps' keeps every grade.  Certification
    means the projected scalar blocks multiply to identities both ways, which
    forces the corresponding multiplicities to agree.
    """
    if kind not in ("total", "super", "eps"):
        raise ValueError(f"unknown probe kind {kind!r}")
    alg = P.alg
    factor = alg.factor
    rows = rank_profile(P.row_grades, factor)
    cols = rank_profile(P.col_grades, factor)

    def refuse(reason: str) -> IbnReport:
        return IbnReport(False, kind, reason, rows, cols)

    bad = augmentation_violations(alg)
    if bad:
        return refuse(f"augmentation not multiplicative, e.g. {bad[0]}")
    if not invertible_pair(P, Q):
        return refuse("not an invertible pair")

    def keyfn(g: Grade):
        if kind == "total":
            return 0
        if kind == "super":
            return factor.parity(g)
        return g.sort_key()

    if kind != "total":
        for i, g in enumerate(P.row_grades):
            for j, k in enumerate(P.col_grades):
                if keyfn(g) != keyfn(k) and unit_coefficient(P.entries[i][j]):
                    return refuse(f"projected entry ({i},{j}) crosses blocks")
    blocks = sorted({keyfn(g) for g in P.row_grades + P.col_grades})
    for block in blocks:
        ridx = [i for i, g in enumerate(P.row_grades) if keyfn(g) == block]
        cidx = [j for j, g in enumerate(P.col_grades) if keyfn(g) == block]
        p_blk = [[unit_coefficient(P.entries[i][j]) for j in cidx] for i in ridx]
        q_blk = [[unit_coefficient(Q.entries[j][i]) for i in ridx] for j in cidx]
        pq, qp = _scalar_mul(p_blk, q_blk), _scalar_mul(q_blk, p_blk)
        if not (_rows_are_identity(pq, H_ONE, H_ZERO) and _rows_are_identity(qp, H_ONE, H_ZERO)):
            return refuse(f"projected block {block} not invertible")
        if len(ridx) != len(cidx):
            return refuse(f"block {block} has unequal row and column multiplicity")
    return IbnReport(True, kind, "profiles agree through the augmentation", rows, cols)


def _scalar_mul(A, B):
    if not A or not B:
        return [[H_ZERO for _ in range(len(B[0]) if B else 0)] for _ in A]
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            total = H_ZERO
            for k in range(len(B)):
                total = total + A[i][k] * B[k][j]
            row.append(total)
        out.append(row)
    return out
