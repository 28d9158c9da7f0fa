"""Grade groups Z^n (with optional per-coordinate moduli) and commutation factors.

A commutation factor is stored in exponential form base**B(g, k) for an
integer bilinear form B, which keeps evaluation exact and reduces the two
defining axioms eps(g,k)*eps(k,g) = 1 and eps(g+g',k) = eps(g,k)*eps(g',k)
to O(n^2) facts about B: `verify_factor_axioms` proves them in closed form
over the whole grade group.  Parity splits the grade group into even and
odd parts according to the sign of eps(g,g).
"""
from __future__ import annotations

from .scalars import MINUS_ONE, ONE, Scalar


class Grade:
    """Element of Z^n, reduced modulo the per-coordinate moduli (0 = free)."""

    __slots__ = ("coords", "moduli", "_hash")

    def __init__(self, coords: tuple, moduli: tuple = None):
        if moduli is None:
            moduli = (0,) * len(coords)
        if len(moduli) != len(coords):
            raise ValueError("moduli shape does not match coordinates")
        self.coords = tuple(c % m if m else c for c, m in zip(coords, moduli))
        self.moduli = tuple(moduli)
        # Grades key the word-grade and commutation-factor memos; equality stays by value.
        self._hash = hash((self.coords, self.moduli))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords and self.moduli == other.moduli
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def zero(dim: int, moduli=None) -> Grade:
        return Grade((0,) * dim, moduli)

    @staticmethod
    def unit(i: int, dim: int, moduli=None) -> Grade:
        """The i-th coordinate vector p_i (1-based index)."""
        if not 1 <= i <= dim:
            raise ValueError(f"unit index {i} out of range 1..{dim}")
        return Grade(tuple(1 if k == i - 1 else 0 for k in range(dim)), moduli)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check(self, other: Grade):
        if self.moduli != other.moduli or self.dim != other.dim:
            raise ValueError(f"grade group mismatch: {self!r} vs {other!r}")

    def __add__(self, other: Grade) -> Grade:
        self._check(other)
        return Grade(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.moduli
        )

    def __sub__(self, other: Grade) -> Grade:
        self._check(other)
        return Grade(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.moduli
        )

    def __neg__(self) -> Grade:
        return Grade(tuple(-c for c in self.coords), self.moduli)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def sort_key(self):
        return self.coords

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        if any(self.moduli):
            return f"Grade{self.coords!r} mod {self.moduli!r}"
        return f"Grade{self.coords!r}"


class CommutationFactor:
    """eps(g, k) = base ** B(g, k) for an integer matrix B.

    Two factors are equal when base and form are; the label only names one.
    `eval` keeps each value it computes, keyed by the grade pair, and holds
    each distinct value once, so equal values of many pairs share one object.
    """

    __slots__ = ("base", "form", "label", "_values", "_distinct")

    def __init__(self, base: Scalar, form: tuple, label: str = ""):
        self.base = Scalar.of(base)
        self.form = tuple(tuple(int(x) for x in row) for row in form)
        self.label = label
        self._values = {}
        self._distinct = {}
        if self.base.is_zero():
            raise ValueError("commutation factor base must be invertible")
        for row in self.form:
            if len(row) != len(self.form):
                raise ValueError("bilinear form matrix must be square")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.base == other.base and self.form == other.form
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.form))

    def __repr__(self) -> str:
        return (
            f"CommutationFactor(base={self.base!r}, form={self.form!r}, label={self.label!r})"
        )

    @property
    def dim(self) -> int:
        return len(self.form)

    def exponent(self, g: Grade, k: Grade) -> int:
        if g.dim != self.dim or k.dim != self.dim:
            raise ValueError(
                f"grade dimension {g.dim}x{k.dim} does not match form of size {self.dim}"
            )
        total = 0
        for j, gj in enumerate(g.coords):
            if not gj:
                continue
            row = self.form[j]
            total += gj * sum(row[m] * km for m, km in enumerate(k.coords) if km)
        return total

    def eval(self, g: Grade, k: Grade) -> Scalar:
        value = self._values.get((g, k))
        if value is None:
            value = self.base ** self.exponent(g, k)
            value = self._values[g, k] = self._distinct.setdefault(value, value)
        return value

    def parity(self, g: Grade) -> int:
        """0 for even (eps(g,g) = 1), 1 for odd (eps(g,g) = -1)."""
        v = self.eval(g, g)
        if v == ONE:
            return 0
        if v == MINUS_ONE:
            return 1
        raise ValueError(f"eps(g,g) = {v} is not a sign; parity undefined for {g}")

    def moduli_violations(self, moduli) -> list:
        """Well-definedness on a quotient: base**(m*B[j][k]) must be 1."""
        bad = []
        for j, m in enumerate(moduli):
            if not m:
                continue
            for k in range(self.dim):
                for r, c in ((j, k), (k, j)):
                    if self.base ** (m * self.form[r][c]) != ONE:
                        bad.append(
                            f"base^({m}*B[{r}][{c}]) = base^{m * self.form[r][c]} != 1"
                        )
        return bad


def verify_factor_axioms(factor: CommutationFactor, samples) -> list:
    """Prove the factor axioms on every grade group among the samples.

    Because eps(g, k) = base**B(g, k) with B bilinear, the axioms reduce to
    finitely many facts about the form, so the check covers the whole grade
    group and the samples only name which groups (moduli) to check:

    - bi-additivity eps(g+g', k) = eps(g, k)*eps(g', k), and the same in k,
      holds for all grades because the exponent B(g, k) is bilinear;
    - axiom (1) eps(g, k)*eps(k, g) = 1 reads base**S(g, k) = 1 for the
      symmetric form S = B + B^T, which holds for all grades iff it holds on
      unit vectors, i.e. base**(B[j][k] + B[k][j]) = 1 for all j <= k;
    - axiom (1) at g = k gives eps(g, g)**2 = 1, so parity is defined, and
      eps(g+k, g+k) = eps(g, g)*eps(k, k)*eps(g, k)*eps(k, g) makes it
      additive;
    - on a quotient grade group eps must not depend on the representative,
      which is `moduli_violations`.

    Returns human-readable violations; an empty list is a proof.
    """
    violations = []
    for moduli in {g.moduli for g in samples}:
        violations.extend(factor.moduli_violations(moduli))
    form = factor.form
    for j in range(factor.dim):
        for k in range(j, factor.dim):
            e = form[j][k] + form[k][j]
            if factor.base ** e != ONE:
                violations.append(f"base^(B[{j}][{k}]+B[{k}][{j}]) = base^{e} != 1")
    return violations


def _ones(n: int) -> tuple:
    return tuple(tuple(1 for _ in range(n)) for _ in range(n))


def _eye(n: int) -> tuple:
    return tuple(tuple(1 if j == k else 0 for k in range(n)) for j in range(n))


def _zeros(n: int) -> tuple:
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def eps_a(n: int) -> CommutationFactor:
    """(-1)^(sum g)(sum k): every unit grade odd, signs by total degree."""
    return CommutationFactor(MINUS_ONE, _ones(n), "eps_a")


def eps_a_prime(n: int) -> CommutationFactor:
    """(-1)^(g.k): coordinatewise pairing, unit grades odd."""
    return CommutationFactor(MINUS_ONE, _eye(n), "eps_a'")


def eps_c(n: int) -> CommutationFactor:
    """Trivial factor: everything even, plain commutativity."""
    return CommutationFactor(MINUS_ONE, _zeros(n), "eps_c")


def eps_c_prime(n: int) -> CommutationFactor:
    """(-1)^(sum_{i!=j} g_i k_j): unit grades even, distinct indices pick up signs."""
    form = tuple(tuple(0 if j == k else 1 for k in range(n)) for j in range(n))
    return CommutationFactor(MINUS_ONE, form, "eps_c'")


def eps_q(q) -> CommutationFactor:
    """q^(lm - kn) on Z^2; antisymmetric, so eps(g,g) = 1 for every grade."""
    return CommutationFactor(Scalar.of(q), ((0, -1), (1, 0)), "eps_q")


def counterexample_factor() -> CommutationFactor:
    """(-1)^(kn + lm) on (Z/2)^2; both off-diagonal pairings count."""
    return CommutationFactor(MINUS_ONE, ((0, 1), (1, 0)), "counterexample")


FACTOR_PRESETS = {
    "eps_a": eps_a,
    "eps_a'": eps_a_prime,
    "eps_c": eps_c,
    "eps_c'": eps_c_prime,
}
