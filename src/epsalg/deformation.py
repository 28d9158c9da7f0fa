"""The quantum product read as a formal deformation of its classical limit.

Quantum and classical normal forms share one irreducible-word basis, so the
h-degree parts of the quantum product of two classical basis elements are
themselves classical elements: mu_n(x, y) is the h^n coefficient of the
quantum normal form N(xy), read off the h^n parts of word normal forms.
Associativity of the quantum product then splits into one identity per
order of h: since N is K[h]-linear, order n is the h^n coefficient of
N(N(xy)z) - N(xN(yz)), which is
sum over p+q=n of mu_p(mu_q(x,y), z) - mu_p(x, mu_q(y,z)).
"""
from __future__ import annotations

from .freealg import Element
from .presets import Algebra, classical_limit
from .rewrite import require_h_free
from .scalars import H_MINUS_ONE, H_ONE


class DeformationExpansion:
    """A symbolic-parameter algebra together with its classical limit.

    The deformation constant must vanish at h = 0 (h, 2*h, ...): a pinned
    constant is no deformation, since mu_0 would not be the classical product.

    Irreducible words are the words avoiding every left side, so equal
    generators and left sides prove the basis shared at every length."""

    def __init__(self, quantum: Algebra):
        if quantum.is_classical():
            raise ValueError(f"{quantum.label} has no parameter left to expand in")
        if not quantum.h.coefficient(0).is_zero():
            raise ValueError(
                f"{quantum.label}: h = {quantum.h} has a non-zero constant term, "
                "so mu_0 would not be the classical product"
            )
        self.quantum = quantum
        self.classical = classical_limit(quantum)
        q, c = quantum.system, self.classical.system
        if q.generators != c.generators or q.left_sides.keys() != c.left_sides.keys():
            raise ValueError(
                "quantum and classical irreducible words disagree; "
                "the shared-basis identification fails"
            )

    def mu(self, x: Element, y: Element) -> Element:
        """Quantum normal form of x*y, coefficients polynomial in h."""
        require_h_free(x, y)
        return self.quantum.mul(x, y)

    def mu_n(self, x: Element, y: Element, n: int) -> Element:
        """The h^n coefficient of `mu`, zero for n < 0, computed alone."""
        require_h_free(x, y)
        return self.quantum.system.mul_sum(((H_ONE, x, y),), n)


def check_deformation_identity(
    exp: DeformationExpansion, x: Element, y: Element, z: Element, n: int
) -> Element:
    """Residual of order-n associativity; zero iff the identity holds.

    sum over p+q=n of mu_p(mu_q(x,y), z) - mu_p(x, mu_q(y,z)).  The inner
    slices mu_q are the h^q parts of one exact product mu(x,y) and one
    mu(y,z), which also refuse h in x, y or z, in that order; the two outer
    products of each q are one h^(n-q) call.  For n < 0 it checks the
    inputs and returns zero.
    """
    xy, yz, outer = exp.mu(x, y), exp.mu(y, z), exp.quantum.system.mul_sum
    return Element.sum(
        outer(((H_ONE, xy.h_coefficient(q), z), (H_MINUS_ONE, x, yz.h_coefficient(q))), n - q)
        for q in range(max(n, 0) + 1)
    )

