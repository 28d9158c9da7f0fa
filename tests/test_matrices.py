"""Graded matrices, rank profiles, and the invariant-basis-number probe."""
import itertools
import random

import pytest

from epsalg import (
    H_ONE,
    H_ZERO,
    Algebra,
    CommutationFactor,
    Element,
    Generator,
    Grade,
    GradedMatrix,
    Rule,
    Word,
    augmentation_violations,
    build_counterexample,
    build_noa,
    classical_limit,
    eps_c,
    gm_mul,
    ibn_probe,
    invertible_pair,
    parse_preset,
    rank_profile,
    unit_coefficient,
)
from epsalg import matrices
from epsalg.rewrite import ReductionSystem


def _matrix(alg, rows, cols, texts, gamma=None):
    entries = [[alg.parse(t) for t in row] for row in texts]
    return GradedMatrix(alg, rows, cols, entries, gamma)


# -------------------------------------------------------------- rank profile


def test_rank_profile_counts_and_parity():
    alg = build_noa("a", 2)
    e1, e2 = Grade((1, 0)), Grade((0, 1))
    prof = rank_profile([e1, e1, e2, Grade((0, 0))], alg.factor)
    assert dict(prof.entries) == {e1: 2, e2: 1, Grade((0, 0)): 1}
    assert prof.total == 4
    # unit grades are odd for the fermionic factor, the zero grade is even
    assert prof.even == 1 and prof.odd == 3
    assert str(prof) == "{(0,0):1, (0,1):1, (1,0):2} (even 1 | odd 3, total 4)"


def test_rank_profile_counterexample():
    alg = build_counterexample()
    m = (2, 2)
    rows = rank_profile([Grade((1, 0), m)], alg.factor)
    cols = rank_profile([Grade((0, 1), m)], alg.factor)
    assert rows != cols
    assert rows.total == cols.total == 1
    assert rows.even == cols.even == 1


# ------------------------------------------------------------ graded matrix


def test_entry_grades_are_checked():
    alg = build_noa("c", 1)
    e1 = Grade((1,))
    z = Grade((0,))
    _matrix(alg, [z, e1], [z, e1], [["1", "a1"], ["0", "1"]])
    with pytest.raises(ValueError, match="has grade"):
        _matrix(alg, [z, e1], [z, e1], [["1", "ad1"], ["0", "1"]])
    with pytest.raises(ValueError, match="do not match row grades"):
        _matrix(alg, [z, e1], [z], [["1"]])


def test_matrix_entries_normalize():
    alg = build_noa("c", 1)
    z = Grade((0,))
    M = _matrix(alg, [z], [z], [["a1*ad1 - ad1*a1"]])
    assert str(M.entries[0][0]) == "h"


def test_gm_mul_and_identity():
    alg = classical_limit(build_noa("c", 1))
    z, e1 = Grade((0,)), Grade((1,))
    P = _matrix(alg, [z, e1], [z, e1], [["1", "a1"], ["0", "1"]])
    Q = _matrix(alg, [z, e1], [z, e1], [["1", "-a1"], ["0", "1"]])
    assert invertible_pair(P, Q)
    assert str(gm_mul(P, Q)) == "[1, 0; 0, 1]"
    assert not invertible_pair(P, _matrix(alg, [z, e1], [z, e1], [["1", "0"], ["0", "1"]]))
    with pytest.raises(ValueError, match="inner grades"):
        gm_mul(P, _matrix(alg, [z], [z], [["1"]]))


def test_products_renormalize_their_entries_to_themselves(monkeypatch):
    # gm_mul builds each entry with mul_sum, already normal, and the matrix
    # normalizes it again, which leaves a normal form as it is
    alg = build_noa("a", 2, 0)
    z, e1, e2 = Grade((0, 0)), Grade((1, 0)), Grade((0, 1))
    P = _matrix(alg, [z, e1], [z, e1], [["1", "a1"], ["0", "1"]])
    Q = _matrix(alg, [z, e1], [z, e1], [["1", "-a1"], ["0", "1"]])
    R = _matrix(alg, [e1, e2], [e1, e2], [["1", "ad1*a2"], ["ad2*a1", "1"]])
    calls = []
    normalize = ReductionSystem.normalize

    def counted(self, x):
        got = normalize(self, x)
        calls.append((x, got))
        return got

    monkeypatch.setattr(ReductionSystem, "normalize", counted)
    assert str(gm_mul(R, R)) == "[ad1*ad2*a1*a2 + 1, 2*ad1*a2; 2*ad2*a1, ad1*ad2*a1*a2 + 1]"
    assert invertible_pair(P, Q)
    assert len(calls) == 12 and all(x == got for x, got in calls)


def test_probe_refuses_quantum_algebras_outright():
    # the unit pair is as invertible as it gets, yet the probe must refuse:
    # over a quantum family the augmentation is not a ring map
    alg = build_noa("c", 1)
    z = Grade((0,))
    P = _matrix(alg, [z], [z], [["1"]])
    report = ibn_probe(P, P)
    assert not report.ok
    assert "augmentation not multiplicative" in report.reason


# -------------------------------------------------------------- augmentation


def test_augmentation_values():
    alg = build_noa("c", 1)
    assert unit_coefficient(alg.parse("a1*ad1 + 3")).is_zero() is False
    assert str(unit_coefficient(alg.normalize(alg.parse("a1*ad1")))) == "h"
    assert unit_coefficient(alg.parse("ad1")).is_zero()


def test_augmentation_multiplicative_only_classically():
    assert augmentation_violations(classical_limit(build_noa("c", 1))) == []
    bad = augmentation_violations(build_noa("c", 1))
    assert "pi(a1 * ad1) = h != pi(a1)*pi(ad1) = 0" in bad
    cex = augmentation_violations(build_counterexample())
    assert "pi(x * X) = 1 != pi(x)*pi(X) = 0" in cex


# ----------------------------------------------------------------- ibn probe


def _cex_pair():
    alg = build_counterexample()
    m = (2, 2)
    gx, gy = Grade((1, 0), m), Grade((0, 1), m)
    P = _matrix(alg, [gx], [gy], [["X*y"]])
    Q = _matrix(alg, [gy], [gx], [["Y*x"]])
    return P, Q


def test_counterexample_pair_is_invertible_with_distinct_profiles():
    P, Q = _cex_pair()
    assert invertible_pair(P, Q)
    report = ibn_probe(P, Q)
    assert not report.ok
    assert "augmentation not multiplicative" in report.reason
    assert report.row_profile != report.col_profile
    assert str(report.row_profile) == "{(1,0):1} (even 1 | odd 0, total 1)"
    assert str(report.col_profile) == "{(0,1):1} (even 1 | odd 0, total 1)"


def test_probe_certifies_classical_identity():
    alg = classical_limit(build_noa("a", 2))
    z, e1 = Grade((0, 0)), Grade((1, 0))
    P = _matrix(alg, [z, e1], [z, e1], [["1", "a1"], ["0", "1"]])
    Q = _matrix(alg, [z, e1], [z, e1], [["1", "-a1"], ["0", "1"]])
    for kind in ("total", "super", "eps"):
        report = ibn_probe(P, Q, kind)
        assert report.ok, report.reason
        assert report.reason == "profiles agree through the augmentation"
        assert report.row_profile == report.col_profile


def test_probe_rejects_non_invertible_pair():
    alg = classical_limit(build_noa("c", 1))
    z = Grade((0,))
    P = _matrix(alg, [z], [z], [["a1*ad1"]], gamma=None)
    # grade bookkeeping: a1*ad1 is homogeneous of grade zero
    Q = _matrix(alg, [z], [z], [["1"]])
    report = ibn_probe(P, Q)
    assert not report.ok
    assert report.reason == "not an invertible pair"


def test_probe_unknown_kind():
    P, Q = _identity_pair()
    with pytest.raises(ValueError, match="unknown probe kind"):
        ibn_probe(P, Q, "weird")


def test_probe_refuses_an_unknown_kind_before_any_work(monkeypatch):
    # over a quantum algebra the augmentation check would refuse first
    alg = build_noa("a", 1)
    P = _matrix(alg, [Grade((0,))], [Grade((0,))], [["1"]])
    calls = []
    monkeypatch.setattr(matrices, "augmentation_violations", lambda *a: calls.append(a) or [])
    with pytest.raises(ValueError, match="unknown probe kind 'bogus'"):
        ibn_probe(P, P, kind="bogus")
    assert calls == []


def _identity_pair():
    alg = classical_limit(build_noa("c", 1))
    z = Grade((0,))
    P = _matrix(alg, [z], [z], [["1"]])
    return P, P


def test_gamma_shift_certified_totally_but_not_gradedly():
    # a unit sitting between different grades is an iso only after a shift;
    # the graded probe refuses it, the ungraded ranks still agree
    alg = classical_limit(build_noa("c", 1))
    z, e1 = Grade((0,)), Grade((1,))
    P = _matrix(alg, [e1], [z], [["1"]], gamma=Grade((-1,)))
    Q = _matrix(alg, [z], [e1], [["1"]], gamma=Grade((1,)))
    assert invertible_pair(P, Q)
    graded = ibn_probe(P, Q, "eps")
    assert not graded.ok and "crosses blocks" in graded.reason
    total = ibn_probe(P, Q, "total")
    assert total.ok
    assert total.row_profile.total == total.col_profile.total == 1



def test_a_shift_with_trivial_key_keeps_the_blocks():
    # an even shift keeps the parity blocks of the fermion factor, so only
    # the graded probe refuses; with no row there is no block to cross
    alg = classical_limit(build_noa("a", 2))
    z, e2 = Grade((0, 0)), Grade((2, 0))
    P = _matrix(alg, [e2], [z], [["1"]], gamma=-e2)
    Q = _matrix(alg, [z], [e2], [["1"]], gamma=e2)
    assert [ibn_probe(P, Q, kind).ok for kind in ("total", "super", "eps")] == [True, True, False]
    assert ibn_probe(P, Q, "eps").reason == "shift (-2,0) crosses blocks"
    P = _matrix(alg, [], [], [], gamma=Grade((1, 0)))
    Q = _matrix(alg, [], [], [], gamma=Grade((-1, 0)))
    assert all(ibn_probe(P, Q, kind).ok for kind in ("total", "super", "eps"))


# ------------------------------------------------------------- refusals


def test_matrix_refusals():
    alg = classical_limit(build_noa("c", 1))
    z, e1 = Grade((0,)), Grade((1,))
    with pytest.raises(ValueError, match="entry row does not match column grades"):
        _matrix(alg, [z, z], [z, z], [["1", "0"], ["1"]])
    one = _matrix(alg, [z], [z], [["1"]])
    with pytest.raises(ValueError, match="matrices live over different algebras"):
        gm_mul(one, _matrix(build_noa("c", 1), [z], [z], [["1"]]))
    assert invertible_pair(one, one)
    # mismatched shapes, then a total shift e1 that is not zero
    assert not invertible_pair(one, _matrix(alg, [z, z], [z], [["1"], ["0"]]))
    assert not invertible_pair(one, _matrix(alg, [z], [z], [["ad1"]], gamma=e1))


# ------------------------------------------- the proof against its oracles


def _sampled_violations(alg):
    """pi(u*v) against pi(u)*pi(v) on every pair of basis words of length at
    most 2.  Where every left side has two letters, each rule u*v -> r is
    such a pair, so the sample misses no failure; a longer left side
    escapes it."""
    basis, pi = alg.basis(2), unit_coefficient
    violations = []
    for u, v in itertools.product(map(Element.from_word, basis), repeat=2):
        lhs, rhs = pi(alg.mul(u, v)), pi(u) * pi(v)
        if lhs != rhs:
            violations.append(f"pi({u} * {v}) = {lhs} != pi({u})*pi({v}) = {rhs}")
    return violations


_FAMILIES = ("fermion", "pseudo-fermion", "excl", "excl-dual", "boson", "pseudo-boson")

_PRESETS = [
    f"{family}:n={n},h={h}"
    for family in _FAMILIES for n in (1, 2, 3) for h in ("h", "0", "2", "2*h", "h^2")
] + ["qplane:2", "qplane:I", "qplane:-1", "cex"] + [
    f"ext:n={n},factor={f}" for n in (1, 2, 3, 4) for f in ("eps_a", "eps_a'", "eps_c", "eps_c'")
]


def test_the_rules_decide_as_the_sampled_pairs_on_every_preset():
    refused = 0
    for text in _PRESETS:
        alg = parse_preset(text)
        assert all(len(rule.lhs) == 2 for rule in alg.system.rules), text
        got, sampled = augmentation_violations(alg), _sampled_violations(alg)
        assert bool(got) == bool(sampled), text
        assert got[:1] == sampled[:1], text
        refused += bool(got)
    assert len(_PRESETS) == 110 and refused == 73


def _fifth_power():
    """One generator x of grade 1 in Z/5 with x^5 = 1, and the pair [[x]], [[x^4]]."""
    g0, g1 = Grade((0,), (5,)), Grade((1,), (5,))
    x = Generator("x", None, g1)
    system = ReductionSystem([x], [Rule(Word((x,) * 5), Element.one())])
    alg = Algebra("x5", "x5", system, CommutationFactor(1, ((0,),)), H_ZERO)
    return _matrix(alg, [g1], [g0], [["x"]]), _matrix(alg, [g0], [g1], [["x^4"]])


def test_a_relation_of_five_letters_is_seen():
    P, Q = _fifth_power()
    assert invertible_pair(P, Q)
    assert _sampled_violations(P.alg) == []
    line = "pi(x * x^4) = 1 != pi(x)*pi(x^4) = 0"
    assert augmentation_violations(P.alg) == [line]
    for kind in ("total", "super", "eps"):
        report = ibn_probe(P, Q, kind)
        assert not report.ok
        assert report.reason == f"augmentation not multiplicative, e.g. {line}"


def _blocks_invert(P, Q, kind):
    """pi(P) and pi(Q) cut into blocks by key: each block square, and the
    blocks multiply to identities both ways."""
    key = {"total": lambda g: 0, "super": P.alg.factor.parity, "eps": lambda g: g}[kind]
    for block in {key(g) for g in P.row_grades + P.col_grades}:
        ridx = [i for i, g in enumerate(P.row_grades) if key(g) == block]
        cidx = [j for j, g in enumerate(P.col_grades) if key(g) == block]
        if len(ridx) != len(cidx):
            return False
        p = [[unit_coefficient(P.entries[i][j]) for j in cidx] for i in ridx]
        q = [[unit_coefficient(Q.entries[j][i]) for i in ridx] for j in cidx]
        size = range(len(ridx))
        eye = [[H_ONE if i == j else H_ZERO for j in size] for i in size]
        for a, b in ((p, q), (q, p)):
            if [[sum((a[i][k] * b[k][j] for k in size), H_ZERO) for j in size]
                    for i in size] != eye:
                return False
    return True


def _random_pair(rng, alg, shift):
    """P = [[1, x], [0, 1]] and its inverse, x = c0 + c*w (c0 = 0 unless the
    word w has grade zero), the rows of P (columns of Q) swapped at random,
    P shifted by a random grade and Q back by its negative when `shift`."""
    n = alg.params["n"]
    w = rng.choice([w for w in alg.basis(2) if len(w)])
    gw = alg.word_grade(w)
    c0 = rng.choice((0, 1, -2)) if gw.is_zero() else 0
    c = rng.choice((1, 2, -1, -3))
    top = rng.choice([alg.zero_grade] + [Grade.unit(i, n) for i in range(1, n + 1)])
    cols = [top, top - gw]
    p_entries = [["1", f"{c0} + {c}*{w}"], ["0", "1"]]
    q_entries = [["1", f"{-c0} - {c}*{w}"], ["0", "1"]]
    rows = list(cols)
    if rng.random() < 0.5:
        rows.reverse()
        p_entries.reverse()
        q_entries = [row[::-1] for row in q_entries]
    gamma = Grade(tuple(rng.choice((-2, -1, 0, 1, 2)) for _ in range(n))) if shift else None
    if gamma is not None:
        rows = [g - gamma for g in rows]
    P = _matrix(alg, rows, cols, p_entries, gamma)
    Q = _matrix(alg, cols, rows, q_entries, None if gamma is None else -gamma)
    return (Q, P) if rng.random() < 0.2 else (P, Q)


@pytest.mark.parametrize("family", _FAMILIES)
def test_certified_probes_have_inverse_square_blocks(family):
    # pi is a ring map of every classical preset, so a probe refuses only a
    # shift across blocks, and certifies exactly when the blocks invert
    rng = random.Random(f"blocks {family}")
    certified = 0
    for n, kind, shift in itertools.product((1, 2, 3), ("total", "super", "eps"), (False, True)):
        alg = classical_limit(build_noa(family, n))
        for _ in range(8):
            P, Q = _random_pair(rng, alg, shift)
            assert invertible_pair(P, Q)
            report = ibn_probe(P, Q, kind)
            assert report.ok == _blocks_invert(P, Q, kind), (str(P), str(Q), kind)
            assert report.ok or report.reason.endswith("crosses blocks")
            certified += report.ok
    assert certified > 72
