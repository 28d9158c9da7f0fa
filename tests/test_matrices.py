"""Graded matrices, rank profiles, and the invariant-basis-number probe."""
import pytest

from epsalg import (
    Element,
    Grade,
    GradedMatrix,
    augmentation_violations,
    build_counterexample,
    build_noa,
    classical_limit,
    eps_c,
    gm_mul,
    ibn_probe,
    invertible_pair,
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
