"""Tests of the benchmark's oracles and output checks.

    python3 -m pytest perfbench

Hand values fix the oracles; corrupted outputs must be rejected by the
checks.  The last test compares the oracle with epsalg on random words
when the source tree is importable.
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import oracle as O
import workloads

BOSON_CUBE = "ad1^3*a1^3 + 9*h*ad1^2*a1^2 + 18*h^2*ad1*a1 + 6*h^3"


def nf(text: str, family: str, n: int) -> dict:
    return O.normal_order(O.parse(text), family, n)


# ------------------------------------------------------------------- oracle


def test_wick_hand_values():
    assert nf("a1^3*ad1^3", "c", 1) == O.parse(BOSON_CUBE)
    assert nf("a1*ad1", "c", 1) == O.parse("ad1*a1 + h")
    assert nf("a1^2*ad1", "c", 1) == O.parse("ad1*a1^2 + 2*h*a1")


def test_fermion_table_hand_values():
    assert nf("a1*ad1", "a", 1) == O.parse("h - ad1*a1")
    assert nf("a1*a1", "a", 1) == {}
    assert nf("ad1*a1*ad1", "a", 1) == O.parse("h*ad1")
    assert nf("a1*ad1*a1", "a'", 1) == O.parse("h*a1")


def test_exchange_signs_between_modes():
    assert nf("a2*a1", "a", 2) == O.parse("-a1*a2")
    assert nf("a2*a1", "a'", 2) == O.parse("a1*a2")
    assert nf("a1*ad2", "c", 2) == O.parse("ad2*a1")
    assert nf("a1*ad2", "c'", 2) == O.parse("-ad2*a1")
    # a1 ad1 contracts to h, after which ad2 passes a1 once: -1 in family a
    assert nf("a1*ad1*a1*ad2", "a", 2) == O.parse("-h*ad2*a1")


def test_parser_reads_field_coefficients():
    value = O.parse("(2 + I)*h^2*ad1 - 1/2*r2 + I*r2*a1")
    assert value[("ad1",)] == {(2, 0): Fraction(2), (2, 1): Fraction(1)}
    assert value[()] == {(0, 2): Fraction(-1, 2)}
    assert value[("a1",)] == {(0, 3): Fraction(1)}
    assert O.parse("I*I") == O.parse("-1")
    assert O.parse("r2*r2") == O.parse("2")
    assert O.parse("I*r2*I*r2") == O.parse("-2")


def test_commutation_factors():
    e1, e2 = (1, 0), (0, 1)
    assert O.eps("a", e1, e2) == -1 and O.eps("a", e1, e1) == -1
    assert O.eps("a'", e1, e2) == 1 and O.eps("a'", e1, e1) == -1
    assert O.eps("c", e1, e1) == 1
    assert O.eps("c'", e1, e2) == -1 and O.eps("c'", e1, e1) == 1


def test_brackets():
    a, ad = O.parse("a1"), O.parse("ad1")
    assert O.poisson(a, ad, "c", 1) == O.parse("1")
    assert O.boson_poisson_agrees(a, ad, O.parse("1"), 1)
    assert not O.boson_poisson_agrees(a, ad, O.parse("-1"), 1)
    assert O.eps_commutator(a, ad, "a", 1) == O.parse("h")
    assert O.mu(O.parse("a1^2"), O.parse("ad1^2"), "c", 1, 2) == O.parse("2")


def test_closed_forms():
    assert O.dimension("fermion:n=3") == 64
    assert O.dimension("pseudo-fermion:n=2") == 16
    assert O.dimension("excl:n=2") == 9
    assert O.dimension("excl-dual:n=3") == 16
    assert O.dimension("ext:n=4") == 16
    assert O.dimension("boson:n=1") is None
    assert len(O.overlap_words("a", 3)) == 56
    assert len(O.overlap_words("c", 3)) == 20
    assert O.profile_text("a", [(0, 0), (-1, 0)]) == "{(-1,0):1, (0,0):1} (even 1 | odd 1, total 2)"
    assert O.profile_text("c", [(0, 0), (-1, 0)]) == "{(-1,0):1, (0,0):1} (even 2 | odd 0, total 2)"


# ------------------------------------------------------------------- checks


def _flip_first_sign(text: str) -> str:
    return text.replace(" + ", " - ", 1)


def test_normal_form_check_rejects_a_flipped_sign():
    op = {"kind": "normalize", "preset": "boson:n=1", "text": "a1^3*ad1^3"}
    assert checks.check(op, {"nf": BOSON_CUBE}) == []
    assert checks.check(op, {"nf": _flip_first_sign(BOSON_CUBE)}) != []


def _law_output(comm: str, bracket: str) -> dict:
    return {
        "x": "a1", "y": "ad1", "z": "ad1",
        "poisson_failures": [], "lie_failures": [], "extra_failures": [],
        "comm": comm, "bracket": bracket, "first_order": True,
        "residuals": ["0"] * 4,
    }


def test_law_check_rejects_wrong_values():
    op = {"kind": "laws", "preset": "boson:n=1"}
    assert checks.check(op, _law_output("h", "1")) == []
    assert checks.check(op, _law_output("-h", "-1")) != []
    assert checks.check(op, _law_output("h", "-1")) != []
    broken = dict(_law_output("h", "1"), residuals=["0", "h*a1", "0", "0"])
    assert checks.check(op, broken) != []
    failing = dict(_law_output("h", "1"), lie_failures=["triple 0: Jacobi residual a1"])
    assert checks.check(op, failing) != []


def _cli(argv, stdout, machine=False, rc=0, **extra):
    op = {"kind": "cli", "argv": argv, "machine": machine, **extra}
    return checks.check(op, {"rc": rc, "stdout": stdout, "stderr": ""})


def test_cli_checks_accept_right_and_reject_corrupted_output():
    argv = ["normalize", "--alg", "boson:n=1", "a1^3*ad1^3"]
    assert _cli(argv, BOSON_CUBE + "\n") == []
    assert _cli(argv, _flip_first_sign(BOSON_CUBE) + "\n") != []
    record = {"suite": "normalize", "case": argv[-1], "status": "pass", "payload": BOSON_CUBE}
    machine_argv = argv[:1] + ["--format", "machine"] + argv[1:]
    assert _cli(machine_argv, json.dumps(record) + "\n", machine=True) == []
    assert _cli(argv, BOSON_CUBE + "\n", rc=1) != []

    assert _cli(["dim", "--alg", "excl:n=2"], "9\n") == []
    assert _cli(["dim", "--alg", "excl:n=2"], "8\n") != []


def _confluence_text(words: list, drop: int = 0) -> str:
    lines = [f"[pass] confluence/overlap {'*'.join(w)}" for w in words[drop:]]
    lines.append(f"[pass] confluence/ambiguities: {len(words)} examined")
    return "\n".join(lines + [f"confluence: {len(lines)}/{len(lines)} checks passed"]) + "\n"


def test_confluence_check_needs_every_overlap():
    words = O.overlap_words("c", 2)
    argv = ["confluence", "--alg", "boson:n=2"]
    assert _cli(argv, _confluence_text(words)) == []
    assert _cli(argv, _confluence_text(words, drop=1)) != []


def test_verify_check_rejects_a_failed_record():
    argv = ["verify", "--suite", "lie", "--alg", "fermion:n=2", "--samples", "10"]
    good = "[pass] verify-lie/lie-axioms: 10 triples\nverify-lie: 1/1 checks passed\n"
    assert _cli(argv, good) == []
    assert _cli(argv, good.replace("10 triples", "0 triples")) != []
    bad = "[FAIL] verify-lie/triple: triple 0: Jacobi residual a1\n" + good.replace("1/1", "1/2")
    assert _cli(argv, bad) != []


def test_rank_check_recomputes_profiles():
    pair = workloads._rank_pair(random.Random(1), "fermion:n=2", 2)
    rows = [tuple(g) for g in pair["P"]["rows"]]
    profile = O.profile_text("a", rows)
    text = f"{profile}\n{profile}\n[pass] rank/probe: profiles agree through the augmentation\nrank: 3/3 checks passed\n"
    assert _cli(["rank", "--file"], text, pair=pair) == []
    wrong = text.replace("total 2", "total 3", 1)
    assert _cli(["rank", "--file"], wrong, pair=pair) != []


# ----------------------------------------------------------- against epsalg


def test_oracle_matches_epsalg_on_random_words():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    epsalg = pytest.importorskip("epsalg")
    rng = random.Random(7)
    for preset, family in O.FAMILY_OF_PRESET.items():
        for n in (1, 2, 3):
            alg = epsalg.build_noa(preset, n)
            letters = [f"ad{i}" for i in range(1, n + 1)] + [f"a{i}" for i in range(1, n + 1)]
            for _ in range(15):
                text = "*".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                got = O.parse(str(alg.normalize(alg.parse(text))))
                assert got == nf(text, family, n), (preset, n, text)
