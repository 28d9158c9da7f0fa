"""End-to-end runs of the command line interface."""
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import epsalg
from epsalg import Element, H
from epsalg.cli import MAX_SAMPLES, run


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_normalize(capsys):
    assert run(["normalize", "--alg", "boson:n=1", "a1*ad1*ad1"]) == 0
    assert _lines(capsys) == ["ad1^2*a1 + 2*h*ad1"]


def test_normalize_accepts_function_calls(capsys):
    assert run(["normalize", "--alg", "boson:n=1", "J(a1)"]) == 0
    assert _lines(capsys) == ["ad1"]
    assert run(["normalize", "--alg", "fermion:n=1", "comm(a1, ad1)"]) == 0
    assert _lines(capsys) == ["h"]
    # pb brackets in the classical limit, so a pinned h gives the same answer.
    for alg in ("boson:n=1", "boson:n=1,h=0"):
        assert run(["normalize", "--alg", alg, "pb(a1, ad1)"]) == 0
        assert _lines(capsys) == ["1"]


def test_bracket(capsys):
    assert run(["bracket", "--alg", "fermion:n=1", "a1", "ad1"]) == 0
    assert _lines(capsys) == ["h"]
    assert run(["bracket", "--kind", "plain", "--alg", "fermion:n=1", "a1", "ad1"]) == 0
    assert _lines(capsys) == ["-2*ad1*a1 + h"]
    assert run(["bracket", "--kind", "poisson", "--alg", "boson:n=1", "a1", "ad1"]) == 0
    assert _lines(capsys) == ["1"]


def test_mu(capsys):
    assert run(["mu", "--alg", "boson:n=1", "--order", "1", "a1", "ad1"]) == 0
    assert _lines(capsys) == ["1"]
    assert run(["mu", "--alg", "boson:n=1", "--order", "0", "a1", "ad1"]) == 0
    assert _lines(capsys) == ["ad1*a1"]


def test_a_failing_oscillator_suite_names_what_failed(capsys):
    # fermion:n=1 squares to zero, so {p_1, p_1} = 1 and {p_1, q_1} = 0: the
    # delta pattern fails at its first bracket, and c cannot be read.
    assert run(["verify", "--suite", "oscillator", "--alg", "fermion:n=1"]) == 1
    assert _lines(capsys)[-3:] == [
        "[FAIL] verify-oscillator/delta-pattern: p_i and q_i mix the grades -p_i and p_i; "
        "brackets expand componentwise; first off the delta pattern: {p_1, p_1} = 1, not 0",
        "[FAIL] verify-oscillator/constants: c = unread, c' = I",
        "verify-oscillator: 5/7 checks passed",
    ]


def test_pinned_h_presets_expand_their_symbolic_h_algebra(capsys):
    assert run(["mu", "--alg", "boson:n=1,h=2", "--order", "0", "a1", "ad1"]) == 0
    assert _lines(capsys) == ["ad1*a1"]
    assert run(["bracket", "--kind", "poisson", "--alg", "boson:n=1,h=2", "a1", "ad1"]) == 0
    assert _lines(capsys) == ["1"]
    assert run(["verify", "--suite", "poisson", "--alg", "boson:n=1,h=2", "--samples", "8"]) == 0
    pinned = _lines(capsys)
    assert run(["verify", "--suite", "poisson", "--alg", "boson:n=1", "--samples", "8"]) == 0
    assert pinned == _lines(capsys)
    assert run(["verify", "--suite", "oscillator", "--alg", "boson:n=1,h=2"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("h", ["2*h", "h^2", "h^2 + h"])
def test_a_preset_with_a_non_constant_h_expands_its_own_deformation(capsys, h):
    preset = f"boson:n=1,h={h}"
    exp = epsalg.DeformationExpansion(epsalg.parse_preset(preset))
    x, y = exp.classical.parse("a1"), exp.classical.parse("ad1")
    for order in range(3):
        assert run(["mu", "--alg", preset, "--order", str(order), "a1", "ad1"]) == 0
        assert _lines(capsys) == [str(exp.mu_n(x, y, order))]
    assert run(["bracket", "--kind", "poisson", "--alg", preset, "a1", "ad1"]) == 0
    ctx = epsalg.BracketContext.classical(exp)
    assert _lines(capsys) == [str(epsalg.poisson_bracket(ctx, x, y))]


def test_a_preset_whose_h_has_a_constant_term_has_no_expansion(capsys):
    assert run(["verify", "--suite", "deformation", "--alg", "boson:n=1,h=h+1"]) == 2
    assert capsys.readouterr() == ("", "error: boson:n=1,h=h + 1: h = h + 1 has a non-zero "
                                   "constant term, so mu_0 would not be the classical product\n")


def test_confluence(capsys):
    assert run(["confluence", "--alg", "excl:n=2"]) == 0
    out = _lines(capsys)
    assert any("ambiguities" in line and "examined" in line for line in out)
    assert out[-1].startswith("confluence: ")
    assert "FAIL" not in "\n".join(out)


def test_dim(capsys):
    assert run(["dim", "--alg", "excl:n=2"]) == 0
    assert _lines(capsys) == ["9"]
    assert run(["dim", "--alg", "boson:n=1", "--maxlen", "3"]) == 0
    assert _lines(capsys) == ["10 words (truncated at length 3)"]
    assert run(["dim", "--alg", "ext:n=3", "--maxlen", "3"]) == 0
    assert _lines(capsys) == ["8 words (complete)"]


def test_dim_refuses_to_guess_unbounded(capsys):
    assert run(["dim", "--alg", "boson:n=1"]) == 1
    assert "use --maxlen" in capsys.readouterr().out


def test_rank_pair(tmp_path, capsys):
    data = {
        "alg": "cex",
        "P": {"rows": [[1, 0]], "cols": [[0, 1]], "entries": [["X*y"]]},
        "Q": {"rows": [[0, 1]], "cols": [[1, 0]], "entries": [["Y*x"]]},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    assert run(["rank", "--file", str(path)]) == 1
    out = capsys.readouterr().out
    assert "{(1,0):1} (even 1 | odd 0, total 1)" in out
    assert "{(0,1):1} (even 1 | odd 0, total 1)" in out
    assert "augmentation not multiplicative" in out


def test_rank_single_matrix(tmp_path, capsys):
    data = {
        "alg": "fermion:n=2,h=0",
        "rows": [[0, 0], [1, 0]],
        "cols": [[0, 0], [1, 0]],
        "entries": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(data))
    assert run(["rank", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "total 2" in out


def test_rank_builds_one_bracket_context_for_all_cells(tmp_path, monkeypatch, capsys):
    built = []
    quantum = epsalg.BracketContext.quantum
    monkeypatch.setattr(epsalg.BracketContext, "quantum",
                        staticmethod(lambda alg: built.append(alg) or quantum(alg)))
    data = {
        "alg": "fermion:n=2,h=0",
        "rows": [[0, 0], [1, 0]],
        "cols": [[0, 0], [1, 0]],
        "entries": [["comm(a1, ad1) + 1", "0"], ["0", "comm(a2, ad2) + 1"]],
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(data))
    assert run(["rank", "--file", str(path)]) == 0
    assert "total 2" in capsys.readouterr().out
    assert len(built) == 1


def test_rank_needs_an_algebra(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": [], "cols": [], "entries": []}))
    assert run(["rank", "--file", str(path)]) == 2
    assert "no algebra" in capsys.readouterr().err
    assert run(["rank", "--family", "boson", "--n", "2", "--file", str(path)]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --family boson --n 2\n"


@pytest.mark.parametrize("h", ["I", "1 + I"])
def test_h_outside_the_tau_fixed_field_is_a_one_line_error(h, capsys):
    assert run(["normalize", "--alg", f"boson:n=1,h={h}", "a1*ad1"]) == 2
    assert capsys.readouterr() == ("", f"error: h = {h} is not tau-fixed\n")
    assert run(["normalize", "--alg", "boson:n=1,h=I*h", "a1*ad1"]) == 2
    assert capsys.readouterr() == ("", "error: h = I*h is not tau-fixed\n")


def test_rank_refuses_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert run(["rank", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --file nests its JSON too deeply to read\n"


_LISTING = [
    ("fermion", "fermion:n=2            type a, anticommuting modes, quantum unless h=0"),
    ("pseudo-fermion", "pseudo-fermion:n=2     type a', fermionic squares with commuting modes"),
    ("excl", "excl:n=2               type b, exclusion algebra, one joint occupation"),
    ("excl-dual", "excl-dual:n=2          type b', mirror exclusion algebra"),
    ("boson", "boson:n=2              type c, commuting oscillator modes"),
    ("pseudo-boson",
     "pseudo-boson:n=2       type c', bosonic relations with anticommuting modes"),
    ("qplane", "qplane:2               two-generator quadratic algebra, xy = q yx"),
    ("cex", "cex                    localized Z2xZ2 example separating graded from total rank"),
    ("ext", "ext:2                  epsilon-exterior algebra on n even generators"),
]


def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for _, line in _LISTING)
    assert run(["presets", "--format", "machine"]) == 0
    assert capsys.readouterr().out == "".join(
        json.dumps({"suite": "presets", "case": name, "status": "pass", "payload": line}) + "\n"
        for name, line in _LISTING
    )
    assert [name for name, _ in _LISTING] == list(epsalg.PRESET_NAMES)
    for name, line in _LISTING:
        sample = line.split()[0]
        assert sample.partition(":")[0] == name
        assert epsalg.parse_preset(sample).certified_by is not None


@pytest.mark.parametrize(
    "suite,alg",
    [
        ("factor", "fermion:n=2"),
        ("lie", "pseudo-boson:n=2"),
        ("poisson", "boson:n=2"),
        ("deformation", "excl-dual:n=2"),
        ("noa", "boson:n=2"),
        ("oscillator", "boson:n=2"),
    ],
)
def test_verify_suites_pass(suite, alg, capsys):
    code = run(["verify", "--suite", suite, "--alg", alg, "--samples", "8"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")


@pytest.mark.parametrize("alg", ["qplane:2", "cex", "boson:n=1", "fermion:n=2"])
def test_factor_suite_ends_on_small_grade_groups(alg):
    # The box [-3,3]^dim holds fewer than the default 50 grades here; a child
    # process with a timeout turns a sampling loop that never ends into a failure.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsalg.__file__)))
    code = "import sys; from epsalg.cli import run; sys.exit(run(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--suite", "factor", "--alg", alg],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "sample grades" in proc.stdout


def test_machine_format(capsys):
    assert run(["verify", "--suite", "factor", "--alg", "fermion:n=1",
                "--format", "machine"]) == 0
    for line in _lines(capsys):
        record = json.loads(line)
        assert set(record) == {"suite", "case", "status", "payload"}
        assert record["status"] in ("pass", "fail")
        assert record["suite"] == "verify-factor"


def test_usage_errors(capsys):
    assert run(["normalize", "a1"]) == 2
    assert capsys.readouterr().err == "error: pick an algebra with --alg PRESET\n"
    assert run(["normalize", "--alg", "nonsense:1", "a1"]) == 2
    assert run(["normalize", "--alg", "boson:n=1", "a1 ** ad1"]) == 2
    assert "offset 4" in capsys.readouterr().err
    assert run(["normalize", "--alg", "boson:n=1", "zz"]) == 2
    assert run(["mu", "--alg", "qplane:2", "--order", "0", "x", "y"]) == 2
    assert "no deformation expansion" in capsys.readouterr().err
    assert run(["normalize", "--alg", "qplane:2", "pb(x, y)"]) == 2
    assert capsys.readouterr() == ("", "error: qplane:q=2 has no deformation expansion\n")
    assert run(["rank", "--file", "/does/not/exist.json"]) == 2


def test_argparse_exits_are_mapped(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    capsys.readouterr()
    assert run(["--help"]) == 0
    assert "normalize" in capsys.readouterr().out


def _child(*argv, timeout=10):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsalg.__file__)))
    code = "import sys; from epsalg.cli import run; sys.exit(run(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


@pytest.mark.parametrize("alg", ["boson:n=2", "boson:n=3"])
def test_dim_detects_infinite_algebras_from_left_sides(alg):
    # A child process with a timeout turns an enumeration of the infinite
    # basis into a failure instead of a hung suite.
    proc = _child("dim", "--alg", alg, "--format", "machine")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    (record,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert record["status"] == "fail" and "use --maxlen" in record["payload"]


def test_large_normal_ordering_is_the_wick_sum():
    # a^n ad^n = sum_j C(n,j)^2 j! h^j ad^(n-j) a^(n-j) for [a, ad] = h.
    alg = epsalg.parse_preset("boson:n=1")
    a, ad = alg.parse("a1"), alg.parse("ad1")
    want = Element.zero()
    for j in range(31):
        weight = math.comb(30, j) ** 2 * math.factorial(j)
        want = want + ad ** (30 - j) * a ** (30 - j) * weight * H**j
    proc = _child("normalize", "--alg", "boson:n=1", "a1^30*ad1^30")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{want}\n"


def test_high_power_of_a_word_is_prompt():
    proc = _child("normalize", "--alg", "boson:n=1", "a1^100000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a1^100000\n"


def test_power_beyond_a_million_words_is_a_one_line_error():
    proc = _child("normalize", "--alg", "boson:n=1", "(a1+ad1)^40")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "10**6 words" in proc.stderr


def test_power_beyond_a_million_letters_is_a_one_line_error():
    proc = _child("normalize", "--alg", "boson:n=1", "a1^2000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "10**6 letters" in proc.stderr


def test_product_beyond_a_million_letters_is_a_one_line_error():
    proc = _child("normalize", "--alg", "boson:n=1", "a1^999999*a1^2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: (999999-letter word)*(2-letter word) exceeds 10**6 letters\n"


def test_power_beyond_a_million_h_degrees_is_a_one_line_error():
    # Without the budget h^2000000 builds 2,000,001 coefficients for seconds;
    # the child's timeout turns a budget that does not hold into a failure.
    proc = _child("normalize", "--alg", "boson:n=1", "h^2000000", timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "h-degree 10**6" in proc.stderr


def test_power_beyond_a_million_bits_is_a_one_line_error(capsys):
    assert run(["normalize", "--alg", "boson:n=1", "2^1000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "10**6 bits" in err


def test_power_beyond_its_coefficient_work_is_a_one_line_error():
    # (1+h)^3000 squares dense h-polynomials for seconds before the budget;
    # the child's timeout turns a budget that does not hold into a failure.
    proc = _child("normalize", "--alg", "boson:n=1", "(1+h)^3000", timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "coefficient work" in proc.stderr
    proc = _child("normalize", "--alg", "boson:n=1", "(1+h)^300", timeout=5)
    assert proc.returncode == 0, proc.stderr
    terms = [f"{math.comb(300, k)}*h^{k}" for k in range(299, 1, -1)]
    assert proc.stdout == f"(h^300 + {' + '.join(terms)} + 300*h + 1)\n"


def test_long_words_answer_promptly():
    # Rewriting a1^10000*ad1 moves ad1 across 10,000 letters; a reducer that
    # rescans the word from its start at every step takes about a minute.
    proc = _child("normalize", "--alg", "boson:n=1", "a1^10000*ad1", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ad1*a1^10000 + 10000*h*a1^9999\n"


def test_numbers_past_the_digit_limit_are_one_line_errors(capsys):
    # 2^14300 has 4,305 digits and 2^14000 has 4,215; the interpreter's own
    # limit would end the first in a message naming a Python setting.
    for text, why in [
        ("2^14300", "more than 4300 digits to print"),
        ("(2^100000)/(3^100000)", "more than 4300 digits to print"),
        ("1" * 4301 + "*a1", "integer literal with more than 4300 digits"),
        ("a1^" + "1" * 4301, "integer literal with more than 4300 digits"),
    ]:
        assert run(["normalize", "--alg", "boson:n=1", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert why in err and "sys." not in err
    assert run(["normalize", "--alg", "boson:n=1", "2^14000*a1 + " + "9" * 4300]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"{2**14000}*a1 + {'9' * 4300}"


@pytest.mark.parametrize("digit", ["²", "٣"], ids=["superscript-two", "arabic-indic-three"])
def test_digits_are_ascii_only(digit, capsys):
    # Both are digits to str.isdigit(): the first used to end in int()'s own
    # message, the second was read as 3.
    assert run(["normalize", "--alg", "boson:n=1", f"{digit}*a1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unexpected character {digit!r} (offset 0)\n"


_NOT_ASCII_DIGITS = ["\u0663", "\u00b2", "1_0", "+2", "-1", "abc"]


@pytest.mark.parametrize(
    "argv, value",
    [(["--alg", f"boson:n={v}"], v) for v in _NOT_ASCII_DIGITS + [""]]
    + [(["--alg", f"boson:{v}"], v) for v in _NOT_ASCII_DIGITS]
    + [(["--alg", f"ext:n={v}"], v) for v in _NOT_ASCII_DIGITS],
)
def test_preset_numbers_are_ascii_digits(argv, value, capsys):
    # int() reads an Arabic-Indic three as 3, takes 1_0, +2 and spaces, and
    # refuses a superscript two with a message of its own.
    assert run(["dim", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.endswith(f"n must be written in the digits 0-9, got {value!r}\n")


def test_ascii_preset_numbers_still_read(capsys):
    for preset in ("excl:n=3", "excl:3", "excl: n = 3 ", "excl:n=03"):
        assert run(["dim", "--alg", preset]) == 0
        assert _lines(capsys) == ["16"]


@pytest.mark.parametrize(
    "preset, chunk",
    [
        ("qplane:2,q=3", "q=3"),
        ("boson:2,n=1", "n=1"),
        ("boson:n=2,n=1", "n=1"),
        ("boson:h=1,h=0", "h=0"),
        ("ext:factor=eps_c,factor=eps_a", "factor=eps_a"),
        ("boson:n=2,foo", "foo"),
        ("boson:n=2,", ""),
        ("boson:=2", "=2"),
        ("boson:h=0,2", "2"),
        ("cex:2", "2"),
    ],
)
def test_preset_strings_take_each_parameter_once(preset, chunk, capsys):
    # These used to drop a bare first value, keep the last of a repeated key
    # or accept a stray chunk.
    assert run(["normalize", "--alg", preset, "x"]) == 2
    out, err = capsys.readouterr()
    name = preset.partition(":")[0]
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: preset {name!r} ") and err.endswith(f"{chunk!r}\n")


def test_preset_strings_still_read_bare_and_keyed_values(capsys):
    for preset, want in [("qplane:2", "2*y*x"), ("qplane:q=3", "3*y*x"), ("qplane: 3 ", "3*y*x")]:
        assert run(["normalize", "--alg", preset, "x*y"]) == 0
        assert _lines(capsys) == [want]
    for preset, want in [("boson:2,h=0", "ad1*a1"), ("boson:h=2,n=2", "ad1*a1 + 2"),
                         ("boson:n=1,h=2*h", "ad1*a1 + 2*h")]:
        assert run(["normalize", "--alg", preset, "a1*ad1"]) == 0
        assert _lines(capsys) == [want]
    assert run(["dim", "--alg", "ext:2,factor=eps_c"]) == 0
    assert _lines(capsys) == ["4"]


@pytest.mark.parametrize("value", ["\u0663", "\u00b9", "1_0", "+3", " 3", "3 ", "", "-"])
@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--alg", "boson:n=1", "--maxlen"],
        ["mu", "--alg", "boson:n=1", "a1", "ad1", "--order"],
        ["verify", "--suite", "lie", "--alg", "fermion:n=1", "--samples"],
        ["verify", "--suite", "lie", "--alg", "fermion:n=1", "--seed"],
    ],
    ids=["maxlen", "order", "samples", "seed"],
)
def test_numeric_flags_are_ascii_digits(argv, value, capsys):
    # int() reads an Arabic-Indic three as 3, takes 1_0, +3 and spaces, and
    # refuses a superscript one with argparse's own message.
    assert run([*argv, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == f"error: argument {argv[-1]}: expected an integer in the digits 0-9, got {value!r}\n"


def test_numeric_flags_refuse_more_digits_than_can_be_read(capsys):
    assert run(["dim", "--alg", "boson:n=1", "--maxlen", "9" * 5000]) == 2
    assert capsys.readouterr().err == "error: argument --maxlen: more than 4300 digits\n"
    assert run(["dim", "--alg", "boson:n=" + "9" * 5000]) == 2
    assert capsys.readouterr().err == "error: n has more than 4300 digits\n"


def test_ascii_numeric_flags_still_read(capsys):
    assert run(["dim", "--alg", "boson:n=1", "--maxlen", "03"]) == 0
    assert _lines(capsys) == ["10 words (truncated at length 3)"]
    assert run(["verify", "--suite", "lie", "--alg", "fermion:n=1", "--samples", "2",
                "--seed", "-3", "--maxlen", "1"]) == 0
    assert _lines(capsys)[-1] == "verify-lie: 1/1 checks passed"
    assert run(["mu", "--alg", "boson:n=1", "--order", "1", "a1", "ad1"]) == 0
    assert _lines(capsys) == ["1"]


def test_samples_beyond_the_budget_are_refused_at_once():
    # Ten million samples used to run for minutes; the refusal comes before
    # any algebra is built or sampled.
    t0 = time.monotonic()
    proc = _child("verify", "--suite", "lie", "--alg", "fermion:n=1", "--maxlen", "1",
                  "--samples", "10000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: --samples must be at most 10000, got 10000000\n"
    assert time.monotonic() - t0 < 5
    assert MAX_SAMPLES == 10**4


@pytest.mark.parametrize("module", ["epsalg", "epsalg.cli"])
def test_python_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsalg.__file__)))
    argv = [sys.executable, "-m", module, "normalize", "--alg", "boson:n=1"]
    proc = subprocess.run([*argv, "a1*ad1"], capture_output=True, text=True, timeout=10,
                          env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ad1*a1 + h\n", "")
    proc = subprocess.run([*argv, "a1*"], capture_output=True, text=True, timeout=10, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: unexpected token 'end' (offset 3)\n"
    proc = subprocess.run([sys.executable, "-m", module, "presets"], capture_output=True,
                          text=True, timeout=10, env=env)
    listing = "".join(f"{line}\n" for _, line in _LISTING)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, listing, "")


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # Each command is a cold process; both modules cost start-up time.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsalg.__file__)))
    code = (
        "import sys; before = set(sys.modules); import epsalg.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "epsalg.cli" in added
    assert not added & {"dataclasses", "inspect"}


# Every command runs these; the other library modules stay unloaded until used.
_CORE = {"cli", "freealg", "grading", "presets", "rewrite", "scalars"}
_IDENTITY = {"alg": "fermion:n=2,h=0", "rows": [[0, 0], [1, 0]], "cols": [[0, 0], [1, 0]],
         "entries": [["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize(
    "argv,fmt,extra",
    [
        (["presets"], "text", set()),
        (["presets"], "machine", set()),
        (["confluence", "--alg", "fermion:n=2"], "text", set()),
        (["dim", "--alg", "fermion:n=2"], "text", set()),
        (["verify", "--suite", "factor", "--alg", "fermion:n=2"], "text", set()),
        (["normalize", "--alg", "boson:n=1", "a1*ad1"], "text", {"exprparse"}),
        (["normalize", "--alg", "boson:n=1", "a1*ad1"], "machine", {"exprparse"}),
        (["mu", "--alg", "boson:n=1", "--order", "1", "a1", "ad1"], "text",
         {"exprparse", "deformation"}),
        (["rank", "--file"], "text", {"exprparse", "matrices"}),
        (["verify", "--suite", "lie", "--alg", "fermion:n=2"], "text",
         {"brackets", "deformation"}),
        (["bracket", "--kind", "poisson", "--alg", "boson:n=1", "a1", "ad1"], "text",
         {"exprparse", "brackets", "deformation"}),
    ],
)
def test_each_command_runs_only_the_modules_it_uses(argv, fmt, extra, tmp_path):
    # Nothing writes bytecode here, so a module that runs is compiled on every
    # start.  A lazily registered module that has not run is not a plain
    # ModuleType yet.  `fractions` would also load `decimal` and `numbers`.
    if argv[0] == "rank":
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(_IDENTITY))
        argv = [*argv, str(path)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsalg.__file__)))
    code = (
        "import sys, types; from epsalg.cli import run; rc = run(sys.argv[1:]); "
        "ran = [k[7:] for k, m in sys.modules.items() "
        "if k.startswith('epsalg.') and type(m) is types.ModuleType]; "
        "print(*sorted(ran), *(m in sys.modules for m in ('json', 'fractions', 'decimal')), "
        "file=sys.stderr); sys.exit(rc)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--format", fmt],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *ran, json_loaded, fractions_loaded, decimal_loaded = proc.stderr.split()
    assert set(ran) == _CORE | extra
    assert json_loaded == str(fmt == "machine" or argv[0] == "rank")
    assert fractions_loaded == decimal_loaded == "False"


def test_dim_maxlen_beyond_a_million_words_is_a_one_line_error():
    # boson:n=2 has about L^4/24 words up to length L; counting them instead
    # of listing them makes the refusal prompt.
    for argv in (["dim", "--alg", "boson:n=2", "--maxlen", "200"],
                 ["verify", "--suite", "poisson", "--alg", "boson:n=2", "--maxlen", "200"]):
        proc = _child(*argv, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "10**6 irreducible words" in proc.stderr
    proc = _child("dim", "--alg", "boson:n=2", "--maxlen", "45", timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "211876 words (truncated at length 45)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--alg", "boson:n=17"],
        ["dim", "--alg", "ext:40"],
        ["dim", "--alg", "fermion:n=17"],
        ["dim", "--alg", "excl:n=" + "9" * 40],
    ],
)
def test_more_than_sixteen_modes_is_a_one_line_error(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "n <= 16" in err


def test_expressions_may_start_with_a_minus(capsys):
    assert run(["normalize", "--alg", "boson:n=1", "-a1"]) == 0
    assert _lines(capsys) == ["-a1"]
    assert run(["bracket", "--alg", "boson:n=1", "-a1", "ad1"]) == 0
    assert _lines(capsys) == ["-h"]
    assert run(["normalize", "--alg", "boson:n=1,h=-1/2", "a1*ad1"]) == 0
    assert _lines(capsys) == ["ad1*a1 - 1/2"]
    assert run(["normalize", "--alg", "boson:n=1", "-h"]) == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--alg", "boson:n=1", "--bogus", "a1"],
        ["normalize", "--alg", "boson:n=1"],
        ["normalize", "--alg", "boson:n=1", "--format", "xml", "a1"],
        ["bracket", "--alg", "boson:n=1", "--kind", "nope", "a1", "ad1"],
        ["normalize", "--alg", "boson:n=1", "-a1", "extra"],
        ["no-such-command"],
        [],
        ["normalize", "--alg", "boson:n=1", "--family", "fermion", "--n", "1", "a1*a1"],
        ["normalize", "--alg", "boson:n=1", "--h", "0", "a1*ad1"],
        ["rank", "--family", "boson", "--n", "2", "--file", "f.json"],
        ["dim", "--alg", "boson:n=1", "--max", "2"],
        ["dim", "--al", "boson:n=1"],
        ["verify", "--suite", "confluence", "--alg", "fermion:n=1"],
        ["rank", "--alg", "cex", "--file", "f.json"],
    ],
    ids=["unknown-flag", "missing-argument", "bad-choice", "bad-kind", "extra-argument",
         "unknown-command", "no-command", "family-flags", "h-flag", "rank-family-flags",
         "abbreviated-flag", "abbreviated-alg", "confluence-suite", "rank-alg-flag"],
)
def test_argparse_errors_are_one_line(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command", ["normalize", "bracket", "mu", "confluence", "dim", "rank", "verify"]
)
def test_algebra_subcommands_take_only_alg(command, capsys):
    # A preset string is the one spelling of an algebra on the command line;
    # rank reads it from its file's "alg" key and from nowhere else.
    assert run([command, "--help"]) == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert ("--alg" in flags) == (command != "rank")
    assert not flags & {"--family", "--n", "--h"}


def test_step_budget_is_a_one_line_error(monkeypatch, capsys):
    system = epsalg.parse_preset("boson:n=1").system
    monkeypatch.setattr(system, "max_steps", 2)
    monkeypatch.setattr(system, "_nf", {})
    assert run(["normalize", "--alg", "boson:n=1", "a1^3*ad1^3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step budget") and err.count("\n") == 1


@pytest.mark.parametrize(
    "expr,want",
    [
        ("(" * 2000 + "a1" + ")" * 2000, "a1"),
        ("(" * 200 + "a1" + ")" * 200, "a1"),
        ("+".join(["a1"] * 3000), "3000*a1"),
        ("+".join(["a1"] * 500), "500*a1"),
        ("0" + "-" * 3001 + "a1", "-a1"),
        ("J(" * 1500 + "a1" + ")" * 1500, "a1"),
    ],
)
def test_deep_expressions(expr, want, capsys):
    assert run(["normalize", "--alg", "boson:n=1", expr]) == 0
    assert _lines(capsys) == [want]


_MATRIX = {"rows": [[0, 0]], "cols": [[0, 0]], "entries": [["1"]]}


@pytest.mark.parametrize(
    "argv,data,flag",
    [
        (["mu", "--alg", "boson:n=1", "--order", "-1", "a1", "ad1"], None, "--order"),
        (["verify", "--suite", "lie", "--alg", "boson:n=1", "--samples", "0"], None, "--samples"),
        (["verify", "--suite", "factor", "--alg", "boson:n=1", "--samples", "-5"], None, "--samples"),
        (["verify", "--suite", "deformation", "--alg", "boson:n=1", "--maxlen", "0"], None, "--maxlen"),
        (["dim", "--alg", "boson:n=1", "--maxlen", "-1"], None, "--maxlen"),
        (["verify", "--suite", "noa", "--alg", "ext:n=2"], None,
         "error: ext:n=2,factor=eps_c is not a number-operator algebra\n"),
        (["rank"], [_MATRIX], "--file"),
        (["rank"], {"P": _MATRIX, "alg": "cex"}, "'Q'"),
        (["rank"], {**_MATRIX, "alg": 5}, "'alg'"),
        (["rank"], {"rows": [], "entries": [], "alg": "cex"}, "'cols'"),
        (["rank"], {**_MATRIX, "rows": 5, "alg": "cex"}, "'rows'"),
        (["rank"], {**_MATRIX, "rows": [[0, "x"]], "alg": "cex"}, "grade"),
        (["rank"], {**_MATRIX, "entries": [[1]], "alg": "cex"}, "'entries'"),
    ],
)
def test_bad_values_exit_two_with_one_line(argv, data, flag, tmp_path, capsys):
    if data is not None:
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        argv = argv + ["--file", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err


@pytest.mark.parametrize("command", [["dim"], ["verify", "--suite", "lie"]])
def test_a_maxlen_of_more_than_a_million_words_is_refused(command, capsys):
    assert run(command + ["--alg", "boson:n=2", "--maxlen", "100"]) == 2
    assert capsys.readouterr() == (
        "", "error: --maxlen 100 admits more than 10**6 irreducible words\n"
    )


def test_smallest_valid_values_still_run(capsys):
    assert run(["mu", "--alg", "boson:n=1", "--order", "0", "a1", "ad1"]) == 0
    assert run(["verify", "--suite", "lie", "--alg", "boson:n=1", "--samples", "1"]) == 0
    assert run(["dim", "--alg", "boson:n=1", "--maxlen", "0"]) == 0
    assert _lines(capsys)[-1] == "1 words (truncated at length 0)"


# ------------------------------------------------------------------ fuzzing

# Valid presets use at most two modes, so a mutation that doubles a digit
# lands beyond the mode budget rather than on a slow certification.
_PRESETS = ["boson:n=2", "fermion:n=2", "excl:2", "excl-dual:n=2", "pseudo-boson:n=2",
            "pseudo-fermion:n=2,h=2", "qplane:2", "qplane:q=-2", "cex", "ext:n=2",
            "ext:2,factor=eps_a"]


def _mutate(text, pos, how, char):
    pos %= len(text)
    if how == "drop":
        return text[:pos] + text[pos + 1:]
    if how == "double":
        return text[:pos + 1] + text[pos:]
    return text[:pos] + char + text[pos + 1:]


_huge = st.one_of(st.integers(10**6 + 1, 10**40).map(str), st.just("9" * 5000))
_presets = st.one_of(
    st.sampled_from(_PRESETS),
    st.builds(_mutate, st.sampled_from(_PRESETS), st.integers(0, 30),
              st.sampled_from(["drop", "double", "replace"]), st.sampled_from(":,=-/x ")),
    st.builds("{}:n={}".format, st.sampled_from(["boson", "excl", "ext", "fermion"]),
              st.one_of(st.just("0"), st.integers(17, 10**30).map(str), _huge)),
)
# Expressions are either a few factors, each an atom with a power that is
# small or beyond every power budget, or tokens of the grammar joined by
# spaces, so that digits never fuse into a mid-sized exponent.
_atoms = ["a1", "ad1", "a2", "x", "y", "v1", "h", "I", "r2", "0", "2", "1/2", "(a1 + ad1)",
          "(1 + h)", "comm(a1, ad1)", "pb(a1, ad1)", "J(a1)"]
_factors = st.builds(
    "{}{}".format, st.sampled_from(_atoms),
    st.one_of(st.sampled_from(["", "^0", "^2"]), _huge.map("^{}".format)),
)
_exprs = st.one_of(
    st.builds("{}{}{}".format, _factors, st.sampled_from([" + ", " - ", "*", "/"]), _factors),
    _factors,
    st.lists(
        st.one_of(st.sampled_from(_atoms + ["+", "-", "*", "/", "^2", "(", ")", ",", "comm(",
                                            "\u00b2", "?"]),
                  _huge.map("^{}".format)),
        min_size=1, max_size=6,
    ).map(" ".join),
)
_algebra = _presets.map(lambda p: ["--alg", p])
_commands = st.one_of(
    st.builds(lambda e: ["normalize", e], _exprs),
    st.builds(lambda k, x, y: ["bracket", "--kind", k, x, y],
              st.sampled_from(["comm", "plain", "poisson"]), _exprs, _exprs),
    st.builds(lambda k, x, y: ["mu", "--order", k, x, y],
              st.sampled_from(["-1", "0", "1", "2"]), _exprs, _exprs),
    st.sampled_from([["dim"], ["dim", "--maxlen", "-1"], ["dim", "--maxlen", "2"]]),
    st.just(["confluence"]),
    st.builds(lambda n: ["verify", "--suite", "factor", "--samples", n],
              st.sampled_from(["0", "1", "3"])),
)


# capsys is read out after every example, so sharing it across examples is safe.
@settings(max_examples=60, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=_commands, algebra=_algebra)
def test_fuzzed_commands_end_in_a_result_or_a_one_line_error(capsys, command, algebra):
    code = run(command[:1] + algebra + command[1:])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in out + err
