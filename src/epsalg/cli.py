"""Command-line front end.

Exit codes: 0 success, 1 a check failed (unresolved ambiguity, falsified
axiom, refused probe), 2 bad usage or unparsable input.  With
--format machine every result line is a JSON object with keys
suite/case/status/payload, one per line, suitable for log scraping.
"""
from __future__ import annotations

import argparse
import random
import sys
from functools import cache

from . import brackets, deformation, exprparse, matrices, structure
from .freealg import Element
from .grading import Grade, verify_factor_axioms
from .presets import NOA_FAMILIES, PRESETS, Algebra, parse_preset, with_h
from .rewrite import RewriteError
from .scalars import MAX_DIGITS, H


class UsageError(ValueError):
    pass


# Irreducible words that `dim --maxlen` and `verify --maxlen` may admit.
MAX_BASIS_WORDS = 10**6

# Samples that `verify --samples` may draw.
MAX_SAMPLES = 10**4


# --------------------------------------------------------------------- output


class Report:
    """Prints each record as it comes and keeps only the two counts `finish` prints."""

    __slots__ = ("suite", "fmt", "passed", "total")

    def __init__(self, suite: str, fmt: str = "text"):
        self.suite = suite
        self.fmt = fmt
        self.passed = 0
        self.total = 0

    def add(self, case: str, ok: bool, payload: str = "") -> bool:
        self.passed += ok
        self.total += 1
        if self.fmt == "machine":
            self._record(case, ok, payload)
        else:
            mark = "pass" if ok else "FAIL"
            tail = f": {payload}" if payload else ""
            print(f"[{mark}] {self.suite}/{case}{tail}")
        return ok

    def result(self, case: str, payload: str):
        """A computed value rather than a pass/fail judgement."""
        if self.fmt == "machine":
            self.add(case, True, payload)
        else:
            self.passed += 1
            self.total += 1
            print(payload)

    def _record(self, case: str, ok: bool, payload: str):
        """One JSON line of --format machine."""
        import json

        line = {"suite": self.suite, "case": case, "status": "pass" if ok else "fail",
                "payload": payload}
        print(json.dumps(line))

    def finish(self) -> int:
        ok = self.passed == self.total
        summary = f"{self.passed}/{self.total} checks passed"
        if self.fmt == "machine":
            self._record("summary", ok, summary)
        else:
            print(f"{self.suite}: {summary}")
        return 0 if ok else 1


# ------------------------------------------------------------------- plumbing


def _at_least(flag: str, value: int, low: int):
    if value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")


def _refuse_large_basis(words: int, max_len: int):
    if words > MAX_BASIS_WORDS:
        raise UsageError(f"--maxlen {max_len} admits more than 10**6 irreducible words")


def _algebra_from_args(args) -> Algebra:
    if not args.alg:
        raise UsageError("pick an algebra with --alg PRESET")
    return parse_preset(args.alg)


def _expansion_for(alg: Algebra) -> deformation.DeformationExpansion:
    if alg.family not in NOA_FAMILIES:
        raise UsageError(f"{alg.label} has no deformation expansion")
    return deformation.DeformationExpansion(with_h(alg, H) if alg.h.is_constant() else alg)


def _parser(alg: Algebra):
    """Reads expressions over alg, with comm, pb and J as functions.

    Each bracket context is built by the first call that needs it and then
    kept for every expression this parser reads, so an expression without
    comm or pb never loads `brackets`.
    """

    @cache
    def quantum():
        return brackets.BracketContext.quantum(alg)

    @cache
    def classical():
        return brackets.BracketContext.classical(_expansion_for(alg))

    functions = {
        "comm": (2, lambda x, y: brackets.epsilon_commutator(quantum(), x, y)),
        "pb": (2, lambda x, y: brackets.poisson_bracket(classical(), x, y)),
        "J": (1, lambda x: structure.apply_J(alg, x)),
    }
    return lambda text: exprparse.element_from_text(text, alg, functions)


def _sample_grades(alg: Algebra, count: int, seed: int) -> list:
    """Generator grades, their sums, and random small integer combinations.

    Stops early when the box [-3,3]^dim, reduced by the moduli, holds fewer
    than count grades.
    """
    rng = random.Random(seed)
    base = [g.grade for g in alg.generators]
    zero = alg.zero_grade
    got = {zero}
    got.update(base)
    for g in base:
        for k in base:
            got.add(g + k)
    dim = len(zero.coords)
    box = 1
    for m in zero.moduli:
        box *= min(m, 7) if m else 7
    while len(got) < min(count, box):
        got.add(Grade(tuple(rng.randint(-3, 3) for _ in range(dim)), zero.moduli))
    return sorted(got, key=Grade.sort_key)


# ----------------------------------------------------------------- subcommands


def cmd_normalize(args) -> int:
    alg = _algebra_from_args(args)
    report = Report("normalize", args.format)
    result = alg.normalize(_parser(alg)(args.expr))
    report.result(args.expr, str(result))
    return 0


def cmd_bracket(args) -> int:
    alg = _algebra_from_args(args)
    parse = _parser(alg)
    x, y = parse(args.x), parse(args.y)
    if args.kind == "comm":
        value = brackets.epsilon_commutator(brackets.BracketContext.quantum(alg), x, y)
    elif args.kind == "plain":
        value = brackets.commutator(brackets.BracketContext.quantum(alg), x, y)
    else:
        ctx = brackets.BracketContext.classical(_expansion_for(alg))
        value = brackets.poisson_bracket(ctx, x, y)
    report = Report("bracket", args.format)
    report.result(f"{args.kind}({args.x}, {args.y})", str(value))
    return 0


def cmd_mu(args) -> int:
    _at_least("--order", args.order, 0)
    alg = _algebra_from_args(args)
    exp = _expansion_for(alg)
    parse = _parser(exp.classical)
    x, y = parse(args.x), parse(args.y)
    value = exp.mu_n(x, y, args.order)
    report = Report("mu", args.format)
    report.result(f"mu_{args.order}({args.x}, {args.y})", str(value))
    return 0


def cmd_confluence(args) -> int:
    alg = _algebra_from_args(args)
    report = Report("confluence", args.format)
    count = 0
    for amb in alg.system.iter_ambiguities():
        count += 1
        payload = f"residual {amb.residual}" if not amb.resolvable else ""
        report.add(f"{amb.kind} {amb.word}", amb.resolvable, payload)
    report.add("ambiguities", True, f"{count} examined")
    return report.finish()


def cmd_dim(args) -> int:
    alg = _algebra_from_args(args)
    report = Report("dim", args.format)
    if args.maxlen is not None:
        _at_least("--maxlen", args.maxlen, 0)
        counts = alg.system.basis_counts(args.maxlen + 1, MAX_BASIS_WORDS)
        words = sum(counts[: args.maxlen + 1])
        _refuse_large_basis(words, args.maxlen)
        note = "complete" if counts[-1] == 0 else f"truncated at length {args.maxlen}"
        report.result(alg.label, f"{words} words ({note})")
        return 0
    dim = alg.system.dimension()
    if dim is None:
        report.add(alg.label, False, "infinitely many irreducible words; use --maxlen")
        return 1
    report.result(alg.label, str(dim))
    return 0


def _grade_from_json(data, zero: Grade) -> Grade:
    import json

    if not (isinstance(data, list) and all(type(c) is int for c in data)):
        raise UsageError(f"grade {json.dumps(data)} in --file is not a list of integers")
    return Grade(tuple(data), zero.moduli)


def _matrix_from_json(alg: Algebra, data, parse) -> matrices.GradedMatrix:
    if not (isinstance(data, dict) and {"rows", "cols", "entries"} <= data.keys()):
        raise UsageError("a matrix in --file needs the keys 'rows', 'cols' and 'entries'")
    for key in ("rows", "cols", "entries"):
        if not isinstance(data[key], list):
            raise UsageError(f"{key!r} in --file is not a list")
    if not all(isinstance(row, list) and all(isinstance(c, str) for c in row)
               for row in data["entries"]):
        raise UsageError("'entries' in --file is not a list of rows of strings")
    zero = alg.zero_grade
    rows = [_grade_from_json(g, zero) for g in data["rows"]]
    cols = [_grade_from_json(g, zero) for g in data["cols"]]
    entries = [[parse(cell) for cell in row] for row in data["entries"]]
    gamma = _grade_from_json(data["gamma"], zero) if "gamma" in data else None
    return matrices.GradedMatrix(alg, rows, cols, entries, gamma)


def cmd_rank(args) -> int:
    import json

    with open(args.file) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise UsageError("--file nests its JSON too deeply to read") from None
    if not isinstance(data, dict):
        raise UsageError("--file must hold a JSON object")
    if ("P" in data) != ("Q" in data):
        raise UsageError("--file needs both 'P' and 'Q' for the IBN probe")
    if not isinstance(data.get("alg"), str):
        raise UsageError("no algebra: --file needs a preset string under 'alg'")
    alg = parse_preset(data["alg"])
    parse = _parser(alg)
    report = Report("rank", args.format)
    if "P" in data:
        P = _matrix_from_json(alg, data["P"], parse)
        Q = _matrix_from_json(alg, data["Q"], parse)
        probe = matrices.ibn_probe(P, Q, kind=args.kind)
        report.result("P rows", str(probe.row_profile))
        report.result("P cols", str(probe.col_profile))
        report.add("probe", probe.ok, probe.reason)
        return report.finish()
    M = _matrix_from_json(alg, data, parse)
    report.result("rows", str(matrices.rank_profile(M.row_grades, alg.factor)))
    report.result("cols", str(matrices.rank_profile(M.col_grades, alg.factor)))
    return 0


def cmd_presets(args) -> int:
    report = Report("presets", args.format)
    for name, (_, sample, about) in PRESETS.items():
        report.result(name, f"{sample:<22} {about}")
    return 0


def cmd_verify(args) -> int:
    _at_least("--samples", args.samples, 1)
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    _at_least("--maxlen", args.maxlen, 1)
    alg = _algebra_from_args(args)
    _refuse_large_basis(sum(alg.system.basis_counts(args.maxlen, MAX_BASIS_WORDS)), args.maxlen)
    report = Report(f"verify-{args.suite}", args.format)
    runner = _SUITES[args.suite]
    runner(report, alg, args)
    return report.finish()


# ------------------------------------------------------------- verify suites


def _suite_factor(report: Report, alg: Algebra, args):
    grades = _sample_grades(alg, max(args.samples, 8), args.seed)
    bad = verify_factor_axioms(alg.factor, grades)
    for line in bad:
        report.add("axiom", False, line)
    report.add("axioms", not bad, f"{len(grades)} sample grades")


def _law_suite(report: Report, ctx: brackets.BracketContext, verify, case: str, args):
    """Runs verify on triples sampled from ctx.algebra; the first ten failures show."""
    triples = brackets.sample_triples(ctx.algebra, args.samples, args.seed, args.maxlen)
    failures = verify(ctx, triples)
    for line in failures[:10]:
        report.add("triple", False, line)
    report.add(case, not failures, f"{len(triples)} triples")


def _suite_lie(report: Report, alg: Algebra, args):
    ctx = brackets.BracketContext.quantum(alg)
    _law_suite(report, ctx, brackets.verify_lie_axioms, "lie-axioms", args)


def _suite_poisson(report: Report, alg: Algebra, args):
    ctx = brackets.BracketContext.classical(_expansion_for(alg))
    _law_suite(report, ctx, brackets.verify_poisson_axioms, "poisson-axioms", args)


def _suite_deformation(report: Report, alg: Algebra, args):
    exp = _expansion_for(alg)
    rng = random.Random(args.seed)
    basis = [w for w in exp.classical.basis(args.maxlen) if not w.is_empty()]
    count = max(args.samples // 4, 1)
    bad = 0
    for _ in range(count):
        x, y, z = (Element.from_word(rng.choice(basis)) for _ in range(3))
        for order in range(4):
            if not deformation.check_deformation_identity(exp, x, y, z, order).is_zero():
                bad += 1
                report.add(
                    f"order {order}", False, f"x={x}, y={y}, z={z}"
                )
    report.add(
        "associativity-orders-0-3", bad == 0, f"{count} word triples"
    )


def _suite_noa(report: Report, alg: Algebra, args):
    if alg.family not in NOA_FAMILIES:
        raise UsageError(f"{alg.label} is not a number-operator algebra")
    n = alg.params["n"]
    bad = structure.verify_J_well_defined(alg)
    report.add("J-involution", not bad, bad[0] if bad else f"{alg.label}")
    perms = {tuple(range(1, n + 1))}
    if n > 1:
        perms.add(tuple(range(2, n + 1)) + (1,))
        perms.add((2, 1) + tuple(range(3, n + 1)))
    for perm in sorted(perms):
        bad = structure.verify_sigma(alg, perm)
        report.add(f"sigma{perm}", not bad, bad[0] if bad else "")
    failures = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            failures.extend(structure.number_operator_check(alg, i, j))
    report.add("number-operator", not failures, failures[0] if failures else f"i,j <= {n}")
    if not alg.is_classical():
        m = structure.rescale(alg, exprparse.scalar_from_text("1 + I"))
        bad = structure.verify_rescaling(m)
        report.add("rescale-1+I", not bad, bad[0] if bad else f"target {m.target.label}")


def _suite_oscillator(report: Report, alg: Algebra, args):
    table = brackets.oscillator_table(_expansion_for(alg))
    for key, value in sorted(table.entries.items()):
        report.result(key, str(value))
    report.add("delta-pattern", table.pattern_ok, "; ".join(table.notes) or "")
    c, c_prime = (("unread" if x is None else x) for x in (table.c, table.c_prime))
    report.add("constants", table.constants_are_units(), f"c = {c}, c' = {c_prime}")


_SUITES = {
    "factor": _suite_factor,
    "lie": _suite_lie,
    "poisson": _suite_poisson,
    "deformation": _suite_deformation,
    "noa": _suite_noa,
    "oscillator": _suite_oscillator,
}


# --------------------------------------------------------------------- parser


def _int_option(text: str) -> int:
    """--maxlen, --order, --samples and --seed: an optional minus and the digits 0-9.

    int() would also take other scripts' digits, underscores and spaces.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer in the digits 0-9, got {text!r}")
    if len(digits) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {MAX_DIGITS} digits")
    return int(text)


def _add_format_option(sub):
    sub.add_argument(
        "--format", choices=("text", "machine"), default="text", help="output style"
    )


def _add_algebra_options(sub):
    sub.add_argument("--alg", help="preset string NAME[:PARAMS], as `epsalg presets` lists")
    _add_format_option(sub)


class _Parser(argparse.ArgumentParser):
    """Reads "-a1" as a value, not a flag, and reports usage errors in one line.

    Options are spelled in full: an abbreviation such as "--h" would read as --help.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def _parse_optional(self, arg_string):
        # Every option here but -h is long, so a single-dash token is an expression.
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epsalg",
        description="exact computations in epsilon-graded algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("normalize", help="reduce an expression to normal form")
    _add_algebra_options(p)
    p.add_argument("expr")
    p.set_defaults(handler=cmd_normalize)

    p = subs.add_parser("bracket", help="epsilon-commutator or Poisson bracket")
    _add_algebra_options(p)
    p.add_argument("--kind", choices=("comm", "plain", "poisson"), default="comm")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=cmd_bracket)

    p = subs.add_parser("mu", help="one coefficient of the deformation expansion")
    _add_algebra_options(p)
    p.add_argument("--order", type=_int_option, required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=cmd_mu)

    p = subs.add_parser("confluence", help="resolve all overlap ambiguities")
    _add_algebra_options(p)
    p.set_defaults(handler=cmd_confluence)

    p = subs.add_parser("dim", help="dimension or truncated basis count")
    _add_algebra_options(p)
    p.add_argument("--maxlen", type=_int_option, help="count words up to this length")
    p.set_defaults(handler=cmd_dim)

    p = subs.add_parser("rank", help="graded rank profiles and the IBN probe")
    _add_format_option(p)
    p.add_argument("--file", required=True, help="JSON matrix or P/Q pair, its preset under 'alg'")
    p.add_argument("--kind", choices=("total", "super", "eps"), default="eps")
    p.set_defaults(handler=cmd_rank)

    p = subs.add_parser("verify", help="run one verification suite")
    _add_algebra_options(p)
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--samples", type=_int_option, default=50)
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--maxlen", type=_int_option, default=3)
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("presets", help="list the built-in algebra presets")
    _add_format_option(p)
    p.set_defaults(handler=cmd_presets)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, RewriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    console_entry()
