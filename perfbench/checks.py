"""Judges each recorded operation against oracle.py or a law it must obey.

`check(op, out)` returns a list of problems, empty when the output is
right.  No expected value is stored anywhere: each one is recomputed from
the operation's inputs by code that does not use epsalg.
"""
from __future__ import annotations

import json
import re

import oracle as O

PRESET_NAMES = {
    "fermion", "pseudo-fermion", "excl", "excl-dual", "boson", "pseudo-boson",
    "qplane", "cex", "ext",
}
_TEXT_CHECK = re.compile(r"^\[(pass|FAIL)\] ([^/]+)/(.*?)(?:: (.*))?$")
_TEXT_SUMMARY = re.compile(r"^([\w-]+): (\d+/\d+ checks passed)$")


def _preset_family(preset: str):
    name, _, rest = preset.partition(":")
    params = dict(p.split("=", 1) for p in rest.split(",") if "=" in p)
    return O.FAMILY_OF_PRESET.get(name), int(params.get("n", 1))


def _argv(argv: list):
    """Options and positionals of an epsalg command line."""
    opts, pos = {}, []
    i = 1
    while i < len(argv):
        if argv[i].startswith("--"):
            opts[argv[i][2:]] = argv[i + 1]
            i += 2
        else:
            pos.append(argv[i])
            i += 1
    return opts, pos


def records(stdout: str, machine: bool):
    """(entries, summary) from either output format.

    entries are (case, passed, payload) in print order; a computed value
    printed in text mode has no case.  summary is the "k/n checks passed"
    text, or None when the command printed none.
    """
    entries, summary = [], None
    for line in stdout.splitlines():
        if machine:
            rec = json.loads(line)
            if set(rec) != {"suite", "case", "status", "payload"}:
                raise ValueError(f"malformed record {line!r}")
            if rec["case"] == "summary":
                summary = rec["payload"]
            else:
                entries.append((rec["case"], rec["status"] == "pass", rec["payload"]))
            continue
        m = _TEXT_CHECK.match(line)
        if m:
            entries.append((m.group(3), m.group(1) == "pass", m.group(4) or ""))
            continue
        m = _TEXT_SUMMARY.match(line)
        if m:
            summary = m.group(2)
            continue
        entries.append((None, True, line))
    return entries, summary


def _summary_ok(entries: list, summary) -> list:
    total = len(entries)
    want = f"{total}/{total} checks passed"
    problems = [f"check {case!r} failed: {payload}" for case, ok, payload in entries if not ok]
    if summary != want:
        problems.append(f"summary {summary!r}, expected {want!r}")
    return problems


# ------------------------------------------------------------------ per command


def _check_value(cmd: str, opts: dict, pos: list, value: str) -> list:
    family, n = _preset_family(opts["alg"])
    got = O.parse(value)
    if cmd == "normalize":
        want = O.normal_order(O.parse(pos[0]), family, n)
    elif cmd == "bracket":
        x, y = O.parse(pos[0]), O.parse(pos[1])
        want = O.poisson(x, y, family, n)
        if family == "c" and not O.boson_poisson_agrees(x, y, got, n):
            return [f"Poisson bracket {value!r} disagrees with the boson formula"]
    else:
        want = O.mu(O.parse(pos[0]), O.parse(pos[1]), family, n, int(opts["order"]))
    return [] if got == want else [f"{cmd} gave {value!r}, which differs from the oracle"]


def _check_confluence(opts, checks) -> list:
    family, n = _preset_family(opts["alg"])
    want = sorted(O.overlap_words(family, n))
    got = []
    for case, _, _ in checks[:-1]:
        kind, _, word = case.partition(" ")
        if kind != "overlap":
            return [f"unexpected ambiguity {case!r}"]
        (letters,) = O.parse(word)
        got.append(letters)
    problems = []
    if sorted(got) != want:
        problems.append(f"{len(got)} overlaps reported, the presentation has {len(want)}")
    if not checks or checks[-1][::2] != ("ambiguities", f"{len(want)} examined"):
        problems.append(f"last record {checks[-1:]!r} does not count {len(want)} ambiguities")
    return problems


def _noa_checks(n: int) -> int:
    """J, each mode permutation, the number operators, one rescaling."""
    perms = {tuple(range(1, n + 1))}
    if n > 1:
        perms.add(tuple(range(2, n + 1)) + (1,))
        perms.add((2, 1) + tuple(range(3, n + 1)))
    return 1 + len(perms) + 1 + 1


def _check_verify(opts, checks) -> list:
    suite = opts["suite"]
    samples = int(opts.get("samples", 50))
    family, n = _preset_family(opts["alg"])
    last = checks[-1] if checks else ("", False, "")
    if suite in ("lie", "poisson"):
        want = (f"{suite}-axioms", f"{samples} triples")
    elif suite == "deformation":
        want = ("associativity-orders-0-3", f"{max(samples // 4, 1)} word triples")
    elif suite == "factor":
        m = re.fullmatch(r"(\d+) sample grades", last[2])
        if last[0] != "axioms" or not m or int(m.group(1)) < max(samples, 8):
            return [f"factor suite checked {last!r}, fewer than {max(samples, 8)} grades"]
        return []
    elif suite == "noa":
        want_count = _noa_checks(n)
        return [] if len(checks) == want_count else [f"{len(checks)} noa checks, expected {want_count}"]
    elif suite == "oscillator":
        if len(checks) != 5 * n * n + 2:
            return [f"oscillator table has {len(checks) - 2} entries, expected {5 * n * n}"]
        return []
    else:
        return [f"no check for suite {suite!r}"]
    return [] if last[::2] == want else [f"last record {last!r}, expected {want!r}"]


def _check_rank(op, entries) -> list:
    pair = op["pair"]
    family, _ = _preset_family(pair["alg"])
    want = [
        O.profile_text(family, [tuple(g) for g in pair["P"]["rows"]]),
        O.profile_text(family, [tuple(g) for g in pair["P"]["cols"]]),
    ]
    got = [payload for _, _, payload in entries[:2]]
    problems = [] if got == want else [f"profiles {got!r}, expected {want!r}"]
    if entries[-1][::2] != ("probe", "profiles agree through the augmentation"):
        problems.append(f"probe record {entries[-1]!r}")
    return problems


def check_cli(op: dict, out: dict) -> list:
    argv, machine = op["argv"], op["machine"]
    cmd = argv[0]
    if out["rc"] != 0:
        return [f"{' '.join(argv)} exited {out['rc']}: {out['stderr'].strip()[-200:]}"]
    if out["stderr"]:
        return [f"{' '.join(argv)} wrote to stderr: {out['stderr'].strip()[-200:]}"]
    # rank's --file path is appended by the worker, so only the others parse.
    opts, pos = _argv(argv) if cmd != "rank" else ({}, [])
    entries, summary = records(out["stdout"], machine)
    if cmd in ("normalize", "bracket", "mu", "dim", "presets"):
        if not all(ok for _, ok, _ in entries):
            return [f"{cmd} reported a failed record"]
        values = [payload for _, _, payload in entries]
        if cmd == "presets":
            names = {v.split()[0].split(":")[0] for v in values}
            ok = len(values) == len(PRESET_NAMES) and names == PRESET_NAMES
            return [] if ok else [f"presets listed {sorted(names)}"]
        if len(values) != 1:
            return [f"{cmd} printed {len(values)} values"]
        if cmd == "dim":
            want = O.dimension(opts["alg"])
            return [] if values[0] == str(want) else [f"dim {values[0]}, expected {want}"]
        return _check_value(cmd, opts, pos, values[0])
    problems = _summary_ok(entries, summary)
    if cmd == "confluence":
        problems += _check_confluence(opts, entries)
    elif cmd == "verify":
        problems += _check_verify(opts, entries)
    elif cmd == "rank":
        problems += _check_rank(op, entries)
    else:
        problems.append(f"no check for command {cmd!r}")
    return problems


def check_normalize(op: dict, out: dict) -> list:
    got = O.parse(out["nf"])
    want = O.normal_order(O.parse(op["text"]), *_preset_family(op["preset"]))
    if got != want:
        return [f"normal form of {op['text']} on {op['preset']} differs from the oracle"]
    return []


def check_laws(op: dict, out: dict) -> list:
    family, n = _preset_family(op["preset"])
    problems = []
    for key in ("poisson_failures", "lie_failures", "extra_failures"):
        if out[key]:
            problems.append(f"{key}: {out[key][0]}")
    for k, residual in enumerate(out["residuals"]):
        if residual != "0":
            problems.append(f"order-{k} associativity residual {residual}")
    if out["first_order"] is not True:
        problems.append("h^1 part of the commutator differs from the Poisson bracket")
    x, y = O.parse(out["x"]), O.parse(out["y"])
    comm, bracket = O.parse(out["comm"]), O.parse(out["bracket"])
    if comm != O.eps_commutator(x, y, family, n):
        problems.append(f"commutator [{out['x']}, {out['y']}] differs from the oracle")
    if bracket != O.p_h_coefficient(comm, 1):
        problems.append("printed bracket is not the h^1 part of the printed commutator")
    if family == "c" and not O.boson_poisson_agrees(x, y, bracket, n):
        problems.append(f"bracket {{{out['x']}, {out['y']}}} disagrees with the boson formula")
    return problems


def check(op: dict, out: dict) -> list:
    checker = {"normalize": check_normalize, "laws": check_laws, "cli": check_cli}[op["kind"]]
    try:
        return checker(op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
