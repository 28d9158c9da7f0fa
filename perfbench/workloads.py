"""Seeded operation lists of the three workloads, and what each one builds.

An operation list depends only on (workload, seed, seconds): the same
arguments give the same operations in the same order.  Each list is made
of whole rounds of a fixed sequence of operation classes, so every run
has the same mix; the seed only picks the inputs inside each class.  The
number of rounds comes from `seconds` and a nominal cost per operation,
never from a clock, so no run is cut short.  This module does not import
epsalg.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("normal-order", "law-check", "cli-session")

# Seconds per operation measured on the reference machine (README.md); they
# size the lists so that one run does about `seconds` of work.
NOMINAL_OP_S = {"normal-order": 0.145, "law-check": 0.032, "cli-session": 0.24}

# Fewest operations in a run, so that ten samples lie beyond the p90.
MIN_OPS = 100

# ------------------------------------------------------------ normal-order

# (preset family, modes, total degree for bosons); one round visits each.
NORMAL_ORDER_CLASSES = (
    ("boson", 2, 12),
    ("fermion", 6, None),
    ("pseudo-boson", 2, 14),
    ("pseudo-fermion", 7, None),
    ("boson", 2, 16),
    ("fermion", 8, None),
    ("pseudo-boson", 2, 12),
    ("pseudo-fermion", 6, None),
    ("boson", 2, 14),
    ("fermion", 7, None),
    ("pseudo-boson", 2, 16),
    ("pseudo-fermion", 8, None),
)

# Modes whose annihilator comes before its creator in a fermion word; each
# one doubles the terms of the normal form, so fixing it keeps costs level.
FERMION_CONTRACTIONS = 5

def _exponents(rng: random.Random, total: int, parts: int, low: int, high: int) -> list:
    while True:
        got = [rng.randint(low, high) for _ in range(parts - 1)]
        last = total - sum(got)
        if low <= last <= high:
            return got + [last]


def anti_normal_monomial(rng: random.Random, n: int, degree: int, low: int = 3) -> str:
    """All annihilators left of all creators, in seeded mode orders.

    Every exponent lies in [low, 5]; with low = 3 the costs of one degree
    stay within a factor of about three of each other.
    """
    exps = _exponents(rng, degree, 2 * n, low, 5)
    a_modes = rng.sample(range(1, n + 1), n)
    ad_modes = rng.sample(range(1, n + 1), n)
    parts = [f"a{m}^{e}" for m, e in zip(a_modes, exps[:n])]
    parts += [f"ad{m}^{e}" for m, e in zip(ad_modes, exps[n:])]
    return "*".join(parts)


def fermion_word(rng: random.Random, n: int, contractions: int) -> str:
    """A seeded ordering of the 2n distinct letters.

    Exactly `contractions` modes have a_i before ad_i.
    """
    letters = [f"ad{i}" for i in range(1, n + 1)] + [f"a{i}" for i in range(1, n + 1)]
    rng.shuffle(letters)
    contracted = set(rng.sample(range(1, n + 1), contractions))
    for i in range(1, n + 1):
        p, q = letters.index(f"a{i}"), letters.index(f"ad{i}")
        if (p < q) != (i in contracted):
            letters[p], letters[q] = letters[q], letters[p]
    return "*".join(letters)


def normal_order_ops(rng: random.Random, count: int) -> list:
    ops = []
    for k in range(count):
        name, n, degree = NORMAL_ORDER_CLASSES[k % len(NORMAL_ORDER_CLASSES)]
        if degree is None:
            text = fermion_word(rng, n, FERMION_CONTRACTIONS)
        else:
            text = anti_normal_monomial(rng, n, degree)
        ops.append({"kind": "normalize", "preset": f"{name}:n={n}", "text": text})
    return ops


# --------------------------------------------------------------- law-check

LAW_FAMILIES = ("fermion", "pseudo-fermion", "boson", "pseudo-boson") * 2
# Every fourth triple also runs the Lie check on an exclusion algebra.
LAW_EXTRA = {0: "excl:n=2", 4: "excl-dual:n=2"}
LAW_MODES = 2


def law_check_ops(rng: random.Random, count: int) -> list:
    ops = []
    for k in range(count):
        slot = k % len(LAW_FAMILIES)
        ops.append(
            {
                "kind": "laws",
                "preset": f"{LAW_FAMILIES[slot]}:n={LAW_MODES}",
                "seed": rng.randrange(2**31),
                "extra": LAW_EXTRA.get(slot),
            }
        )
    return ops


# ------------------------------------------------------------- cli-session


def normal_monomial(rng: random.Random, n: int, low: int, high: int) -> str:
    """A nonempty normal-ordered word ad^p.. a^q.. of seeded exponents."""
    while True:
        exps = [rng.randint(low, high) for _ in range(2 * n)]
        if any(exps):
            break
    letters = [f"ad{m}" for m in range(1, n + 1)] + [f"a{m}" for m in range(1, n + 1)]
    return "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(letters, exps) if e)


def fermion_normal_word(rng: random.Random, n: int) -> str:
    """A nonempty normal-ordered fermion word: each letter at most once."""
    return normal_monomial(rng, n, 0, 1)


def _rank_pair(rng: random.Random, preset: str, n: int) -> dict:
    """An invertible unitriangular pair over a classical algebra.

    P = [[1, x], [0, 1]] and Q = [[1, -x], [0, 1]] with x = c*w for a
    normal-ordered word w of nonzero grade; rows and columns carry the
    grades 0 and -grade(w).
    """
    fermionic = preset.startswith(("fermion", "pseudo-fermion"))
    while True:
        word = fermion_normal_word(rng, n) if fermionic else normal_monomial(rng, n, 0, 2)
        g = [0] * n
        for part in word.split("*"):
            name, _, e = part.partition("^")
            mode = int(name.lstrip("ad"))
            g[mode - 1] += (1 if name.startswith("ad") else -1) * int(e or 1)
        if any(g):
            break
    c = rng.choice((1, 2, 3, -1, -2))
    zero, shift = [0] * n, [-v for v in g]
    grades = [zero, shift]
    return {
        "alg": f"{preset},h=0",
        "P": {"rows": grades, "cols": grades, "entries": [["1", f"{c}*{word}"], ["0", "1"]]},
        "Q": {"rows": grades, "cols": grades, "entries": [["1", f"{-c}*{word}"], ["0", "1"]]},
    }


def _cli_round(rng: random.Random) -> list:
    """One pass of the script: (argv without the format flag, extra data)."""

    def s() -> str:
        return str(rng.randrange(10**6))

    ops = [
        (["presets"], {}),
        (["normalize", "--alg", "boson:n=2", anti_normal_monomial(rng, 2, 10, low=2)], {}),
        (["normalize", "--alg", "fermion:n=3", fermion_word(rng, 3, 2)], {}),
        (["bracket", "--kind", "poisson", "--alg", "boson:n=2",
          normal_monomial(rng, 2, 0, 2), normal_monomial(rng, 2, 0, 2)], {}),
        (["mu", "--alg", "boson:n=2", "--order", str(rng.randint(0, 2)),
          normal_monomial(rng, 2, 0, 2), normal_monomial(rng, 2, 0, 2)], {}),
        (["confluence", "--alg", "fermion:n=3"], {}),
        (["dim", "--alg", "fermion:n=3"], {}),
        (["verify", "--suite", "lie", "--alg", "fermion:n=2", "--samples", "10", "--seed", s()], {}),
        (["verify", "--suite", "poisson", "--alg", "boson:n=2", "--samples", "5", "--seed", s()], {}),
        (["verify", "--suite", "deformation", "--alg", "pseudo-boson:n=2", "--samples", "8",
          "--seed", s()], {}),
        (["verify", "--suite", "noa", "--alg", "fermion:n=2"], {}),
        (["verify", "--suite", "oscillator", "--alg", "boson:n=2"], {}),
        (["verify", "--suite", "factor", "--alg", "fermion:n=3", "--seed", s()], {}),
        (["rank", "--file"], {"pair": _rank_pair(rng, "fermion:n=2", 2)}),
        (["normalize", "--alg", "pseudo-boson:n=2", anti_normal_monomial(rng, 2, 10, low=2)], {}),
        (["bracket", "--kind", "poisson", "--alg", "pseudo-fermion:n=2",
          fermion_normal_word(rng, 2), fermion_normal_word(rng, 2)], {}),
        (["mu", "--alg", "pseudo-fermion:n=2", "--order", str(rng.randint(0, 1)),
          fermion_normal_word(rng, 2), fermion_normal_word(rng, 2)], {}),
        (["confluence", "--alg", "boson:n=3"], {}),
        (["dim", "--alg", "excl:n=3"], {}),
        (["verify", "--suite", "factor", "--alg", "ext:n=3", "--seed", s()], {}),
        (["rank", "--file"], {"pair": _rank_pair(rng, "boson:n=2", 2)}),
        (["dim", "--alg", "ext:n=4"], {}),
        (["normalize", "--alg", "pseudo-fermion:n=3", fermion_word(rng, 3, 2)], {}),
        (["verify", "--suite", "lie", "--alg", "pseudo-boson:n=2", "--samples", "6",
          "--seed", s()], {}),
        (["dim", "--alg", "excl-dual:n=2"], {}),
    ]
    return ops


def cli_session_ops(rng: random.Random, count: int) -> list:
    ops = []
    for r in range(count // CLI_ROUND):
        for i, (argv, extra) in enumerate(_cli_round(rng)):
            # Half the commands print machine records; the parity flips
            # every round so each command is seen in both formats.
            machine = (i + r) % 2 == 1
            if machine:
                argv = argv[:1] + ["--format", "machine"] + argv[1:]
            ops.append({"kind": "cli", "argv": argv, "machine": machine, **extra})
    return ops


# ------------------------------------------------------------------ shared


def operation_count(workload: str, seconds: int, round_len: int) -> int:
    """Whole rounds, at least MIN_OPS operations, about `seconds` of work."""
    want = max(MIN_OPS, math.ceil(seconds / NOMINAL_OP_S[workload]))
    return round_len * math.ceil(want / round_len)


def operations(workload: str, seed: int, seconds: int) -> list:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "normal-order":
        round_len, make = len(NORMAL_ORDER_CLASSES), normal_order_ops
    elif workload == "law-check":
        round_len, make = len(LAW_FAMILIES), law_check_ops
    elif workload == "cli-session":
        round_len, make = CLI_ROUND, cli_session_ops
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = make(rng, operation_count(workload, seconds, round_len))
    for k, op in enumerate(ops):
        # The worker runs operation k on CPU slot % (number of CPUs): next
        # operations take the next CPU, and each class moves on by one CPU
        # every round, so every class meets every CPU alike.
        op["slot"] = k % round_len + k // round_len
    return ops


CLI_ROUND = len(_cli_round(random.Random(0)))

# The algebras each workload builds and certifies before its first
# operation: preset strings, with "~" marking a classical limit that goes
# with the quantum preset.
SETUP = {
    "normal-order": sorted({f"{name}:n={n}" for name, n, _ in NORMAL_ORDER_CLASSES}),
    "law-check": [
        "fermion:n=2~", "pseudo-fermion:n=2~", "boson:n=2~", "pseudo-boson:n=2~",
        "excl:n=2", "excl-dual:n=2",
    ],
    "cli-session": [
        "boson:n=2~", "pseudo-boson:n=2~", "fermion:n=2~", "pseudo-fermion:n=2~",
        "fermion:n=3", "pseudo-fermion:n=3", "boson:n=3", "excl:n=3", "excl-dual:n=2",
        "ext:n=3", "ext:n=4",
    ],
}
