"""Per-layer tracing of epsalg, installed from outside its source.

`install()` replaces the public functions and methods listed in LAYERS by
wrappers.  While the tracer is on, each wrapper counts its calls and times
them; the time a call spends inside other wrapped calls is subtracted to
give its self time.  Calls of the coarse functions (everything but the
arithmetic in HOT) are also kept as spans with the id of the span that
caused them.  `fractions.Fraction` arithmetic is counted, not timed.
Everything stays in memory until `dump()`.

Module-level functions are swapped in every loaded `epsalg` module that
imported them, so `cli.poisson_bracket` and `brackets.poisson_bracket`
both trace.  Nothing under `src/` changes.
"""
from __future__ import annotations

import fractions
import json
import sys
import time

# layer -> (owner path, attribute names).  The owner is a module or a class
# inside one; for classes, aliases such as __radd__ are listed on their own.
LAYERS = {
    "exprparse": [
        ("exprparse", ["element_from_text", "scalar_from_text"]),
    ],
    "presets": [
        (
            "presets",
            [
                "parse_preset",
                "build_noa",
                "classical_limit",
                "with_h",
                "build_quantum_plane",
                "build_counterexample",
                "build_epsilon_exterior",
                "build_exterior_preset",
            ],
        ),
    ],
    "rewrite": [
        (
            "rewrite.ReductionSystem",
            ["normalize", "check_confluence", "enumerate_basis", "basis_is_complete"],
        ),
    ],
    "freealg": [
        (
            "freealg.Element",
            ["__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__neg__", "h_coefficient"],
        ),
        ("freealg", ["grade_of", "homogeneous_components"]),
    ],
    "scalars": [
        ("scalars.Scalar", ["__add__", "__radd__", "__mul__", "__rmul__", "__neg__", "inverse"]),
        ("scalars.HPoly", ["__add__", "__radd__", "__mul__", "__rmul__", "__neg__"]),
    ],
    "grading": [
        ("grading.CommutationFactor", ["eval"]),
        ("grading", ["verify_factor_axioms"]),
    ],
    "deformation": [
        ("deformation.DeformationExpansion", ["mu_n"]),
        ("deformation", ["check_deformation_identity"]),
    ],
    "brackets": [
        (
            "brackets",
            [
                "poisson_bracket",
                "epsilon_commutator",
                "commutator",
                "verify_lie_axioms",
                "verify_poisson_axioms",
                "oscillator_table",
            ],
        ),
    ],
    "structure": [
        (
            "structure",
            [
                "verify_J_well_defined",
                "verify_sigma",
                "verify_rescaling",
                "number_operator_check",
            ],
        ),
    ],
    "matrices": [
        ("matrices", ["ibn_probe", "gm_mul", "rank_profile"]),
    ],
}

# Calls too frequent to keep one span each; they only feed the totals.
HOT = {"freealg", "scalars", "grading.CommutationFactor.eval"}

# Names whose outermost calls are timed together: a call nested inside
# another member of its group adds nothing to the group's inclusive time.
GROUPS = {
    "presets.build": {f"presets.{name}" for name in LAYERS["presets"][0][1]},
    "presets.certify": {"rewrite.ReductionSystem.check_confluence"},
    "rewrite.basis": {
        "rewrite.ReductionSystem.enumerate_basis",
        "rewrite.ReductionSystem.basis_is_complete",
    },
    "scalars.mul": {
        "scalars.Scalar.__mul__",
        "scalars.Scalar.__rmul__",
        "scalars.HPoly.__mul__",
        "scalars.HPoly.__rmul__",
    },
    "grading.verify_factor": {"grading.verify_factor_axioms"},
    "deformation.mu_n": {"deformation.DeformationExpansion.mu_n"},
    "brackets.poisson": {"brackets.poisson_bracket"},
    "brackets.commutator": {"brackets.epsilon_commutator", "brackets.commutator"},
    "brackets.verify": {"brackets.verify_lie_axioms", "brackets.verify_poisson_axioms"},
    "structure.verify": {f"structure.{name}" for name in LAYERS["structure"][0][1]},
    "matrices.probe": {"matrices.ibn_probe"},
    "exprparse.parse": {"exprparse.element_from_text"},
}

FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
    "__rpow__", "__neg__", "__pos__", "__abs__",
)


class Tracer:
    def __init__(self):
        self.on = False
        self.calls = {}  # name -> calls
        self.self_s = {}  # name -> seconds not covered by wrapped children
        self.group_s = {group: 0.0 for group in GROUPS}
        self.group_depth = {group: 0 for group in GROUPS}
        self.group_of = {n: g for g, names in GROUPS.items() for n in names}
        self.ambiguities = 0
        self.fraction_ops = 0
        self.stack = []  # frames: [child seconds, span id]
        self.spans = []  # (id, parent id, name, start, seconds, self seconds)
        self.span_root = 0
        self._root = None  # (name, start) of the open root span

    # ------------------------------------------------------------- wrappers

    def timed(self, name: str, fn, keep_span: bool):
        tr = self
        calls, self_s, stack, spans = self.calls, self.self_s, self.stack, self.spans
        calls[name] = 0
        self_s[name] = 0.0
        group = self.group_of.get(name)
        group_s, group_depth = self.group_s, self.group_depth
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else tr.span_root
            span_id = len(spans) + 1 if keep_span else parent
            if keep_span:
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            if group is not None:
                group_depth[group] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - start
                stack.pop()
                calls[name] += 1
                own = dt - frame[0]
                self_s[name] += own
                if stack:
                    stack[-1][0] += dt
                if group is not None:
                    group_depth[group] -= 1
                    if not group_depth[group]:
                        group_s[group] += dt
                if keep_span:
                    spans[span_id - 1] = (span_id, parent, name, start, dt, own)

        return wrapper

    def counting_generator(self, fn):
        tr = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tr.on:
                    tr.ambiguities += 1
                yield item

        return wrapper

    def counted(self, fn):
        tr = self

        def wrapper(*args):
            if tr.on:
                tr.fraction_ops += 1
            return fn(*args)

        return wrapper

    # ------------------------------------------------------------ operations

    def begin(self, name: str) -> None:
        """Open a root span (one benchmark operation or the set-up phase)."""
        self.spans.append(None)
        self.span_root = len(self.spans)
        self._root = (name, time.perf_counter())
        self.on = True

    def end(self) -> None:
        self.on = False
        name, start = self._root
        dt = time.perf_counter() - start
        self.spans[self.span_root - 1] = (self.span_root, 0, name, start, dt, None)

    def totals(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "group_s": self.group_s,
            "ambiguities": self.ambiguities,
            "fraction_ops": self.fraction_ops,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"totals": self.totals(), "spans": self.spans}, fh)


def _resolve(path: str):
    module, _, cls = path.partition(".")
    owner = sys.modules[f"epsalg.{module}"]
    return getattr(owner, cls) if cls else owner


def install() -> Tracer:
    """Wrap epsalg (already imported) and fractions.Fraction; tracer off."""
    tr = Tracer()
    modules = [m for k, m in sys.modules.items() if k == "epsalg" or k.startswith("epsalg.")]
    for layer, owners in LAYERS.items():
        for path, names in owners:
            owner = _resolve(path)
            for attr in names:
                name = f"{path}.{attr}"
                orig = getattr(owner, attr)
                keep_span = layer not in HOT and name not in HOT
                wrapped = tr.timed(name, orig, keep_span)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, key, wrapped)
    system = _resolve("rewrite.ReductionSystem")
    system.iter_ambiguities = tr.counting_generator(system.iter_ambiguities)
    for attr in FRACTION_OPS:
        setattr(fractions.Fraction, attr, tr.counted(getattr(fractions.Fraction, attr)))
    return tr


def merge(totals: list) -> dict:
    """Sum the totals of several traced processes."""
    out = {"calls": {}, "self_s": {}, "group_s": {}, "ambiguities": 0, "fraction_ops": 0}
    for t in totals:
        for key in ("calls", "self_s", "group_s"):
            for name, v in t[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["ambiguities"] += t["ambiguities"]
        out["fraction_ops"] += t["fraction_ops"]
    return out


def layer_metrics(t: dict, ops: int) -> dict:
    """The per-layer metrics of the benchmark from merged totals."""
    calls, self_s, group_s = t["calls"], t["self_s"], t["group_s"]

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def layer_self(prefix):
        return sum(v for n, v in self_s.items() if n.startswith(prefix))

    return {
        "exprparse.parse_ms": 1000 * group_s.get("exprparse.parse", 0.0) / max(ops, 1),
        "presets.build_s": group_s.get("presets.build", 0.0),
        "presets.certify_s": group_s.get("presets.certify", 0.0),
        "rewrite.ambiguities": t["ambiguities"],
        "rewrite.normalize_calls": count("rewrite.ReductionSystem.normalize"),
        "rewrite.normalize_s": self_s.get("rewrite.ReductionSystem.normalize", 0.0),
        "rewrite.basis_s": group_s.get("rewrite.basis", 0.0),
        "freealg.element_mul_calls": count(
            "freealg.Element.__mul__", "freealg.Element.__rmul__"
        ),
        "freealg.element_add_calls": count(
            "freealg.Element.__add__", "freealg.Element.__radd__"
        ),
        "freealg.self_s": layer_self("freealg."),
        "scalars.scalar_mul_calls": count("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__"),
        "scalars.hpoly_mul_calls": count("scalars.HPoly.__mul__", "scalars.HPoly.__rmul__"),
        "scalars.fraction_ops": t["fraction_ops"],
        "scalars.mul_s": group_s.get("scalars.mul", 0.0),
        "grading.eval_calls": count("grading.CommutationFactor.eval"),
        "grading.verify_factor_s": group_s.get("grading.verify_factor", 0.0),
        "deformation.mu_n_calls": count("deformation.DeformationExpansion.mu_n"),
        "deformation.mu_n_s": group_s.get("deformation.mu_n", 0.0),
        "brackets.poisson_s": group_s.get("brackets.poisson", 0.0),
        "brackets.commutator_s": group_s.get("brackets.commutator", 0.0),
        "brackets.verify_s": group_s.get("brackets.verify", 0.0),
        "structure.verify_s": group_s.get("structure.verify", 0.0),
        "matrices.probe_s": group_s.get("matrices.probe", 0.0),
    }
