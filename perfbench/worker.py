"""Runs one workload's operations in a fresh interpreter and records them.

    python3 perfbench/worker.py --workload W --ops OPS.json --out OUT.json [--trace]
    python3 perfbench/worker.py --workload W --setup-only [--setup-cpu K]

The set-up timer starts before `import epsalg` and stops once every
algebra the workload uses is built and certified.  Each operation is
timed on its own, on the CPU its slot names, after a garbage collection,
with its inputs prepared and its outputs rendered outside the timed
region.  Nothing is checked
here; the outputs go to OUT.json for run.py's oracles.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
CLI_TIMEOUT_S = 60
# The CPUs this process may use.  Each CPU of a shared machine can run at
# its own speed for minutes at a time, so the worker takes them in turn
# (children inherit the choice) instead of staying on whichever one the
# scheduler picks for a whole run.
CPUS = sorted(os.sched_getaffinity(0))


def use_cpu(k: int) -> None:
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def setup(workload: str, traced: bool = False):
    """Import epsalg and build every algebra the workload uses.

    Returns (module, algebras, seconds, tracer).  A preset marked with "~"
    also gets its deformation expansion, which builds the classical limit.
    When traced, the wrappers go in right after the import, so the tracer
    sees the builds but not the import.
    """
    gc.collect()
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import epsalg

    if Path(epsalg.__file__).resolve().parent != ROOT / "src" / "epsalg":
        raise SystemExit(f"epsalg was imported from {epsalg.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if traced:
        from tracing import install

        tracer = install()
        tracer.begin("setup")
    algebras = {}
    for spec in workloads.SETUP[workload]:
        name = spec.rstrip("~")
        alg = epsalg.parse_preset(name)
        algebras[name] = alg
        if spec.endswith("~"):
            algebras[spec] = epsalg.DeformationExpansion(alg)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    return epsalg, algebras, seconds, tracer


def _normalize(E, algebras, op):
    alg = algebras[op["preset"]]

    def run():
        x = alg.parse(op["text"])
        system = E.ReductionSystem(alg.system.generators, alg.system.rules)
        return str(system.normalize(x))

    return run, lambda out: {"nf": out}


def _laws(E, algebras, op):
    exp = algebras[op["preset"] + "~"]
    x, y, z = E.sample_triples(exp.classical, 1, op["seed"])[0]
    extra = None
    if op["extra"]:
        extra_alg = algebras[op["extra"]]
        extra = (extra_alg, E.sample_triples(extra_alg, 1, op["seed"])[0])

    def run():
        quantum = E.BracketContext.quantum(exp.quantum)
        classical = E.BracketContext.classical(exp)
        comm = E.epsilon_commutator(quantum, x, y)
        bracket = E.poisson_bracket(classical, x, y)
        return {
            "poisson_failures": E.verify_poisson_axioms(classical, [(x, y, z)]),
            "lie_failures": E.verify_lie_axioms(quantum, [(x, y, z)]),
            "comm": comm,
            "bracket": bracket,
            "first_order": comm.h_coefficient(1) == bracket,
            "residuals": [E.check_deformation_identity(exp, x, y, z, k) for k in range(4)],
            "extra_failures": (
                E.verify_lie_axioms(E.BracketContext.quantum(extra[0]), [extra[1]]) if extra else []
            ),
        }

    def render(out):
        return dict(
            out,
            x=str(x),
            y=str(y),
            z=str(z),
            comm=str(out["comm"]),
            bracket=str(out["bracket"]),
            residuals=[str(r) for r in out["residuals"]],
        )

    return run, render


class _Cli:
    """Runs each command as a child process through the launcher."""

    def __init__(self, out_dir: Path, traced: bool):
        self.out_dir = out_dir
        self.traced = traced
        self.count = 0

    def __call__(self, E, algebras, op):
        k = self.count
        self.count += 1
        argv = list(op["argv"])
        if "pair" in op:
            path = self.out_dir / f"pair-{k}.json"
            path.write_text(json.dumps(op["pair"]))
            argv.append(str(path))
        cmd = [sys.executable, str(LAUNCHER)]
        if self.traced:
            cmd += ["--trace-out", str(self.out_dir / f"trace-cli-{k}.json")]
        cmd += argv

        def run():
            return subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, cwd=ROOT)

        def render(proc):
            return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

        return run, render


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--ops", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-cpu", type=int, default=0, help="index of the CPU for set-up")
    args = parser.parse_args(argv)

    use_cpu(args.setup_cpu)
    if args.setup_only:
        seconds = setup(args.workload)[2]
        print(json.dumps({"setup_s": seconds}))
        return 0

    ops = json.loads(args.ops.read_text())
    cli = args.workload == "cli-session"
    if cli:
        # The children build what they use; this process never imports epsalg.
        E, algebras, setup_s, tr = None, {}, None, None
        prepare = _Cli(args.out.parent, args.trace)
    else:
        E, algebras, setup_s, tr = setup(args.workload, args.trace)
        prepare = {"normal-order": _normalize, "law-check": _laws}[args.workload]

    records = []
    for k, op in enumerate(ops):
        run, render = prepare(E, algebras, op)
        use_cpu(op["slot"])
        # Collect, then freeze what survives: a collection that lands inside
        # the operation walks only the objects made since, and the next
        # collection here stays cheap however large the memos grow.
        gc.collect()
        gc.freeze()
        if tr is not None:
            tr.begin(f"op {k}")
        start = time.perf_counter()
        try:
            out, error = run(), None
        except Exception as exc:  # one failed operation must not end the run
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tr is not None:
            tr.end()
        if error is None:
            records.append({"s": seconds, "out": render(out)})
        else:
            records.append({"s": seconds, "error": error})

    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "ops": records,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tr is not None:
        trace_path = args.out.parent / "trace-worker.json"
        tr.dump(str(trace_path))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
