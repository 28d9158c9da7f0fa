"""The epsalg benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Workloads (see README.md): normal-order, law-check, cli-session.  The
seed and the seconds fix the operation list (workloads.py); a worker in a
fresh interpreter runs it (worker.py) and every output is then judged by
checks.py against oracle.py.  With --trace 0 the last line of stdout
holds the end-to-end metrics; with --trace 1 the same operations run
under the per-layer wrappers of tracing.py and the line holds the
per-layer metrics.  Raw records and traces go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Fresh interpreters timed for set-up in each untraced run, the worker
# included; they take the CPUs in turn and the median is reported.
SETUP_RUNS = 4
# String hashing is fixed for every child, so set iteration order, and
# with it every count, repeats from run to run.
HASH_SEED = "0"
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 120

CLI_LAYER = {
    "presets": "cli.startup_ms",
    "normalize": "cli.normalize_ms",
    "bracket": "cli.bracket_ms",
    "mu": "cli.mu_ms",
    "confluence": "cli.confluence_ms",
    "dim": "cli.dim_ms",
    "verify": "cli.verify_ms",
    "rank": "cli.rank_ms",
}

UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def _python(args: list, timeout: float, env: dict) -> subprocess.CompletedProcess:
    """Run a child interpreter in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def measure_setup(workload: str, cpu: int, env: dict) -> float:
    cmd = [str(HERE / "worker.py"), "--workload", workload, "--setup-only", "--setup-cpu", str(cpu)]
    proc = _python(cmd, SETUP_TIMEOUT_S, env)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(times: list, setup: list, peak_rss_mb: float) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(run_dir: Path, ops: list, records: list) -> dict:
    totals = [
        json.loads(path.read_text())["totals"] for path in sorted(run_dir.glob("trace-*.json"))
    ]
    metrics = {name: 0.0 for name in CLI_LAYER.values()}
    by_command = {}
    for op, rec in zip(ops, records):
        if op["kind"] == "cli" and "error" not in rec:
            by_command.setdefault(op["argv"][0], []).append(rec["s"])
    for command, times in by_command.items():
        metrics[CLI_LAYER[command]] = 1000 * statistics.median(times)
    metrics.update(tracing.layer_metrics(tracing.merge(totals), len(ops)))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "epsalg" / "__init__.py").is_file():
        print(f"error: no epsalg source tree at {ROOT / 'src' / 'epsalg'}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workloads.operations(args.workload, args.seed, args.seconds)
    (run_dir / "ops.json").write_text(json.dumps(ops))
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)

    cmd = [
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--ops", str(run_dir / "ops.json"),
        "--out", str(run_dir / "result.json"),
    ]
    if args.trace:
        cmd.append("--trace")
    proc = _python(cmd, WORKER_TIMEOUT_S, env)
    if proc.returncode != 0:
        print(f"error: worker failed: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "result.json").read_text())
    records = result["ops"]
    setup = []
    if not args.trace:
        # The worker's own set-up is one sample when it builds the algebras.
        if result["setup_s"] is not None:
            setup.append(result["setup_s"])
        setup += [measure_setup(args.workload, k, env) for k in range(len(setup), SETUP_RUNS)]

    failed = sum(1 for rec in records if "error" in rec)
    problems = []
    for k, (op, rec) in enumerate(zip(ops, records)):
        if "error" not in rec:
            problems.extend(f"operation {k}: {p}" for p in checks.check(op, rec["out"]))
    for rec in records:
        if "error" in rec:
            print(f"failed: {rec['error']}", file=sys.stderr)
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)

    times = [rec["s"] for rec in records if "error" not in rec]
    if args.trace:
        values = per_layer(run_dir, ops, records)
    else:
        values = end_to_end(times, setup, result["peak_rss_mb"])
    line = {
        "correct": not problems and bool(times),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": _unit(name)} for name, v in values.items()},
    }
    summary = dict(
        line,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        python=sys.version.split()[0],
        nproc=os.cpu_count(),
        pythonhashseed=HASH_SEED,
        setup_samples=setup,
        problems=problems,
    )
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
