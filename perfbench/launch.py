"""Runs one `epsalg` command from the source tree, optionally traced.

    python3 perfbench/launch.py [--trace-out TRACE.json] <epsalg arguments>

The cli-session workload starts every command through this file, so that
its children import the checkout's `src/epsalg` rather than an installed
copy.  With --trace-out the same wrappers as the traced worker are
installed before `epsalg.cli.run`, and the totals and spans are written
to TRACE.json when the command ends.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    import epsalg.cli

    if trace_out is None:
        return epsalg.cli.run(argv)
    from tracing import install

    tracer = install()
    tracer.begin("cli " + (argv[0] if argv else ""))
    try:
        return epsalg.cli.run(argv)
    finally:
        tracer.end()
        tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
