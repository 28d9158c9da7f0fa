"""The benchmark tracer's layer table names only what the package defines.

`perfbench/tracing.py::install()` wraps every (owner, attr) in `LAYERS` and
raises on a missing one, so a rename or removal in `src/` would break the
traced benchmark run.  Here the module is imported read-only and nothing is
wrapped; `install()` itself runs only in child processes.
"""
import importlib
import os
import subprocess
import sys

import pytest

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _layers():
    sys.path.insert(0, _BENCH)
    try:
        import tracing
    finally:
        sys.path.remove(_BENCH)
    return [(path, attr) for owners in tracing.LAYERS.values()
            for path, names in owners for attr in names]


@pytest.mark.parametrize("path,attr", _layers())
def test_every_traced_name_resolves(path, attr):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"epsalg.{module}")
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


_SRC = os.path.join(os.path.dirname(_BENCH), "src")


@pytest.mark.parametrize("imports", ["import epsalg", "import epsalg; import epsalg.cli"])
def test_install_traces_a_lazily_loaded_package(imports):
    # `install()` looks every owner up in sys.modules and wraps the names
    # bound in each loaded epsalg module; both must work while the library
    # modules are still registered but not yet run.
    code = (
        f"import sys; sys.path[:0] = [{_SRC!r}, {_BENCH!r}]; {imports}; import tracing; "
        "tr = tracing.install(); tr.begin('probe'); epsalg.parse_preset('boson:n=1'); "
        "tr.end(); print(tr.calls['presets.parse_preset'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
