"""The benchmark tracer's layer table names only what the package defines.

`perfbench/tracing.py::install()` wraps every (owner, attr) in `LAYERS` and
raises on a missing one, so a rename or removal in `src/` would break the
traced benchmark run.  The module is imported read-only: nothing is wrapped.
"""
import importlib
import os
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
