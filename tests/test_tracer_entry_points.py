"""The benchmark's tracer wraps program functions that it names as
``(module, attribute)`` pairs in ``bench/tracer.py``.  A rename in ``kahlerstar``
breaks only its trace mode, which the unit tests do not run, so each name is
resolved here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.ENTRY_POINTS


def test_every_traced_entry_point_resolves():
    entry_points = _entry_points()
    assert entry_points
    for module_name, attribute, _span in entry_points:
        owner = importlib.import_module(f"kahlerstar.{module_name}")
        for part in attribute.split("."):  # "Class.method" names a method
            assert hasattr(owner, part), f"kahlerstar.{module_name}.{attribute} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"kahlerstar.{module_name}.{attribute} is not callable"
