"""Every span that the benchmark's tracer rebinds names a function of the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    """Each span name ``perfbench/tracing.py`` installs, read from the module without running ``install``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {name for names in tracing.SELF_TIME.values() for name in names}
    names |= set(tracing.CALLS.values())
    names |= {span for span, _ in tracing.TALLIES.values()}
    names |= set(tracing.YIELDS.values())
    return sorted(names)


@pytest.mark.parametrize("name", traced_names())
def test_each_traced_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"gammacomplex.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj), name
