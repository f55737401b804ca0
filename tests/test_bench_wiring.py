"""The benchmark's traced run wraps glekit functions by module and name."""

import importlib
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_function_exists(monkeypatch):
    # import the modules in place: workloads.import_glekit() would drop the
    # glekit modules that the other tests already hold
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    lib = SimpleNamespace(**{m: importlib.import_module(f"glekit.{m}")
                             for m in workloads.MODULES})
    wrapped = layers._wrapped(lib)
    assert wrapped
    missing = [(module.__name__, attr) for module, attr, *_ in wrapped
               if not callable(getattr(module, attr, None))]
    assert missing == []
    assert issubclass(lib.errors.GlekitError, Exception)  # what a round catches
