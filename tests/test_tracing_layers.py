"""The benchmark's layer table names functions that exist.

``perfbench/tracing.py`` wraps every layer in ``LAYERS`` by module and
attribute path; a layer that no longer resolves would only surface when
the benchmark runs.  The module imports nothing from m3sph at import
time, so it is loaded here from its file, read-only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


@pytest.mark.parametrize("layer", _layers(), ids=lambda layer: layer[0])
def test_traced_layer_resolves(layer):
    _, module, path, _ = layer
    obj = importlib.import_module(f"m3sph.{module}")
    for name in path.split("."):
        obj = getattr(obj, name)
    assert callable(obj)
