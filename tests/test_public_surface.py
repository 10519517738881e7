"""The package's public names, and the names the benchmark tracer rebinds.

`perfbench/tracing.py` rebinds functions by module and attribute name; a
refactor that drops one of them would crash a traced benchmark run, so the
names are checked here, reading that file as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import pathhopf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({**tracing.TIMED, **tracing.COUNTED}.items())


@pytest.mark.parametrize("name", pathhopf.__all__)
def test_public_name_imports(name):
    assert getattr(pathhopf, name) is not None


@pytest.mark.parametrize("layer, target", traced_targets())
def test_traced_target_resolves(layer, target):
    module, attr = target
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), layer
