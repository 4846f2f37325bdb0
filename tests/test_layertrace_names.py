"""The benchmark's tracer looks up the layers it wraps by name; every name
must resolve in the package, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / \
    "layertrace.py"


def _targets():
    # loaded from its file, without adding it to sys.modules
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer,module,attr",
                         [t[:3] for t in _targets()])
def test_traced_name_resolves(layer, module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):  # "Class.method" names a method
        obj = getattr(obj, part)
    assert callable(obj), layer
