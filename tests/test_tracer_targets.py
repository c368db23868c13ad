"""The benchmark's span tracer wraps daha functions by name; every name it lists must exist.

perfbench/tracer.py rebinds each TARGETS entry when a benchmark runs with --trace 1, and a
missing name raises AttributeError there.  Loading the module by path, without installing it,
turns a deleted or renamed target into a failure here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("mod_name, path, metric", _targets())
def test_target_resolves(mod_name, path, metric):
    owner = importlib.import_module(mod_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # a method is read from the class dict, as the tracer rebinds it there
    assert attr in (vars(owner) if cls_path else dir(owner)), f"{metric}: {mod_name}.{path} is gone"
    assert callable(getattr(owner, attr))
