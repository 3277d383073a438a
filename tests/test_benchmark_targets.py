"""The benchmark's traced pass wraps library functions by name; every name
it lists must still exist, or deleting one from ``dsest`` would silently
break that pass."""

import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("metric", sorted(tracer.TARGETS))
def test_trace_target_resolves(metric):
    module, path = tracer.TARGETS[metric]
    owner, attr = tracer._resolve(module, path)
    assert callable(getattr(owner, attr)), f"{module}.{path} is not callable"
