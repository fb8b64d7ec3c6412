"""The benchmark's trace wrappers patch package attributes by name; a name
that no longer resolves breaks a traced run, which the untraced runs never
exercise."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_the_package(tracing):
    assert tracing.TARGETS
    for module, attr, name, _ in tracing.TARGETS:
        assert module.__name__.startswith("tfim_dephasing."), name
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
