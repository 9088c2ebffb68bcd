"""The benchmark's tracer patches library functions by name: every name it
lists must still resolve, or only the traced benchmark run would notice."""

import functools
import importlib
import pathlib
import sys

import pytest

# the benchmark package lives at the repository root, beside `src`
sys.path.append(str(pathlib.Path(__file__).resolve().parents[1]))
from perfbench import tracing  # noqa: E402


@pytest.mark.parametrize("module_name,qualname",
                         tracing.TARGETS + tracing.COUNTED)
def test_traced_name_resolves(module_name, qualname):
    module = importlib.import_module(module_name)
    target = functools.reduce(getattr, qualname.split("."), module)
    assert callable(target)
    if "." in qualname:
        # methods are patched on the class that defines them
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, cls_name))
