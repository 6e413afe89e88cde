"""The benchmark's traced run wraps only public functions defined in the
measured `sarqc` modules; every name bench/spec.py expects to see called
must be one, or the traced run fails on a rename the suite did not see."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPEC_PATH = Path(__file__).resolve().parents[1] / "bench" / "spec.py"


def load_bench_spec():
    spec = importlib.util.spec_from_file_location("bench_spec", SPEC_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPECTED = sorted({name for names in load_bench_spec().EXPECTED_CALLS.values() for name in names})


@pytest.mark.parametrize("name", EXPECTED)
def test_expected_call_is_a_public_sarqc_function(name):
    short, attr = name.split(".")
    module = importlib.import_module(f"sarqc.{short}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn), f"{name} is not a function"
    assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"
