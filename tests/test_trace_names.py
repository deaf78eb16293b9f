"""The benchmark's traced run wraps functions by (module, attribute).

A name that mhdbl no longer binds is reported there as `absent` and its
per-layer metrics read 0, which is easy to miss; this pins every wrapped
name to an attribute that exists.
"""

import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def wrapped_names():
    # executed from source so no bytecode is written under perfbench/
    child = {"__name__": "perfbench_child"}
    exec(compile(CHILD.read_text(), str(CHILD), "exec"), child)
    return [(mod, attr) for mod, attr, _ in child["WRAPPED"]]


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_name_resolves(module, attr):
    mod = importlib.import_module(f"mhdbl.{module}")
    assert callable(getattr(mod, attr, None)), f"mhdbl.{module}.{attr}"
