"""The benchmark's traced layers must exist in the package.

``perfbench/tracer.py`` wraps each ``"module:qualname"`` in ``TRACED`` and
the benchmark builds its per-layer metrics from those spans. A renamed or
deleted layer function would silently drop its metrics from a traced run,
so the names are checked here. The file is parsed, not imported.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED tuple")


@pytest.mark.parametrize("name", traced_names())
def test_traced_layer_resolves(name):
    module, qualname = name.split(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
