"""Export lists name only what their modules define."""

import importlib
import pkgutil

import softmax_bounds


def test_export_lists_resolve():
    missing = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(softmax_bounds.__path__, "softmax_bounds.")
        for name in getattr(importlib.import_module(info.name), "__all__", ())
        if not hasattr(importlib.import_module(info.name), name)
    ]
    missing += [
        f"{target}.{name} (package _EXPORTS)"
        for name, target in softmax_bounds._EXPORTS.items()
        if not hasattr(importlib.import_module(target), name)
    ]
    missing += [
        f"softmax_bounds.{name}"
        for name in softmax_bounds.__all__
        if not hasattr(softmax_bounds, name)
    ]
    assert missing == []
