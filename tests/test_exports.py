"""Export lists name only what their modules define, and ``src/`` holds only
code that the program reaches."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import softmax_bounds

SRC = pathlib.Path(softmax_bounds.__file__).resolve().parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# definitions that no code in src/ or perfbench/ reaches, kept on purpose
UNREACHED = {
    "trainer.stochastic_gradient": "the ROADMAP's one SGD step kernel API, shared with the tests",
    "datasets.SparseDataset.from_dense": "README documents it as a SparseDataset constructor",
    "datasets.reduce_multilabel": "README documents it as the multilabel loader",
}


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


def _parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _definitions(module, tree):
    """(qualified name, node) of each top-level function and class and each
    method; dunders are left out, since the interpreter calls them."""
    def dunder(node):
        return node.name.startswith("__") and node.name.endswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not dunder(node):
                yield f"{module}.{node.name}", node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not dunder(sub):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _references(tree):
    """(name, node) of every name that the code reads: a ``Name``, an
    ``Attribute`` or an imported name. Strings and docstrings are not code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node


def _resolves(module, name=None):
    """Whether ``module``, or its attribute or submodule ``name``, exists."""
    try:
        if name is not None and hasattr(importlib.import_module(module), name):
            return True
        return importlib.util.find_spec(".".join(filter(None, (module, name)))) is not None
    except ImportError:
        return False


def test_src_holds_only_reached_code():
    """Every definition under ``src/`` is reached, and the benchmark's
    imports of the package resolve.

    A top-level function or class, or a non-dunder method, is reached when
    code in ``src/`` outside its own body or code in ``perfbench/`` names
    it, or when the package's ``_EXPORTS`` lists it. Matching is by name
    alone, so a method whose name another definition shares (``validate``,
    ``to_json_dict``) counts as reached once either is named. Such a
    method can only be found dead by reading the code.

    ``UNREACHED`` lists what is kept though nothing reaches it. An entry
    that is gone, or that is now reached, fails the test as well, so the
    list cannot rot. Every ``from softmax_bounds.X import Y`` and ``import
    softmax_bounds.X`` in ``perfbench/``, inside functions too, must
    resolve; the files are parsed, not imported.
    """
    src = _parse(sorted(SRC.glob("*.py")))
    bench = _parse(sorted(PERFBENCH.glob("*.py")))
    uses = {}
    for tree in (*src.values(), *bench.values()):
        for name, node in _references(tree):
            uses.setdefault(name, []).append(node)

    defined, unreached = set(), set()
    for path, tree in src.items():
        home = f"softmax_bounds.{path.stem}"
        exported = {name for name, m in softmax_bounds._EXPORTS.items() if m == home}
        for qualname, node in _definitions(path.stem, tree):
            defined.add(qualname)
            own = set(map(id, ast.walk(node)))
            if qualname.partition(".")[2] not in exported and all(
                id(use) in own for use in uses.get(node.name, ())
            ):
                unreached.add(qualname)

    problems = [f"{name}: reached by nothing" for name in sorted(unreached - UNREACHED.keys())]
    problems += [
        f"{name}: on UNREACHED but {'now reached' if name in defined else 'gone'}"
        for name in sorted(UNREACHED.keys() - unreached)
    ]
    for path, tree in bench.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                wanted = [(node.module or "", alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                wanted = [(alias.name, None) for alias in node.names]
            else:
                continue
            problems += [
                f"perfbench/{path.name}:{node.lineno}: "
                f"{'.'.join(filter(None, (module, name)))} does not resolve"
                for module, name in wanted
                if module.startswith("softmax_bounds") and not _resolves(module, name)
            ]
    assert problems == []
