"""README's library example runs as written, every name a module exports
resolves, no module imports a name it neither uses nor exports, and every
private module-level name is used somewhere in the package, so none of
them goes stale when the API changes."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import asyncrelay

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["asyncrelay", *(f"asyncrelay.{m.name}" for m in pkgutil.iter_modules(asyncrelay.__path__))]


def test_the_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace = {}
    exec(compile(block, f"{README.name}, ## Library use", "exec"), namespace)
    code, link = namespace["code"], namespace["link"]
    assert namespace["decided"].shape == (link.n_fft, len(code.alphabet))
    assert namespace["symbols"].shape == (link.n_fft, code.symbol_count)


def test_every_module_is_checked():
    assert {"asyncrelay.decoder", "asyncrelay.harness", "asyncrelay.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    imported = importlib.import_module(module)
    assert len(set(imported.__all__)) == len(imported.__all__)
    assert [name for name in imported.__all__ if not hasattr(imported, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used_or_exported(module):
    # ``from __future__`` and ``import a.b`` are made for their effect, not for a name
    path = importlib.import_module(module).__file__
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
        if alias.asname or "." not in alias.name
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(importlib.import_module(module).__all__)) == []


def _private_definitions(tree: ast.Module):
    """The private names (a leading ``_``, not a dunder) that a module's
    top-level statements define: functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


def test_every_private_module_level_name_is_used_in_the_package():
    trees = {module: ast.parse(Path(importlib.import_module(module).__file__).read_text(encoding="utf-8")) for module in MODULES}
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    defined = [(module, name) for module, tree in trees.items() for name in _private_definitions(tree)]
    assert len(defined) > 50
    assert [(module, name) for module, name in defined if name not in loaded] == []
