"""README's library example runs as written, every name a module exports
resolves, and no module imports a name it neither uses nor exports, so
none of them goes stale when the API changes."""

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
