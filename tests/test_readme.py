"""README's library example runs as written, and every name a module
exports resolves, so neither goes stale when the API changes."""

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
    code, cfg = namespace["code"], namespace["cfg"]
    assert namespace["decided"].shape == (cfg.n_fft, len(code.alphabet))
    assert namespace["symbols"].shape == (cfg.n_fft, code.symbol_count)


def test_every_module_is_checked():
    assert {"asyncrelay.decoder", "asyncrelay.harness", "asyncrelay.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    imported = importlib.import_module(module)
    assert len(set(imported.__all__)) == len(imported.__all__)
    assert [name for name in imported.__all__ if not hasattr(imported, name)] == []
