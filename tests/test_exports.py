import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import symbidisc

MODULES = [
    importlib.import_module(f"symbidisc.{info.name}")
    for info in pkgutil.iter_modules(symbidisc.__path__)
]

PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert module.__all__, "every module lists its public names"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_benchmark_imports_resolve(path):
    # the benchmark imports the package from the same checkout; a name it
    # reads that the package no longer has would fail only the benchmark run
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "symbidisc":
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not hasattr(module, alias.name)
            ]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "symbidisc":
                    importlib.import_module(alias.name)
    assert missing == []
