import importlib
import pkgutil

import pytest

import symbidisc

MODULES = [
    importlib.import_module(f"symbidisc.{info.name}")
    for info in pkgutil.iter_modules(symbidisc.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert module.__all__, "every module lists its public names"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
