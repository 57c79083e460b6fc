import sys

import pytest

import symbidisc.numerics


@pytest.fixture
def radius_solves(monkeypatch):
    """List of the matrices passed to ``numerical_radius`` through any
    ``symbidisc`` module while the test runs."""
    calls = []
    solve = symbidisc.numerics.numerical_radius

    def counting(a):
        calls.append(a)
        return solve(a)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "symbidisc" and getattr(module, "numerical_radius", None) is solve:
            monkeypatch.setattr(module, "numerical_radius", counting)
    return calls
