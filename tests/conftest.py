import sys

import pytest

import symbidisc.fundamental
import symbidisc.gamma_pairs
import symbidisc.numerics
import symbidisc.varieties
import symbidisc.von_neumann


@pytest.fixture(autouse=True)
def _empty_memos():
    """Each test starts with nothing held: no vn record, split, fundamental
    operator, monomials or powers of p over a grid."""
    symbidisc.von_neumann._REPORTED.clear()
    symbidisc.gamma_pairs._SPLITS.clear()
    symbidisc.fundamental._held_fundamental.cache_clear()
    symbidisc.von_neumann._pair_monomials.cache_clear()
    symbidisc.von_neumann._grid_powers.cache_clear()


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


def _counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records its first argument."""
    calls = []
    solve = getattr(module, name)

    def counting(x, *args):
        calls.append(x)
        return solve(x, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def split_solves(monkeypatch):
    """List of the matrices P whose split ``defect_operator`` solves (one
    eigensolve of I - P*P each) while the test runs; held splits are not
    solved."""
    return _counting(monkeypatch, symbidisc.gamma_pairs, "_split")


@pytest.fixture
def fundamental_solves(monkeypatch):
    """List of the pairs whose fundamental equation ``solve_fundamental``
    solves while the test runs; held solutions are not solved."""
    return _counting(monkeypatch, symbidisc.fundamental, "_fundamental")


@pytest.fixture
def fiber_solves(monkeypatch):
    """Sizes of the pencil stacks that ``symbidisc.varieties`` hands to
    ``eigvalsh`` while the test runs: their sum is the number of unimodular
    fibers solved."""
    sizes = []
    build = symbidisc.varieties.circle_pencils

    def counting(k, w, c=None):
        sizes.append(len(w))
        return build(k, w, c)

    monkeypatch.setattr(symbidisc.varieties, "circle_pencils", counting)
    return sizes
