"""Pairs, fundamental operators and varieties own read-only matrices.

Each caches values derived from its matrices (norms and commutator
defect, ``nr``, the boundary grid), so an in-place write would leave
them stale: the write raises instead.  Equality and hash are by identity,
and the constructors copy what the caller passes in.  Pickle and copy
rebuild through the constructor as well.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from symbidisc.fundamental import solve_fundamental, truncated_model_from_F
from symbidisc.gamma_pairs import make_operator_pair, symmetrize_pair
from symbidisc.generators import (
    random_commuting_contractions,
    random_fhat,
    rng_from_seed,
    scaled_pair,
)
from symbidisc import von_neumann
from symbidisc.model_theory import build_model
from symbidisc.numerics import DEFAULT_TOL
from symbidisc.varieties import DeterminantalVariety
from symbidisc.von_neumann import lambda_variety


def _cases():
    """(name, object, its matrix fields, the arrays the caller passed in)."""
    rng = rng_from_seed(91)
    t1, t2 = random_commuting_contractions(rng, 3)
    s, p = t1 + t2, t1 @ t2
    pair = make_operator_pair(s, p)
    f = random_fhat(rng, 2)
    model_pair = truncated_model_from_F(f, 3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return [
        ("make_operator_pair", pair, ("S", "P"), (s, p)),
        ("symmetrize_pair", symmetrize_pair(t1, t2), ("S", "P"), (t1, t2)),
        ("scaled_pair", scaled_pair(pair, 0.5), ("S", "P"), ()),
        ("truncated_model_from_F", model_pair, ("S", "P"), (f,)),
        ("solve_fundamental", solve_fundamental(pair), ("F",), ()),
        ("build_model", build_model(model_pair).fund_adjoint, ("F",), ()),
        ("lambda_variety", lambda_variety(pair), ("A",), ()),
        ("from_matrix", DeterminantalVariety.from_matrix(a), ("A",), (a,)),
    ]


CASES = _cases()


@pytest.mark.parametrize("name, obj, fields, given", CASES, ids=[c[0] for c in CASES])
def test_matrices_are_read_only_and_identity_compared(name, obj, fields, given):
    for field in fields:
        m = getattr(obj, field)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            m += 1.0
    assert hash(obj) == hash(obj)
    assert obj == obj
    copy = dataclasses.replace(obj, **{f: getattr(obj, f).copy() for f in fields})
    assert all(np.array_equal(getattr(copy, f), getattr(obj, f)) for f in fields)
    assert obj != copy
    for x in given:
        assert x.flags.writeable
        assert not any(np.shares_memory(x, getattr(obj, f)) for f in fields)


def test_equal_content_pairs_are_distinct_keys():
    s = np.array([[1.0, 0.5], [0.0, 1.0]], complex)
    p = 0.25 * np.eye(2, dtype=complex)
    a, b = make_operator_pair(s, p), make_operator_pair(s, p)
    assert a != b
    assert len({a, b, a}) == 2


COPIERS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


@pytest.mark.parametrize("how", COPIERS)
@pytest.mark.parametrize("name, obj, fields, given", CASES, ids=[c[0] for c in CASES])
def test_copies_are_rebuilt_read_only_without_cached_values(name, obj, fields, given, how):
    if hasattr(obj, "nr"):
        obj.nr
    if isinstance(obj, DeterminantalVariety):
        obj._boundary(8)
    dup = COPIERS[how](obj)
    assert type(dup) is type(obj) and dup is not obj and dup != obj
    for field in fields:
        m = getattr(dup, field)
        assert np.array_equal(m, getattr(obj, field))
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 7.0
    assert not {"nr", "_grid"} & set(vars(dup))


def test_a_pickled_pair_is_a_new_memo_key():
    pair = CASES[0][1]
    dup = pickle.loads(pickle.dumps(pair))
    assert von_neumann._pair_variety(dup, DEFAULT_TOL) is not von_neumann._pair_variety(
        pair, DEFAULT_TOL)
