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
from symbidisc.gamma_pairs import check_pure, defect_operator, make_operator_pair, symmetrize_pair
from symbidisc.generators import (
    random_commuting_contractions,
    random_fhat,
    rng_from_seed,
    scaled_pair,
)
from symbidisc import von_neumann
from symbidisc.model_theory import build_model
from symbidisc.varieties import DeterminantalVariety
from symbidisc.von_neumann import MatrixPolynomial, lambda_variety, vn_report

S_POLY = MatrixPolynomial.scalar([[0], [1]])  # f(s, p) = s


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
    vn_report(S_POLY, pair, m=8)
    (_, _, variety, _), = von_neumann._REPORTED
    vn_report(S_POLY, dup, m=8)
    (held, _, dup_variety, _), = von_neumann._REPORTED
    assert held is dup and dup_variety is not variety


HELD = {"C", "B", "s_radius"}


def _held_pair():
    """A fresh pair whose held values have all been read."""
    t1, t2 = random_commuting_contractions(rng_from_seed(92), 3)
    pair = make_operator_pair(t1 + t2, t1 @ t2)
    pair.C, pair.B, pair.s_radius, defect_operator(pair.P)
    return pair


def test_the_model_leaves_no_adjoint_on_the_pair():
    pair = _held_pair()
    build_model(pair)
    assert set(vars(pair)) == {f.name for f in dataclasses.fields(pair)} | HELD


def test_held_state_is_read_only(fundamental_solves):
    pair = _held_pair()
    assert HELD <= set(vars(pair))
    dd = defect_operator(pair.P)
    assert defect_operator(pair.P) is dd
    build_model(pair)
    adj = fundamental_solves[-1]  # (S*, P*), formed by the model
    assert adj.P.flags.owndata and adj.S.flags.owndata
    assert np.array_equal(adj.S, pair.S.conj().T) and np.array_equal(adj.P, pair.P.conj().T)
    held = [pair.C, pair.B, adj.S, adj.P, dd.D, dd.basis, dd.eigenvalues, dd.kernel, dd.unitary]
    for m in held:
        assert not m.flags.writeable
        if m.size:
            with pytest.raises(ValueError, match="read-only"):
                m[(0,) * m.ndim] = 7.0


def test_the_adjoints_fundamental_solve_holds_b_alone(fundamental_solves):
    # G of (S*, P*) reads S* - S P* but not I - P P*
    build_model(_held_pair())
    adj = fundamental_solves[-1]
    assert "B" in vars(adj) and "C" not in vars(adj)


PROTOCOL_COPIERS = {
    **{f"pickle-{k}": lambda obj, k=k: pickle.loads(pickle.dumps(obj, protocol=k)) for k in (4, 5)},
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


@pytest.mark.parametrize("how", PROTOCOL_COPIERS)
def test_a_copied_pair_owns_its_matrices_and_splits_p_once(how, split_solves):
    # under protocol 5 numpy unpickles an array as a read-only view of the
    # pickle's buffer, whose split ``defect_operator`` would not hold
    t1, t2 = random_commuting_contractions(rng_from_seed(93), 3)
    dup = PROTOCOL_COPIERS[how](make_operator_pair(t1 + t2, t1 @ t2))
    assert dup.S.flags.owndata and dup.P.flags.owndata
    assert not dup.S.flags.writeable and not dup.P.flags.writeable
    check_pure(dup.P)
    check_pure(dup.P)
    solve_fundamental(dup)
    assert len(split_solves) == 1


@pytest.mark.parametrize("how", COPIERS)
def test_copies_carry_no_held_state(how):
    pair = _held_pair()
    fund = solve_fundamental(pair)
    dup = COPIERS[how](pair)
    assert not HELD & set(vars(dup))
    assert solve_fundamental(dup) is not fund


def test_a_writeable_matrix_is_split_afresh():
    p = 0.5 * np.eye(2, dtype=complex)
    first = defect_operator(p)
    p[0, 0] = 0.0
    second = defect_operator(p)
    assert np.array_equal(first.eigenvalues, [0.75, 0.75])
    assert np.array_equal(second.eigenvalues, [0.75, 1.0])


def test_a_read_only_view_is_split_afresh():
    # the view cannot be written, but the array it views can
    base = 0.5 * np.eye(2, dtype=complex)
    view = base[:]
    view.flags.writeable = False
    first = defect_operator(view)
    base[0, 0] = 0.0
    assert defect_operator(view) is not first
    assert np.array_equal(defect_operator(view).eigenvalues, [0.75, 1.0])
