"""Every verdict on one pair, in the order of the CLI's subcommands, solves
the split of P, the split of P* and each fundamental operator once.

The order is ``check`` (membership, isometry, purity), ``fundop``, ``vn``
and ``model`` (the dilation model and its check).  A pickled copy of a
pair is a new key of everything held, so the same order on copies solves
each object afresh and is the reference, bit for bit.  Each memo holds
one entry, so what the order leaves held is the last pair's, or that of
the (S*, P*) its model formed.
"""

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

import symbidisc.fundamental
import symbidisc.gamma_pairs
import symbidisc.von_neumann
from symbidisc.fundamental import (
    FundamentalBoundError,
    ResidualTooLargeError,
    solve_fundamental,
    truncated_model_from_F,
)
from symbidisc.gamma_pairs import (
    check_gamma_contraction,
    check_gamma_isometry,
    check_pure,
    defect_operator,
    make_operator_pair,
)
from symbidisc.generators import (
    random_matrix_polynomial,
    random_model_pair,
    random_strict_pair,
    random_symmetrized_pair,
    rng_from_seed,
)
from symbidisc.model_theory import build_model, dilation_check
from symbidisc.numerics import DEFAULT_TOL, Tolerances
from symbidisc.von_neumann import vn_report

from _corpus import mixed_pair, near_unitary_pair, nilpotent_matrix


def _seeded(make, seed, count=4):
    def pairs():
        rng = rng_from_seed(seed)
        return [make(rng) for _ in range(count)]

    return pairs


# the three member families and every near-boundary corpus kind: the
# nilpotent representation enters as the F of a three-block model.  No
# model is built on mixed pairs, which are not pure, nor on near_unitary
# ones: at 1e-10 the tail stays near 1 at the level cap, at 1e-11 P is
# not pure
KINDS = {
    "symmetrized": _seeded(lambda rng: random_symmetrized_pair(rng, int(rng.integers(1, 6))), 60),
    "model": _seeded(random_model_pair, 61),
    "strict": _seeded(lambda rng: random_strict_pair(rng, int(rng.integers(1, 6)), 0.9), 62),
    "mixed": _seeded(lambda rng: mixed_pair(rng)[0], 63),
    "near_unitary": lambda: [near_unitary_pair(d) for d in (1e-10, 1e-11)],
    "nilpotent": lambda: [truncated_model_from_F(nilpotent_matrix(k), 3) for k in (2, 4)],
}


def _cli_order(pair, poly, tol=DEFAULT_TOL):
    """The outputs of check, fundop, vn and model on the pair, and whether
    the model was built."""
    verdict = check_gamma_contraction(pair, tol)
    iso = check_gamma_isometry(pair, tol)
    pure = check_pure(pair.P, tol) if pair.p_norm <= 1.0 + tol.psd_tol else False
    fund = solve_fundamental(pair, tol, contraction_verified=verdict.is_member)
    rep = vn_report(poly, pair, m=256, tol=tol)
    out = [
        verdict.is_member, verdict.margin, verdict.witness.alpha,
        verdict.witness.lambda_min, verdict.witness.vector.tobytes(),
        iso, pure, fund.defect.rank, fund.residual, fund.nr, fund.F.tobytes(), rep,
    ]
    try:
        model = build_model(pair, tol=tol)
    except ValueError as exc:
        return out + [str(exc)], False
    report = dilation_check(model, pair)
    out += [model.N, model.block_dim, model.tail, model.W.tobytes(),
            model.fund_adjoint.F.tobytes(), dataclasses.astuple(report)]
    return out, True


@pytest.mark.parametrize("kind", list(KINDS))
def test_one_split_and_one_solution_per_pair(kind, split_solves, fundamental_solves,
                                             monkeypatch):
    radii = []
    solve = symbidisc.gamma_pairs.spectral_radius
    monkeypatch.setattr(symbidisc.gamma_pairs, "spectral_radius",
                        lambda m: radii.append(m) or solve(m))
    rng = rng_from_seed(64)
    for pair in KINDS[kind]():
        poly = random_matrix_polynomial(rng)
        del split_solves[:], fundamental_solves[:], radii[:]
        got, modelled = _cli_order(pair, poly)
        assert modelled is (kind not in ("mixed", "near_unitary"))
        # P, and P* for the model; F of the pair, and G of the adjoint
        assert [len(split_solves), len(fundamental_solves), len(radii)] == [
            1 + modelled, 1 + modelled, 1]
        # a second run solves P's split and F again where the model's P* and
        # G replaced them, and then P*'s and G for a new (S*, P*)
        del split_solves[:], fundamental_solves[:], radii[:]
        assert repr(_cli_order(pair, poly)[0]) == repr(got)
        assert [len(split_solves), len(fundamental_solves), len(radii)] == [
            2 * modelled, 2 * modelled, 0]
        want, _ = _cli_order(pickle.loads(pickle.dumps(pair)), poly)
        assert repr(got) == repr(want)


def test_errors_are_not_held(fundamental_solves, split_solves):
    # P unitary in one direction; S - S*P has content off the defect space
    pair = make_operator_pair(np.diag([1j, 0.0]), np.diag([1.0, 0.0]))
    for _ in range(2):
        with pytest.raises(ResidualTooLargeError):
            solve_fundamental(pair)
    assert len(fundamental_solves) == 2 and len(split_solves) == 1
    # F = 1.9 is held; the bound is checked again on each call
    pair = make_operator_pair(np.array([[1.9]]), np.array([[0.0]]))
    for _ in range(2):
        with pytest.raises(FundamentalBoundError, match="exceeds 1"):
            solve_fundamental(pair, contraction_verified=True)
    assert len(fundamental_solves) == 3
    assert abs(solve_fundamental(pair).nr - 1.9) <= 1e-12
    expansion = np.array([[2.0]], complex)
    expansion.flags.writeable = False
    for _ in range(2):
        with pytest.raises(ValueError, match="not a contraction"):
            defect_operator(expansion)
    assert len(split_solves) == 4


def test_held_per_tol(split_solves, fundamental_solves):
    # the defect 1 - (1 - delta)^4, about 8e-11, lies below the default
    # rank_tol and above 1e-11
    pair = near_unitary_pair(2e-11)
    fine = Tolerances(rank_tol=1e-11)
    for tol, pure, rank in ((DEFAULT_TOL, False, 1), (fine, True, 2)):
        for _ in range(2):
            assert check_pure(pair.P, tol) is pure
            assert solve_fundamental(pair, tol).defect.rank == rank
    assert len(split_solves) == len(fundamental_solves) == 2
    # one entry each: the first tol again is solved again
    assert solve_fundamental(pair).defect.rank == 1
    assert len(split_solves) == len(fundamental_solves) == 3


def test_each_memo_holds_the_last_pair_alone(fundamental_solves):
    rng = rng_from_seed(65)
    a, b = (random_symmetrized_pair(rng, 3) for _ in range(2))
    poly = random_matrix_polynomial(rng)
    assert _cli_order(a, poly)[1]
    # A and the (S*, P*) of its model
    gone = [weakref.ref(x) for x in fundamental_solves]
    del a, fundamental_solves[:]
    assert _cli_order(b, poly)[1]
    adj = fundamental_solves[-1]
    assert np.array_equal(adj.S, b.S.conj().T) and np.array_equal(adj.P, b.P.conj().T)
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    (p, _, split), = symbidisc.gamma_pairs._SPLITS
    (pair, _, _, reports), = symbidisc.von_neumann._REPORTED
    assert p is adj.P and pair is b and reports == 1
    held = symbidisc.fundamental._held_fundamental
    assert held.cache_info().currsize == 1
    assert held(adj, DEFAULT_TOL).defect is split and len(fundamental_solves) == 2
    for memo in (symbidisc.von_neumann._pair_monomials, symbidisc.von_neumann._grid_powers):
        assert memo.cache_info().currsize == 1
