"""Verdicts on the near-boundary corpus, which are known by construction."""

import numpy as np
import pytest
import scipy.linalg

from symbidisc.fundamental import solve_fundamental
from symbidisc.gamma_pairs import check_gamma_contraction, check_pure, make_operator_pair
from symbidisc.generators import random_matrix_polynomial, rng_from_seed
from symbidisc.model_theory import build_model
from symbidisc.numerics import DEFAULT_TOL, operator_norm
from symbidisc.varieties import DeterminantalVariety, DistinguishedStatus, classify_distinguished
from symbidisc.von_neumann import MatrixPolynomial, lambda_variety, vn_report

from _corpus import mixed_pair, near_unitary_pair, nilpotent_matrix

EPS = np.finfo(float).eps

S_POLY = MatrixPolynomial.scalar([[0], [1]])  # f(s, p) = s


def _adjoint_fiber_gap(pair, orient):
    """Largest distance between the fibers of A + p A* and those of
    orient(B) + p orient(B)* at 64 unimodular p, in units of eps (1 + ||A||).

    A is ``lambda_variety``'s representation F (+) S_u / 2 of (S, P) and B
    that of the adjoint pair (S*, P*).  Both fibers come back as
    e^{i theta / 2} times ascending reals, so the gap is taken index by
    index.
    """
    a = lambda_variety(pair).A
    b = orient(lambda_variety(make_operator_pair(pair.S.conj().T, pair.P.conj().T)).A)
    s_a, s_b = (DeterminantalVariety.from_matrix(x)._boundary(64)[1] for x in (a, b))
    assert s_a.shape == s_b.shape
    return float(np.abs(s_a - s_b).max()) / (EPS * (1.0 + operator_norm(a)))


@pytest.fixture(scope="module")
def mixed():
    rng = rng_from_seed(80)
    return [mixed_pair(rng) for _ in range(100)]


class TestMixed:
    def test_member_not_strict_not_pure(self, mixed):
        for pair, _ in mixed:
            verdict = check_gamma_contraction(pair)
            assert verdict.is_member
            assert verdict.margin <= DEFAULT_TOL.psd_tol
            assert not check_pure(pair.P)

    def test_unitary_part_is_the_planted_one(self, mixed):
        # the pure part has a full-rank defect, so the representation
        # F (+) S_u / 2 has the dimension of the pair
        for pair, k in mixed:
            assert solve_fundamental(pair).defect.rank == pair.dim - k
            assert lambda_variety(pair).dim == pair.dim

    def test_pure_part_is_strict_and_its_variety_distinguished(self, mixed):
        # the unitary part of P reduces the pair, and on its complement lies
        # the pure pair that mixed_pair planted the points next to: on these
        # 100 pairs each is strict, and the paper says that the variety of a
        # strict pair is distinguished
        for pair, _ in mixed:
            w = scipy.linalg.null_space(solve_fundamental(pair).defect.unitary.conj().T)
            pure = make_operator_pair(w.conj().T @ pair.S @ w, w.conj().T @ pair.P @ w)
            assert check_gamma_contraction(pure).margin > DEFAULT_TOL.psd_tol
            verdict = classify_distinguished(lambda_variety(pure))
            assert verdict.status == DistinguishedStatus.DISTINGUISHED_CERTIFIED

    def test_variety_of_the_adjoint_pair_is_the_adjoint_one(self, mixed):
        # ROADMAP item 9 across the S_u / 2 block: B* + p B has the fibers
        # of A + p A*, at most 9.1 units on these 100 pairs, while B + p B*
        # is off by more than 1e14 units on every one of them
        assert max(_adjoint_fiber_gap(pair, lambda b: b.conj().T) for pair, _ in mixed) <= 64.0
        assert min(_adjoint_fiber_gap(pair, lambda b: b) for pair, _ in mixed) > 64.0

    def test_every_report_holds(self, mixed):
        rng = rng_from_seed(81)
        reports = [vn_report(random_matrix_polynomial(rng), pair)
                   for pair, _ in mixed for _ in range(3)]
        assert [r.ratio for r in reports if not r.holds] == []


# delta >= 3e-11 keeps the near-unitary direction in the defect space,
# delta <= 2e-11 cuts it and it becomes the unitary part
@pytest.mark.parametrize("delta, split", [
    (1e-10, False), (3e-11, False), (2e-11, True), (1e-11, True), (1e-13, True),
])
def test_near_unitary(delta, split):
    pair = near_unitary_pair(delta)
    assert solve_fundamental(pair).defect.rank == (1 if split else 2)
    assert lambda_variety(pair).dim == 2
    assert check_pure(pair.P) is not split
    rep = vn_report(S_POLY, pair)
    assert rep.holds and rep.ratio <= 1.0 + 1e-9


# pure, but ||P^N|| ~ (1 - delta)^(2N) is still about 1 at the level cap
@pytest.mark.parametrize("delta", [1e-10, 3e-11])
def test_slowly_decaying_pure_pair_has_no_truncated_model(delta):
    pair = near_unitary_pair(delta)
    assert check_pure(pair.P)
    with pytest.raises(
        ValueError,
        match=r"^tail 1\.000e\+00 above target at the level cap 4096: P is pure, "
        r"but \|\|P\^N\|\| does not reach 1e-08 within the cap, so the truncated model "
        r"does not apply$",
    ):
        build_model(pair)


@pytest.mark.parametrize("k", range(2, 7))
def test_nilpotent(k):
    # omega = 1 and no unimodular eigenvalue: neither certified criterion
    # applies, and every sampled limit point lies on the distinguished
    # boundary, at |s| = 2 up to rounding
    v = DeterminantalVariety.from_matrix(nilpotent_matrix(k))
    verdict = classify_distinguished(v)
    assert verdict.status == DistinguishedStatus.DISTINGUISHED_EMPIRICAL
    assert abs(v.nr - 1.0) <= 4 * EPS  # at most 2 eps off for k = 2..6
    assert abs(verdict.s_margin) <= 16 * EPS  # at most 8 eps for k = 2..6
