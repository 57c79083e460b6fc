"""Verdicts on the near-boundary corpus, which are known by construction."""

import pytest

from symbidisc.fundamental import solve_fundamental
from symbidisc.gamma_pairs import check_gamma_contraction, check_pure
from symbidisc.generators import random_matrix_polynomial, rng_from_seed
from symbidisc.model_theory import build_model
from symbidisc.numerics import DEFAULT_TOL
from symbidisc.von_neumann import MatrixPolynomial, lambda_variety, vn_report

from _corpus import mixed_pair, near_unitary_pair

S_POLY = MatrixPolynomial.scalar([[0], [1]])  # f(s, p) = s


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
