import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisc.fundamental import (
    FundamentalBoundError,
    ResidualTooLargeError,
    defect_operator,
    solve_fundamental,
    truncated_model_from_F,
)
from symbidisc.gamma_pairs import check_gamma_contraction, make_operator_pair
from symbidisc.generators import (
    random_fhat,
    random_strict_pair,
    random_symmetrized_pair,
    random_unitary,
    rng_from_seed,
)
from symbidisc.numerics import Tolerances, numerical_radius, operator_norm

from _corpus import rotated_near_unitary_pairs

COARSE = Tolerances(grid_angular=128)


def _scalar_pair(s, p):
    return make_operator_pair(np.array([[s]], complex), np.array([[p]], complex))


class TestDefectOperator:
    def test_zero_contraction(self):
        dd = defect_operator(np.zeros((4, 4)))
        assert np.allclose(dd.D, np.eye(4))
        assert dd.rank == 4

    def test_scalar(self):
        dd = defect_operator(np.array([[0.6]]))
        assert abs(dd.D[0, 0] - 0.8) <= 1e-12
        assert dd.rank == 1

    def test_nilpotent(self):
        p = np.zeros((2, 2), complex)
        p[0, 1] = 0.6
        dd = defect_operator(p)
        assert np.allclose(sorted(np.diag(dd.D).real), [0.8, 1.0])
        assert dd.rank == 2

    def test_square_identity(self):
        rng = rng_from_seed(41)
        for _ in range(20):
            pair = random_symmetrized_pair(rng, int(rng.integers(2, 6)))
            dd = defect_operator(pair.P)
            target = np.eye(pair.dim) - pair.P.conj().T @ pair.P
            assert np.linalg.norm(dd.D @ dd.D - target) <= 1e-10
            gram = dd.basis.conj().T @ dd.basis
            assert np.linalg.norm(gram - np.eye(dd.rank)) <= 1e-10

    def test_rejects_expansion(self):
        with pytest.raises(ValueError):
            defect_operator(np.array([[2.0]]))

    def test_kernel_completes_the_basis(self):
        # I - P*P = diag(0, 1 - 0.99999^2, 0.75): the cut leaves e1 alone
        p = np.diag([1.0, 0.99999, 0.5]).astype(complex)
        dd = defect_operator(p)
        assert dd.rank == 2 and dd.kernel.shape == (3, 1)
        both = np.hstack([dd.kernel, dd.basis])
        assert np.linalg.norm(both.conj().T @ both - np.eye(3)) <= 1e-12
        assert abs(abs(dd.kernel[0, 0]) - 1.0) <= 1e-12


class TestSolveFundamental:
    def test_scalar_interior(self):
        fund = solve_fundamental(_scalar_pair(1, 0.25))
        # 1x1 solve: (s - conj(s) p) / (1 - |p|^2) = 0.75 / 0.9375
        assert abs(fund.F[0, 0] - 0.8) <= 1e-12
        assert fund.residual <= 1e-12

    def test_unitary_scalar_empty_defect(self):
        fund = solve_fundamental(_scalar_pair(2, 1))
        assert fund.defect.rank == 0
        assert fund.F.shape == (0, 0)
        assert fund.residual <= 1e-12
        assert fund.nr == 0.0

    def test_nilpotent_solution_is_s(self):
        s = np.array([[0, 2], [0, 0]], dtype=complex)
        pair = make_operator_pair(s, np.zeros((2, 2)))
        fund = solve_fundamental(pair)
        assert np.allclose(fund.F, s)
        assert abs(fund.nr - 1.0) <= 1e-9

    def test_unsolvable_raises(self):
        # P unitary in one direction; S - S*P has content off the defect space.
        pair = make_operator_pair(np.diag([1j, 0.0]), np.diag([1.0, 0.0]))
        with pytest.raises(ResidualTooLargeError):
            solve_fundamental(pair)

    def test_radius_bound_on_members(self):
        rng = rng_from_seed(42)
        for _ in range(50):
            pair = random_symmetrized_pair(rng, int(rng.integers(2, 7)))
            fund = solve_fundamental(pair, contraction_verified=True)
            assert fund.nr <= 1 + 1e-9
            scale = 1 + pair.s_norm * (1 + pair.p_norm)
            assert fund.residual <= 1e-8 * scale

    def test_bound_scales_with_the_smallest_defect_eigenvalue(self):
        # the six near-unitary draws are members; the defect eigenvalue of
        # about 4e-8 magnifies the rounding of S - S*P, and three of them
        # have w(F) above 1 + psd_tol, within the bound of that scale
        pairs = rotated_near_unitary_pairs(6)
        over = 0
        for pair in pairs:
            assert check_gamma_contraction(pair).is_member
            fund = solve_fundamental(pair, contraction_verified=True)
            over += fund.nr > 1 + 1e-9
            assert fund.nr <= 1 + 1e-8
        assert over == 3

    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8, 1e-10, 3e-11])
    def test_rotated_near_unitary_members_solve(self, delta):
        # the defect eigenvalue of about 4 delta magnifies the rounding of
        # S - S*P, down to the rank_tol edge at 3e-11; every draw is a
        # member, and its F must stay within the scaled bound
        for pair in rotated_near_unitary_pairs(10, delta):
            assert check_gamma_contraction(pair).is_member
            solve_fundamental(pair, contraction_verified=True)

    def test_uniqueness_rank_one_perturbations(self):
        rng = rng_from_seed(43)
        for _ in range(100):
            pair = random_strict_pair(rng, int(rng.integers(2, 5)), 0.8)
            fund = solve_fundamental(pair)
            dd = fund.defect
            rhs = pair.S - pair.S.conj().T @ pair.P
            u = rng.standard_normal(dd.rank) + 1j * rng.standard_normal(dd.rank)
            v = rng.standard_normal(dd.rank) + 1j * rng.standard_normal(dd.rank)
            g = np.outer(u / np.linalg.norm(u), (v / np.linalg.norm(v)).conj()) * 1e-3
            perturbed = fund.F + g
            recon = dd.D @ (dd.basis @ perturbed @ dd.basis.conj().T) @ dd.D
            assert operator_norm(rhs - recon) > fund.residual

    def test_strict_radius_gap(self):
        rng = rng_from_seed(44)
        for r in (0.5, 0.8):
            pair = random_strict_pair(rng, 3, r)
            c = check_gamma_contraction(pair).margin
            fund = solve_fundamental(pair)
            assert c > 0
            assert fund.nr <= 1 - c / 2 + 1e-8

    def test_unitary_equivalence_covariance(self):
        rng = rng_from_seed(45)
        for _ in range(10):
            pair = random_symmetrized_pair(rng, 4)
            u = random_unitary(rng, 4)
            conj = make_operator_pair(u.conj().T @ pair.S @ u, u.conj().T @ pair.P @ u)
            f0 = solve_fundamental(pair)
            f1 = solve_fundamental(conj)
            s0 = np.linalg.svd(f0.F, compute_uv=False)
            s1 = np.linalg.svd(f1.F, compute_uv=False)
            assert np.allclose(s0, s1, atol=1e-9)
            assert abs(f0.nr - f1.nr) <= 1e-9


class TestTruncatedModel:
    def test_single_block(self):
        pair = truncated_model_from_F(np.array([[0.8]]), 1)
        assert np.allclose(pair.S, [[0.8]])
        assert np.allclose(pair.P, [[0.0]])

    def test_three_blocks_recovers_input(self):
        pair = truncated_model_from_F(np.array([[0.8]]), 3)
        fund = solve_fundamental(pair)
        assert fund.residual <= 1e-12
        assert abs(fund.F[0, 0] - 0.8) <= 1e-12

    def test_structure(self):
        rng = rng_from_seed(46)
        f = random_fhat(rng, 2)
        pair = truncated_model_from_F(f, 4)
        # exact commutation, nilpotent P, defect projection onto block 0
        assert operator_norm(pair.S @ pair.P - pair.P @ pair.S) == 0.0
        assert operator_norm(np.linalg.matrix_power(pair.P, 4)) == 0.0
        diff = (pair.S - pair.S.conj().T @ pair.P)[:2, :2] - f
        assert operator_norm(diff) <= 1e-14
        assert not (pair.S - pair.S.conj().T @ pair.P)[2:, :].any()

    def test_symbol_norm_bound(self):
        rng = rng_from_seed(47)
        for _ in range(10):
            f = random_fhat(rng, int(rng.integers(1, 5)))
            worst = max(
                operator_norm(f.conj().T + np.exp(2j * t) * f)
                for t in np.linspace(0, np.pi, 181)
            )
            assert worst <= 2 + 1e-8

    def test_members_and_radius_preserved(self):
        rng = rng_from_seed(48)
        for _ in range(5):
            f = random_fhat(rng, int(rng.integers(1, 4)))
            pair = truncated_model_from_F(f, int(rng.integers(1, 5)))
            assert check_gamma_contraction(pair, COARSE).is_member
            fund = solve_fundamental(pair)
            assert np.allclose(
                np.linalg.svd(fund.F, compute_uv=False),
                np.linalg.svd(f, compute_uv=False),
                atol=1e-10,
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5))
    def test_solve_fundamental_round_trips(self, seed, dim, blocks):
        # the solved F is the input in another orthonormal basis of the
        # defect space: same spectrum, singular values and numerical radius
        f = random_fhat(rng_from_seed(seed), dim)
        fund = solve_fundamental(truncated_model_from_F(f, blocks))
        assert fund.F.shape == f.shape
        got, want = np.linalg.eigvals(fund.F), np.linalg.eigvals(f)
        assert np.abs(got[:, None] - want[None, :]).min(axis=0).max() <= 1e-8
        assert np.abs(want[:, None] - got[None, :]).min(axis=0).max() <= 1e-8
        assert np.allclose(
            np.linalg.svd(fund.F, compute_uv=False), np.linalg.svd(f, compute_uv=False),
            rtol=0.0, atol=1e-12,
        )
        assert abs(fund.nr - numerical_radius(f)) <= 1e-9

    def test_rejects_large_radius(self):
        with pytest.raises(ValueError, match="radius"):
            truncated_model_from_F(np.array([[3.0]]), 2)

    def test_rejects_bad_block_count(self):
        with pytest.raises(ValueError):
            truncated_model_from_F(np.array([[0.5]]), 0)

    def test_block_count_bounds_the_pair_dimension(self):
        # S and P are dense (n_blocks k)^2 matrices: at most 1024 rows
        with pytest.raises(ValueError, match="^block count must be positive and at most 512, got 513"):
            truncated_model_from_F(0.25 * np.eye(2), 513)

    @pytest.mark.parametrize("n_blocks", [2.5, 2.0])
    def test_rejects_non_integral_block_count(self, n_blocks):
        with pytest.raises(ValueError, match="block count must be an integer"):
            truncated_model_from_F(np.array([[0.5]]), n_blocks)

    def test_accepts_numpy_block_count(self):
        want = truncated_model_from_F(np.array([[0.5]]), 3)
        got = truncated_model_from_F(np.array([[0.5]]), np.int64(3))
        assert np.array_equal(got.S, want.S) and np.array_equal(got.P, want.P)


def test_numerical_radius_of_empty_is_zero():
    assert numerical_radius(np.zeros((0, 0))) == 0.0


class TestRadiusOnRead:
    def test_solved_once_on_first_read(self, radius_solves):
        pair = random_symmetrized_pair(rng_from_seed(82), 3)
        fund = solve_fundamental(pair)
        assert radius_solves == []
        first = fund.nr
        assert fund.nr is first
        assert len(radius_solves) == 1
        assert repr(first) == repr(numerical_radius(fund.F))

    def test_a_second_solve_reads_the_held_radius(self, radius_solves, fundamental_solves):
        # the same pair object and tol read the held F and its nr; a pickled
        # copy of the pair is a new key and solves both again, bit for bit
        pair = random_symmetrized_pair(rng_from_seed(83), 2)
        fund = solve_fundamental(pair)
        radius = fund.nr
        assert solve_fundamental(pair) is fund
        assert solve_fundamental(pair, contraction_verified=True) is fund
        assert fund.nr is radius
        assert len(radius_solves) == 1 and len(fundamental_solves) == 1
        dup = solve_fundamental(pickle.loads(pickle.dumps(pair)))
        assert dup is not fund
        assert repr(dup.nr) == repr(radius) and dup.F.tobytes() == fund.F.tobytes()
        assert len(radius_solves) == 2 and len(fundamental_solves) == 2

    def test_verified_pair_solves_it_for_the_bound(self, radius_solves):
        fund = solve_fundamental(_scalar_pair(1.0, 0.25), contraction_verified=True)
        assert len(radius_solves) == 1
        assert abs(fund.nr - 0.8) <= 1e-12  # F = (1 - 0.25) / (1 - 0.25**2)
        assert len(radius_solves) == 1

    def test_bound_violation_raises_on_a_verified_pair(self):
        with pytest.raises(FundamentalBoundError, match="exceeds 1"):
            solve_fundamental(_scalar_pair(1.9, 0.0), contraction_verified=True)

    def test_bound_is_not_checked_unverified(self):
        fund = solve_fundamental(_scalar_pair(1.9, 0.0))
        assert abs(fund.nr - 1.9) <= 1e-12
