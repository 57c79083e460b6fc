import numpy as np
import pytest

from symbidisc.gamma_pairs import (
    NoSquareRootError,
    _radius_pencils,
    check_gamma_contraction,
    check_gamma_isometry,
    check_pure,
    desymmetrize_pair,
    make_operator_pair,
    rho_pencil,
    strictness_constant,
    symmetrize_pair,
)
from symbidisc.generators import (
    random_commuting_contractions,
    random_model_pair,
    random_strict_pair,
    random_symmetrized_pair,
    rng_from_seed,
)
from symbidisc.numerics import Tolerances, operator_norm

from _oracles import pencil_min_oracle

# Coarse sweep for bulk property tests; verdicts are grid-certified at any
# configured resolution.
COARSE = Tolerances(grid_angular=128, grid_radial=9)


def _scalar_pair(s, p):
    return make_operator_pair(np.array([[s]], complex), np.array([[p]], complex))


class TestRhoPencil:
    def test_zero_pair(self):
        pair = make_operator_pair(np.zeros((3, 3)), np.zeros((3, 3)))
        assert np.allclose(rho_pencil(pair), 2 * np.eye(3))

    def test_distinguished_scalar(self):
        assert abs(rho_pencil(_scalar_pair(2, 1))[0, 0]) <= 1e-12

    def test_interior_scalar(self):
        # 2(1 - 0.0625) - 2 (1 - 0.25) = 0.375
        assert abs(rho_pencil(_scalar_pair(1, 0.25))[0, 0] - 0.375) <= 1e-12

    def test_hermitian_output(self):
        rng = rng_from_seed(31)
        pair = random_symmetrized_pair(rng, 4)
        r = rho_pencil(pair)
        assert np.linalg.norm(r - r.conj().T) <= 1e-12

    @pytest.mark.parametrize("family", ["symmetrized", "model", "strict"])
    def test_sweep_pencil_is_rho_of_the_scaled_pair(self, family):
        # the sweep's pencil at alpha = r w is rho(alpha S, alpha^2 P), and
        # it is Hermitian exactly, not only to rounding
        rng = rng_from_seed(38)
        make = {
            "symmetrized": lambda: random_symmetrized_pair(rng, 3),
            "model": lambda: random_model_pair(rng),
            "strict": lambda: random_strict_pair(rng, 4, 0.8),
        }[family]
        phases = np.exp(1j * np.array([0.0, 0.7, 2.0, 4.5]))
        for _ in range(3):
            pair = make()
            pencils = _radius_pencils(pair)
            for r in (0.0, 0.35, 0.8, 1.0):
                stack = pencils(r, phases)
                assert np.array_equal(stack, np.conj(stack.transpose(0, 2, 1)))
                for w, got in zip(phases, stack):
                    alpha = r * w
                    scaled = make_operator_pair(alpha * pair.S, alpha**2 * pair.P)
                    assert np.max(np.abs(got - rho_pencil(scaled))) <= 1e-13


class TestCheckGammaContraction:
    def test_zero_pair_margin_two(self):
        pair = make_operator_pair(np.zeros((2, 2)), np.zeros((2, 2)))
        verdict = check_gamma_contraction(pair, COARSE)
        assert verdict.is_member and abs(verdict.margin - 2.0) <= 1e-12

    def test_nilpotent_margin_zero(self):
        # eigenvalues of 2I - alpha S - conj(alpha) S* are 2 +- 2|alpha|
        s = np.array([[0, 2], [0, 0]], dtype=complex)
        pair = make_operator_pair(s, np.zeros((2, 2)))
        verdict = check_gamma_contraction(pair)
        assert verdict.is_member
        assert abs(verdict.margin) <= 1e-12
        assert abs(abs(verdict.witness.alpha) - 1.0) <= 1e-12

    def test_scalar_three_rejected(self):
        verdict = check_gamma_contraction(_scalar_pair(3, 0), COARSE)
        assert not verdict.is_member
        assert verdict.margin < -1.0

    def test_witness_attains_margin(self):
        rng = rng_from_seed(32)
        pair = random_symmetrized_pair(rng, 3)
        verdict = check_gamma_contraction(pair, COARSE)
        w = verdict.witness
        assert abs(w.lambda_min - verdict.margin) <= 1e-10
        assert abs(np.linalg.norm(w.vector) - 1.0) <= 1e-10

    def test_symmetrized_pairs_are_members(self):
        rng = rng_from_seed(33)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            pair = random_symmetrized_pair(rng, dim)
            assert check_gamma_contraction(pair, COARSE).is_member

    def test_margin_matches_dense_oracle(self):
        rng = rng_from_seed(34)
        pair = random_symmetrized_pair(rng, 3)
        got = check_gamma_contraction(pair, Tolerances(grid_angular=2048, grid_radial=41)).margin
        want = pencil_min_oracle(pair.S, pair.P)
        assert abs(got - want) <= 1e-4

    def test_adjoint_closure_and_norm_bounds(self):
        rng = rng_from_seed(35)
        for _ in range(30):
            pair = random_symmetrized_pair(rng, int(rng.integers(2, 6)))
            assert check_gamma_contraction(pair, COARSE).is_member
            adj = make_operator_pair(pair.S.conj().T, pair.P.conj().T)
            assert check_gamma_contraction(adj, COARSE).is_member
            assert pair.s_norm <= 2 + 1e-9
            assert pair.p_norm <= 1 + 1e-9

    def test_defect_identity(self):
        # 4 D_P^2 = rho(-S, P) + rho(S, P)
        rng = rng_from_seed(36)
        for _ in range(20):
            pair = random_symmetrized_pair(rng, int(rng.integers(2, 6)))
            neg = make_operator_pair(-pair.S, pair.P)
            lhs = 4 * (np.eye(pair.dim) - pair.P.conj().T @ pair.P)
            rhs = rho_pencil(neg) + rho_pencil(pair)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(lhs))


class TestStrictness:
    def test_zero_pair(self):
        pair = make_operator_pair(np.zeros((2, 2)), np.zeros((2, 2)))
        assert abs(strictness_constant(pair, COARSE) - 2.0) <= 1e-12

    def test_halved_nilpotent(self):
        # min over the disc of 2 - |alpha| * ||S|| with ||S|| = 1
        s = np.array([[0, 1], [0, 0]], dtype=complex)
        pair = make_operator_pair(s, np.zeros((2, 2)))
        assert abs(strictness_constant(pair) - 1.0) <= 1e-12

    def test_distinguished_scalar_not_strict(self):
        assert abs(strictness_constant(_scalar_pair(2, 1))) <= 1e-12

    def test_strict_implies_strict_contraction(self):
        rng = rng_from_seed(37)
        for r in (0.5, 0.8, 0.95):
            pair = random_strict_pair(rng, 3, r, COARSE)
            c = strictness_constant(pair, COARSE)
            assert c > 1e-9
            assert pair.p_norm < 1.0


class TestCheckGammaIsometry:
    def test_distinguished_scalar(self):
        assert check_gamma_isometry(_scalar_pair(2, 1)).is_member

    def test_zero_pair_rejected(self):
        pair = make_operator_pair(np.zeros((2, 2)), np.zeros((2, 2)))
        verdict = check_gamma_isometry(pair)
        assert not verdict.is_member
        assert verdict.margin <= -1.0

    def test_symmetrized_unitaries(self):
        assert check_gamma_isometry(_scalar_pair(0, -1)).is_member
        t1 = np.diag([np.exp(0.3j), np.exp(1.1j)])
        t2 = np.diag([np.exp(-0.4j), np.exp(2.2j)])
        pair = symmetrize_pair(t1, t2)
        assert check_gamma_isometry(pair).is_member

    def test_strict_pair_rejected(self):
        rng = rng_from_seed(38)
        pair = random_strict_pair(rng, 3, 0.8)
        assert not check_gamma_isometry(pair).is_member


class TestCheckPure:
    def test_zero(self):
        assert check_pure(np.zeros((3, 3)))

    def test_scalar_one_not_pure(self):
        assert not check_pure(np.array([[1.0]]))

    def test_scalar_half_pure(self):
        assert check_pure(np.array([[0.5]]))

    def test_nilpotent_pure(self):
        assert check_pure(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_expansive(self):
        with pytest.raises(ValueError):
            check_pure(np.array([[1.5]]))


class TestSymmetrizePair:
    def test_zero(self):
        pair = symmetrize_pair(np.zeros((2, 2)), np.zeros((2, 2)))
        assert not pair.S.any() and not pair.P.any()

    def test_nilpotent_product(self):
        t = np.array([[0, 1], [0, 0]], dtype=complex)
        pair = symmetrize_pair(t, t)
        assert np.allclose(pair.S, np.array([[0, 2], [0, 0]]))
        assert not pair.P.any()

    def test_scalar(self):
        pair = symmetrize_pair(np.array([[0.5]]), np.array([[0.5]]))
        assert abs(pair.S[0, 0] - 1) <= 1e-15 and abs(pair.P[0, 0] - 0.25) <= 1e-15

    def test_rejects_noncommuting(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="commute"):
            symmetrize_pair(a, a.conj().T)

    def test_rejects_expansive(self):
        with pytest.raises(ValueError, match="contraction"):
            symmetrize_pair(2 * np.eye(2), np.zeros((2, 2)))


class TestDesymmetrizePair:
    def test_plus_minus_identity(self):
        pair = make_operator_pair(np.zeros((2, 2)), -np.eye(2))
        t1, t2 = desymmetrize_pair(pair)
        assert np.allclose(t1, np.eye(2)) and np.allclose(t2, -np.eye(2))

    def test_double_root_scalar(self):
        t1, t2 = desymmetrize_pair(_scalar_pair(1, 0.25))
        assert abs(t1[0, 0] - 0.5) <= 1e-12 and abs(t2[0, 0] - 0.5) <= 1e-12

    def test_nilpotent_obstruction(self):
        # S^2 - 4P is a nonzero nilpotent 2x2, which has no square root,
        # although the pair itself is a member pair.
        p = np.zeros((2, 2), complex)
        p[0, 1] = -0.25
        pair = make_operator_pair(np.zeros((2, 2)), p)
        assert check_gamma_contraction(pair, COARSE).is_member
        with pytest.raises(NoSquareRootError):
            desymmetrize_pair(pair)

    def test_roundtrip_on_random_symmetrized_pairs(self):
        rng = rng_from_seed(39)
        done = 0
        for _ in range(40):
            t1, t2 = random_commuting_contractions(rng, int(rng.integers(2, 5)))
            pair = symmetrize_pair(t1, t2)
            try:
                u1, u2 = desymmetrize_pair(pair)
            except ValueError:
                continue
            back_s = u1 + u2
            back_p = u1 @ u2
            scale = 1 + operator_norm(pair.S) + operator_norm(pair.P)
            assert operator_norm(back_s - pair.S) <= 1e-8 * scale
            assert operator_norm(back_p - pair.P) <= 1e-8 * scale
            done += 1
        assert done >= 30
