import numpy as np
import pytest
import scipy.linalg

from symbidisc.fundamental import truncated_model_from_F
from symbidisc.gamma_pairs import make_operator_pair, symmetrize_pair
from symbidisc.gamma_pairs import check_pure
from symbidisc.generators import (
    random_commuting_contractions,
    random_fhat,
    random_strict_pair,
    random_symmetrized_pair,
    rng_from_seed,
)
from symbidisc.model_theory import build_model, characteristic_coeffs, dilation_check
from symbidisc.numerics import operator_norm

from _oracles import dilation_residual_oracle


def _scalar_pair(s, p):
    return make_operator_pair(np.array([[s]], complex), np.array([[p]], complex))


def _random_pure_pair(rng, dim, cap=0.85):
    t1, t2 = random_commuting_contractions(rng, dim, norm_cap=cap)
    return symmetrize_pair(t1, t2)


def _nilpotent_pair(rng, dim):
    base = np.triu(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 1
    )
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    t1 = c[0] * base + c[1] * base @ base
    t2 = c[2] * base + c[3] * base @ base
    for t in (t1, t2):
        n = operator_norm(t)
        if n > 0.8:
            t *= 0.8 / n
    n1, n2 = operator_norm(t1), operator_norm(t2)
    t1 = t1 if n1 <= 0.8 else t1 * (0.8 / n1)
    t2 = t2 if n2 <= 0.8 else t2 * (0.8 / n2)
    return symmetrize_pair(t1, t2)


class TestCharacteristicCoeffs:
    def test_zero_contraction(self):
        cc = characteristic_coeffs(np.zeros((2, 2)), 4)
        assert not cc.coeffs[0].any()
        assert np.allclose(cc.coeffs[1], np.eye(2))
        assert not cc.coeffs[2].any() and not cc.coeffs[3].any()

    def test_scalar_geometric(self):
        cc = characteristic_coeffs(np.array([[0.6]]), 6)
        assert abs(cc.coeffs[0][0, 0] + 0.6) <= 1e-12
        for k in range(1, 6):
            want = 0.64 * 0.6 ** (k - 1)
            assert abs(cc.coeffs[k][0, 0] - want) <= 1e-12

    def test_nilpotent_terminates(self):
        p = np.zeros((2, 2), complex)
        p[0, 1] = 0.6
        cc = characteristic_coeffs(p, 6)
        assert cc.coeffs[1].any() and cc.coeffs[2].any()
        for k in range(3, 6):
            assert np.linalg.norm(cc.coeffs[k]) <= 1e-14

    def test_closed_form_blocks(self):
        rng = rng_from_seed(71)
        pair = _random_pure_pair(rng, 3)
        p = pair.P
        cc = characteristic_coeffs(p, 5)
        from symbidisc.fundamental import defect_operator

        dd = defect_operator(p)
        dds = defect_operator(p.conj().T)
        assert np.allclose(cc.coeffs[0], dds.basis.conj().T @ (-p) @ dd.basis)
        for k in range(1, 5):
            want = (
                dds.basis.conj().T
                @ dds.D
                @ np.linalg.matrix_power(p.conj().T, k - 1)
                @ dd.D
                @ dd.basis
            )
            assert np.allclose(cc.coeffs[k], want, atol=1e-12)

    def test_rejects_expansion(self):
        with pytest.raises(ValueError):
            characteristic_coeffs(np.array([[1.2]]), 3)


class TestBuildModel:
    def test_scalar_embedding_geometric(self):
        pair = _scalar_pair(1, 0.25)
        model = build_model(pair, 16)
        # ||W e||^2 = (1 - |p|^2) sum |p|^{2n} over n < N
        want = (1 - 0.0625) * sum(0.0625**n for n in range(16))
        got = float(np.linalg.norm(model.W[:, 0]) ** 2)
        assert abs(got - want) <= 1e-12
        assert operator_norm(model.W.conj().T @ model.W - np.eye(1)) <= model.tail**2 + 1e-10

    def test_escalates_to_tail_target(self):
        pair = _scalar_pair(1, 0.25)
        model = build_model(pair, 2)
        assert model.tail <= 1e-8
        assert model.N > 2

    def test_nilpotent_exact(self):
        rng = rng_from_seed(72)
        pair = _nilpotent_pair(rng, 4)
        model = build_model(pair, 8)
        assert model.tail == 0.0
        assert operator_norm(model.W.conj().T @ model.W - np.eye(pair.dim)) <= 1e-12

    def test_model_commutes_exactly(self):
        rng = rng_from_seed(73)
        pair = _random_pure_pair(rng, 3)
        model = build_model(pair)
        assert operator_norm(model.T @ model.V - model.V @ model.T) == 0.0

    def test_symbol_norm_bound(self):
        rng = rng_from_seed(74)
        for _ in range(5):
            pair = _random_pure_pair(rng, int(rng.integers(2, 5)))
            model = build_model(pair)
            g = model.fund_adjoint.F
            worst = max(
                operator_norm(g.conj().T + np.exp(1j * t) * g)
                for t in np.linspace(0, 2 * np.pi, 181)
            )
            assert worst <= 2 + 1e-8

    def test_rejects_non_pure(self):
        with pytest.raises(ValueError, match="pure"):
            build_model(_scalar_pair(2, 1))

    def test_rejects_level_above_the_cap(self):
        # raised before any block is built: a dense model at this level
        # would not fit in memory for larger pairs
        with pytest.raises(ValueError, match="level cap"):
            build_model(_scalar_pair(1, 0.25), 4097)

    def test_solves_no_numerical_radius(self, radius_solves):
        pair = _random_pure_pair(rng_from_seed(78), 3)
        dilation_check(build_model(pair), pair)
        assert radius_solves == []

    def test_reproduces_converse_construction(self):
        # model of a pair built from a known matrix is unitarily
        # equivalent to it on the embedded subspace; the intertwiner is
        # the orthogonal-Procrustes alignment (polar factor of W)
        rng = rng_from_seed(75)
        f = random_fhat(rng, 2)
        pair = truncated_model_from_F(f, 4)
        model = build_model(pair, 4)
        assert model.tail == 0.0
        u, _ = scipy.linalg.polar(model.W)
        assert operator_norm(u @ pair.S.conj().T - model.T.conj().T @ u) <= 1e-7
        assert operator_norm(u @ pair.P.conj().T - model.V.conj().T @ u) <= 1e-7


class TestDilationCheck:
    def test_identity_case_matches_embedding_defect(self):
        pair = _scalar_pair(1, 0.25)
        model = build_model(pair, 32)
        rep = dilation_check(model, pair, 0, 0)
        assert rep.max_residual <= model.tail**2 + 1e-10

    def test_nilpotent_exact(self):
        rng = rng_from_seed(76)
        pair = _nilpotent_pair(rng, 4)
        model = build_model(pair, 8)
        rep = dilation_check(model, pair, 3, 3)
        assert rep.max_residual <= 1e-10
        assert rep.shift_intertwine <= 1e-12
        assert rep.symbol_intertwine <= 1e-12

    def test_scalar_tail_dominated(self):
        pair = _scalar_pair(1, 0.25)
        model = build_model(pair, 32)
        rep = dilation_check(model, pair, 3, 3)
        assert rep.max_residual <= 1e-8

    def test_random_pure_within_bound(self):
        rng = rng_from_seed(77)
        for _ in range(10):
            pair = _random_pure_pair(rng, int(rng.integers(2, 6)))
            model = build_model(pair)
            rep = dilation_check(model, pair, 3, 3)
            assert model.tail <= 1e-8
            assert rep.max_residual <= rep.bound + 1e-10
            assert rep.shift_intertwine <= model.tail + 1e-12

    def test_rejects_mismatched_pair(self):
        pair = _scalar_pair(1, 0.25)
        other = make_operator_pair(np.zeros((2, 2)), np.zeros((2, 2)))
        model = build_model(pair, 8)
        with pytest.raises(ValueError, match="dimension"):
            dilation_check(model, other)

    @pytest.mark.parametrize("m_max, n_max", [(-1, 3), (3, -1)])
    def test_rejects_negative_power_bounds(self, m_max, n_max):
        pair = _scalar_pair(1, 0.25)
        model = build_model(pair, 8)
        with pytest.raises(ValueError, match="nonnegative"):
            dilation_check(model, pair, m_max, n_max)


def _family_pure_pairs(seed, count):
    """Seeded pure pairs of the symmetrized, model and strict families."""
    rng = rng_from_seed(seed)
    make = (
        lambda: random_symmetrized_pair(rng, int(rng.integers(1, 6))),
        lambda: truncated_model_from_F(random_fhat(rng, int(rng.integers(1, 4))), int(rng.integers(1, 6))),
        lambda: random_strict_pair(rng, int(rng.integers(1, 6)), rng.uniform(0.5, 0.95)),
    )
    out = []
    while len(out) < count:
        pair = make[len(out) % 3]()
        if check_pure(pair.P):
            out.append(pair)
    return out


class TestBatchedResiduals:
    @pytest.mark.parametrize("m_max, n_max", [(0, 0), (3, 3), (1, 4)])
    def test_max_residual_equals_the_per_power_loop(self, m_max, n_max):
        for pair in _family_pure_pairs(79, 24):
            model = build_model(pair)
            got = dilation_check(model, pair, m_max, n_max).max_residual
            assert got == dilation_residual_oracle(model, pair, m_max, n_max)
