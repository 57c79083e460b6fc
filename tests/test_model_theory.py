import tracemalloc

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
from symbidisc.model_theory import build_model, dilation_check
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
        # raised before the N-step loop that builds W
        with pytest.raises(ValueError, match="level cap"):
            build_model(_scalar_pair(1, 0.25), 4097)

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError, match="block count must be positive"):
            build_model(_scalar_pair(1, 0.25), 0)

    @pytest.mark.parametrize("level", [2.5, 8.0])
    def test_rejects_non_integral_level(self, level):
        with pytest.raises(ValueError, match="block count must be an integer"):
            build_model(_scalar_pair(1, 0.25), level)

    def test_accepts_numpy_level(self):
        pair = _scalar_pair(1, 0.25)
        got, want = build_model(pair, np.int64(16)), build_model(pair, 16)
        assert got.N == want.N == 16 and np.array_equal(got.W, want.W)

    def test_raises_when_the_cap_leaves_the_tail_above_target(self):
        # 0.999^4096 = 1.661e-02
        with pytest.raises(ValueError, match=r"tail 1\.661e-02 above target at the level cap 4096"):
            build_model(_scalar_pair(0, 0.999))

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

    @pytest.mark.parametrize("m_max, n_max", [(2.5, 1), (1, 2.5), (1.0, 1)])
    def test_rejects_non_integral_power_bounds(self, m_max, n_max):
        pair = _scalar_pair(1, 0.25)
        model = build_model(pair, 8)
        with pytest.raises(ValueError, match="power bound must be an integer"):
            dilation_check(model, pair, m_max, n_max)

    def test_accepts_numpy_power_bounds(self):
        pair = _scalar_pair(1, 0.25)
        model = build_model(pair, 8)
        assert dilation_check(model, pair, np.int64(2), np.int64(3)) == dilation_check(
            model, pair, 2, 3
        )


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
        # The blockwise and the dense products round differently.  Each
        # compression sums N k terms, ||T|| <= 2 and ||W|| <= 1, and the
        # dense oracle chains m_max products, hence the allowance.
        eps = np.finfo(float).eps
        for pair in _family_pure_pairs(79, 24):
            model = build_model(pair)
            got = dilation_check(model, pair, m_max, n_max).max_residual
            want = dilation_residual_oracle(model, pair, m_max, n_max)
            allowance = (1 + m_max) * model.N * model.block_dim * eps * 2.0**m_max
            assert abs(got - want) <= allowance

    @pytest.mark.parametrize("n_max", [7, 8, 9, 12, 16])
    def test_powers_at_and_past_the_level(self, n_max):
        # Both pairs stay at level N = 8, where V^n W = 0 for n >= 8 and
        # the residual is S^m P^n itself: 0 for the nilpotent pair, and
        # at most 0.01^8 for the scalar one.
        eps = np.finfo(float).eps
        for pair in (_nilpotent_pair(rng_from_seed(76), 4), _scalar_pair(0.5, 0.01)):
            model = build_model(pair, 8)
            assert model.N == 8
            got = dilation_check(model, pair, 3, n_max).max_residual
            want = dilation_residual_oracle(model, pair, 3, n_max)
            assert abs(got - want) <= 4 * model.N * model.block_dim * eps * 2.0**3


def test_model_forms_no_dense_block_matrix():
    # one dense T at N = 256, k = 1 would take 256^2 complex entries
    pair = _scalar_pair(1, 0.25)
    tracemalloc.start()
    try:
        model = build_model(pair, 256)
        dilation_check(model, pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (model.N, model.block_dim) == (256, 1)
    assert peak < 256**2 * 16
