import math

import numpy as np
import pytest

from symbidisc import von_neumann
from symbidisc.gamma_pairs import make_operator_pair
from symbidisc.generators import (
    random_commuting_contractions,
    random_matrix_polynomial,
    random_model_pair,
    random_strict_pair,
    random_symmetrized_pair,
    rng_from_seed,
)
from symbidisc.geometry import GammaPoint
from symbidisc.numerics import Tolerances, operator_norm
from symbidisc.varieties import DistinguishedStatus, classify_distinguished, fiber_at_p, variety_membership
from symbidisc.von_neumann import (
    MatrixPolynomial,
    cup_transform,
    evaluate_pair,
    lambda_variety,
    vn_report,
)

S_POLY = MatrixPolynomial.scalar([[0], [1]])  # f(s, p) = s
P_POLY = MatrixPolynomial.scalar([[0, 1]])  # f(s, p) = p


def _scalar_pair(s, p):
    return make_operator_pair(np.array([[s]], complex), np.array([[p]], complex))


class TestEvaluatePair:
    def test_coordinate_s(self):
        rng = rng_from_seed(61)
        pair = random_symmetrized_pair(rng, 3)
        assert np.allclose(evaluate_pair(S_POLY, pair), pair.S)

    def test_commutator_polynomial_vanishes(self):
        # s p - p s collapses to the zero coefficient grid
        coeffs = np.zeros((2, 2, 1, 1), complex)
        coeffs[1, 1, 0, 0] = 1.0 - 1.0
        f = MatrixPolynomial.from_coeffs(coeffs)
        rng = rng_from_seed(62)
        pair = random_symmetrized_pair(rng, 3)
        assert not evaluate_pair(f, pair).any()

    def test_square_on_scalar(self):
        f = MatrixPolynomial.scalar([[0], [0], [1]])  # s^2
        out = evaluate_pair(f, _scalar_pair(1, 0.25))
        assert abs(out[0, 0] - 1.0) <= 1e-14

    def test_block_coefficients(self):
        rng = rng_from_seed(63)
        pair = random_symmetrized_pair(rng, 2)
        c = np.zeros((1, 1, 2, 2), complex)
        c[0, 0] = np.array([[1, 2], [3, 4]])
        f = MatrixPolynomial.from_coeffs(c)
        assert np.allclose(evaluate_pair(f, pair), np.kron(c[0, 0], np.eye(2)))


class TestCupTransform:
    def test_fixes_real_coordinate(self):
        assert np.allclose(cup_transform(S_POLY).coeffs, S_POLY.coeffs)

    def test_conjugates_scalars(self):
        f = MatrixPolynomial.scalar([[0, 1j]])
        assert np.allclose(cup_transform(f).coeffs[0, 1, 0, 0], -1j)

    def test_involution(self):
        rng = rng_from_seed(64)
        f = random_matrix_polynomial(rng)
        assert np.allclose(cup_transform(cup_transform(f)).coeffs, f.coeffs)

    def test_defining_identity(self):
        rng = rng_from_seed(65)
        for _ in range(10):
            f = random_matrix_polynomial(rng)
            t1, t2 = random_commuting_contractions(rng, 3)
            pair = make_operator_pair(t1, t2)
            adj = make_operator_pair(t1.conj().T, t2.conj().T)
            lhs = evaluate_pair(cup_transform(f), pair)
            rhs = evaluate_pair(f, adj).conj().T
            assert operator_norm(lhs - rhs) <= 1e-12 * (1 + operator_norm(rhs))


class TestLambdaVariety:
    def test_scalar_fiber(self):
        v = lambda_variety(_scalar_pair(1, 0.25))
        got = fiber_at_p(v, 0.25)
        assert abs(got[0] - 1.0) <= 1e-12  # 0.8 + 0.8 * 0.25
        assert variety_membership(v, GammaPoint(1, 0.25))

    def test_unitary_degenerate(self):
        v = lambda_variety(_scalar_pair(2, 1))
        assert v.dim == 0

    def test_nilpotent_parabola(self):
        s = np.array([[0, 2], [0, 0]], dtype=complex)
        pair = make_operator_pair(s, np.zeros((2, 2)))
        v = lambda_variety(pair)
        assert np.allclose(v.A, s)  # A is the fundamental operator itself
        got = sorted(fiber_at_p(v, 0.25).real)
        assert np.allclose(got, [-1, 1], atol=1e-12)

    def test_orientation_of_representation(self):
        # for a complex scalar fundamental operator the fiber is F + p F*,
        # not F* + p F; the inequality distinguishes the two
        fhat = np.array([[0.3 + 0.4j]])
        pair = make_operator_pair(fhat.copy(), np.array([[0.0]], complex))
        v = lambda_variety(pair)
        p0 = np.exp(0.7j)
        want = fhat[0, 0] + p0 * np.conj(fhat[0, 0])
        assert abs(fiber_at_p(v, p0)[0] - want) <= 1e-12

    def test_strict_pairs_give_certified_varieties(self):
        rng = rng_from_seed(66)
        for r in (0.5, 0.8):
            pair = random_strict_pair(rng, 3, r)
            v = lambda_variety(pair)
            assert v.nr < 1
            verdict = classify_distinguished(v)
            assert verdict.status == DistinguishedStatus.DISTINGUISHED_CERTIFIED


class TestVnReport:
    def test_scalar_interior(self):
        rep = vn_report(S_POLY, _scalar_pair(1, 0.25), m=2048)
        assert abs(rep.lhs - 1.0) <= 1e-12
        assert abs(rep.rhs - 1.6) <= 1e-9  # max over |p|=1 of |0.8 + 0.8 p|
        assert rep.holds and not rep.degenerate

    def test_unitary_equality(self):
        rep = vn_report(P_POLY, _scalar_pair(0, -1), m=64)
        assert abs(rep.lhs - 1.0) <= 1e-12
        assert abs(rep.rhs - 1.0) <= 1e-12
        assert rep.holds and rep.degenerate

    def test_constant_polynomial(self):
        c = np.zeros((1, 1, 2, 2), complex)
        c[0, 0] = np.array([[1, 2], [0, 1j]])
        f = MatrixPolynomial.from_coeffs(c)
        rng = rng_from_seed(67)
        pair = random_symmetrized_pair(rng, 3)
        rep = vn_report(f, pair, m=16)
        want = operator_norm(c[0, 0])
        assert abs(rep.lhs - want) <= 1e-12
        assert abs(rep.rhs - want) <= 1e-12
        assert rep.holds

    def test_monotone_in_sample_count(self):
        rng = rng_from_seed(68)
        pair = random_symmetrized_pair(rng, 4)
        f = random_matrix_polynomial(rng)
        prev = -1.0
        for m in (256, 512, 1024, 2048):
            rep = vn_report(f, pair, m=m)
            assert rep.rhs >= prev - 1e-13
            prev = rep.rhs

    def test_holds_across_generator_families(self):
        rng = rng_from_seed(69)
        pairs = [
            random_symmetrized_pair(rng, 3),
            random_model_pair(rng),
            random_strict_pair(rng, 3, 0.9),
        ]
        for pair in pairs:
            for _ in range(3):
                f = random_matrix_polynomial(rng)
                rep = vn_report(f, pair, m=512)
                assert rep.holds
                assert rep.ratio <= 1 + 1e-6

    def test_zero_polynomial(self):
        f = MatrixPolynomial.scalar([[0.0]])
        rep = vn_report(f, _scalar_pair(1, 0.25), m=16)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0
        assert rep.holds

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            vn_report(S_POLY, _scalar_pair(1, 0.25), m=0)


def test_evaluate_pair_matches_kron_sum():
    rng = rng_from_seed(75)
    pair = random_symmetrized_pair(rng, 3)
    f = random_matrix_polynomial(rng, 3, 2)
    want = np.zeros((6, 6), complex)
    for i in range(f.coeffs.shape[0]):
        for j in range(f.coeffs.shape[1]):
            mono = np.linalg.matrix_power(pair.S, i) @ np.linalg.matrix_power(pair.P, j)
            want += np.kron(f.coeffs[i, j], mono)
    got = evaluate_pair(f, pair)
    assert operator_norm(got - want) <= 1e-12 * operator_norm(want)


@pytest.mark.parametrize("block_dim", [1, 2, 3])
def test_grid_values_match_monomial_sum(block_dim):
    rng = rng_from_seed(76)
    pair = random_symmetrized_pair(rng, 3)
    f = random_matrix_polynomial(rng, 3, block_dim)
    p, s = von_neumann._boundary(lambda_variety(pair), 8)
    got = von_neumann._eval_grid(f, p, s)
    sb, pb = s[:, :, None, None], p[None, :, None, None]
    want = sum(
        f.coeffs[i, j][:, :, None, None] * (sb**i * pb**j)[None, None, :, :, 0, 0]
        for i in range(f.coeffs.shape[0])
        for j in range(f.coeffs.shape[1])
    )
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    norms = np.linalg.svd(np.moveaxis(want, (0, 1), (2, 3)), compute_uv=False)[..., 0]
    rhs, arg = von_neumann._boundary_max(f, p, s)
    assert abs(rhs - norms.max()) <= 1e-12 * norms.max()
    j, t = np.unravel_index(np.argmax(norms), norms.shape)
    assert arg == GammaPoint(complex(s[j, t]), complex(p[t]))


class TestNorms2x2:
    def _check(self, blocks):
        want = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        got = von_neumann._norms_2x2(blocks.transpose(1, 2, 0))
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert np.array_equal(got == 0, want == 0)

    def test_random(self):
        rng = rng_from_seed(70)
        self._check(rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2)))

    def test_rank_one(self):
        rng = rng_from_seed(71)
        u = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        v = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        self._check(u[:, :, None] * np.conj(v[:, None, :]))

    def test_near_equal_singular_values(self):
        rng = rng_from_seed(72)
        q, _ = np.linalg.qr(rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2)))
        self._check(q * (1.0 + 1e-9 * rng.normal(size=(200, 1, 2))))

    def test_zero(self):
        got = von_neumann._norms_2x2(np.zeros((2, 2, 3), complex))
        assert np.array_equal(got, np.zeros(3))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales(self, scale):
        rng = rng_from_seed(73)
        blocks = rng.normal(size=(100, 2, 2)) + 1j * rng.normal(size=(100, 2, 2))
        blocks[:10, 1] = 0.0  # rank one
        self._check(scale * blocks)


class TestPairMemo:
    @pytest.fixture(autouse=True)
    def _empty_memo(self, monkeypatch):
        monkeypatch.setattr(von_neumann, "_memo", None)
        self.solves = 0
        solve = von_neumann.lambda_variety

        def counting(*args, **kwargs):
            self.solves += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(von_neumann, "lambda_variety", counting)

    def test_same_pair_solves_once(self):
        rng = rng_from_seed(74)
        pair = random_symmetrized_pair(rng, 3)
        polys = [random_matrix_polynomial(rng) for _ in range(4)]
        reps = [vn_report(f, pair, m=128) for f in polys]
        assert self.solves == 1
        von_neumann._memo = None
        assert [vn_report(f, pair, m=128) for f in polys] == reps

    def test_equal_contents_hit(self):
        pair = _scalar_pair(1, 0.25)
        vn_report(S_POLY, pair, m=64)
        vn_report(S_POLY, _scalar_pair(1, 0.25), m=64)
        assert self.solves == 1

    def test_in_place_change_of_s_recomputes(self):
        pair = _scalar_pair(1, 0.25)
        assert abs(vn_report(S_POLY, pair, m=64).rhs - 1.6) <= 1e-12
        pair.S[0, 0] = 0.5
        rep = vn_report(S_POLY, pair, m=64)
        assert self.solves == 2
        assert abs(rep.rhs - 0.8) <= 1e-12  # F = 0.4, max |0.4 + 0.4 p|
        von_neumann._memo = None
        assert rep == vn_report(S_POLY, _scalar_pair(0.5, 0.25), m=64)

    def test_tol_and_m_are_part_of_the_key(self):
        pair = _scalar_pair(1, 0.25)
        vn_report(S_POLY, pair, m=64)
        vn_report(S_POLY, pair, m=64, tol=Tolerances(grid_angular=256))
        assert self.solves == 2
        vn_report(S_POLY, pair, m=32, tol=Tolerances(grid_angular=256))
        assert self.solves == 3


# (holds, m, ratio, rhs) of a seeded batch, recorded with the per-point
# implementation (a GammaPoint per boundary point, SVD of every value).
GOLDEN_BATCH = [
    (True, 256, 0.19604482702589937, 14.588159282875221),
    (True, 256, 0.24391417273841204, 18.277035528708264),
    (True, 256, 0.28945690939737967, 14.227019967455318),
    (True, 256, 0.8215943362376743, 20.581207163439068),
    (True, 256, 0.8830690290544247, 13.725339999706582),
    (True, 256, 0.8052972396405197, 22.99904393539955),
    (True, 256, 0.2746623452673553, 10.328748446669517),
    (True, 256, 0.29030469666796443, 8.749626231164259),
    (True, 256, 0.37202390432381666, 8.118649892323107),
    (True, 256, 0.25087511535016455, 11.955083676045874),
    (True, 256, 0.42370130247994076, 10.711022532575884),
    (True, 256, 0.4425840858407359, 11.879822628687197),
    (True, 256, 0.8628518288699064, 16.362458589323744),
    (True, 256, 0.8822808837472028, 17.35865504133677),
    (True, 256, 0.8797927840135669, 15.24218797278821),
    (True, 256, 0.242139005742788, 7.629952737739953),
    (True, 256, 0.3818773267515858, 8.020490103087859),
    (True, 256, 0.4482607494703796, 9.684173849352149),
    (True, 256, 0.3905608043012428, 16.796650189959013),
    (True, 256, 0.36521753841727134, 14.85046292458901),
    (True, 256, 0.34134561923184764, 16.370923750851592),
    (True, 256, 0.2057550997309865, 19.183736554612082),
    (True, 256, 0.15003273276193524, 22.403082633892957),
    (True, 256, 0.21407894574607342, 14.371021263660115),
    (True, 256, 0.3242217446915015, 9.63992187478382),
    (True, 256, 0.30744503319598576, 10.769737912873147),
    (True, 256, 0.3309129386408182, 6.234578027774399),
    (True, 256, 0.2538324271694187, 15.706501705484785),
    (True, 256, 0.20769661753569482, 16.418712741786994),
    (True, 256, 0.35553288420396506, 19.390197479578216),
]


def test_golden_batch():
    rng = rng_from_seed(2024)
    got = []
    for k in range(10):
        if k % 3 == 0:
            pair = random_symmetrized_pair(rng, 2 + k % 4)
        elif k % 3 == 1:
            pair = random_model_pair(rng)
        else:
            pair = random_strict_pair(rng, 2 + k % 4, (0.5, 0.8, 0.95)[k % 3])
        for _ in range(3):
            rep = vn_report(random_matrix_polynomial(rng, 3, 2), pair, m=256)
            got.append((rep.holds, rep.m, rep.ratio, rep.rhs))
    for (holds, m, ratio, rhs), want in zip(got, GOLDEN_BATCH):
        assert (holds, m) == want[:2]
        assert abs(ratio - want[2]) <= 1e-12 * want[2]
        assert abs(rhs - want[3]) <= 1e-12 * want[3]


def test_refinement_doubles_until_it_holds():
    # f = I + e^{-i} diag(1, 1/2) p on the scalar pair (0, 0.99 e^{i}): the
    # maximum 2 sits at theta = 1, and only from 16 angles on does a grid
    # point come within the slack of lhs = 1.99.
    pair = _scalar_pair(0, 0.99 * np.exp(1j))
    c = np.zeros((1, 2, 2, 2), complex)
    c[0, 0] = np.eye(2)
    c[0, 1] = np.exp(-1j) * np.diag([1.0, 0.5])
    rep = vn_report(MatrixPolynomial.from_coeffs(c), pair, m=1)
    assert rep.holds and rep.m == 16 and rep.sample_count == 16
    assert abs(rep.lhs - 1.99) <= 1e-12
    assert abs(rep.rhs - 1.992075581392696) <= 1e-12
    assert abs(rep.argmax_theta - 3 * math.pi / 8) <= 1e-12
    assert rep.argmax == GammaPoint(0j, complex(np.exp(3j * math.pi / 8)))
    assert vn_report(MatrixPolynomial.from_coeffs(c), pair, m=2).m == 16


def test_matrix_polynomial_validation():
    with pytest.raises(ValueError):
        MatrixPolynomial.from_coeffs(np.zeros((2, 2, 2, 3)))
    with pytest.raises(ValueError):
        MatrixPolynomial.from_coeffs(np.full((1, 1, 1, 1), np.nan))
