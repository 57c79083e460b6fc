import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisc import von_neumann
from symbidisc.gamma_pairs import check_gamma_contraction, make_operator_pair
from symbidisc.generators import (
    random_matrix_polynomial,
    random_model_pair,
    random_strict_pair,
    random_symmetrized_pair,
    rng_from_seed,
)
from symbidisc.geometry import GammaPoint
from symbidisc.numerics import DEFAULT_TOL, Tolerances, numerical_radius, operator_norm
from symbidisc.varieties import (
    DeterminantalVariety,
    DistinguishedStatus,
    classify_distinguished,
    fiber_at_p,
    variety_membership,
)
from symbidisc.von_neumann import (
    MatrixPolynomial,
    evaluate_pair,
    lambda_variety,
    vn_report,
)

from _corpus import mixed_pair, near_unitary_pair, nilpotent_matrix
from _oracles import boundary_max_oracle, evaluate_pair_oracle

S_POLY = MatrixPolynomial.scalar([[0], [1]])  # f(s, p) = s
P_POLY = MatrixPolynomial.scalar([[0, 1]])  # f(s, p) = p


def _scalar_pair(s, p):
    return make_operator_pair(np.array([[s]], complex), np.array([[p]], complex))


def _held_variety(pair):
    """The variety of the vn record, which must hold the pair at the default tol."""
    (held, tol, variety, _), = von_neumann._REPORTED
    assert held is pair and tol == DEFAULT_TOL
    return variety


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


class TestLambdaVariety:
    def test_scalar_fiber(self):
        v = lambda_variety(_scalar_pair(1, 0.25))
        got = fiber_at_p(v, 0.25)
        assert abs(got[0] - 1.0) <= 1e-12  # 0.8 + 0.8 * 0.25
        assert variety_membership(v, GammaPoint(1, 0.25))

    def test_unitary_degenerate(self):
        # P unitary: the defect rank is 0, and the whole space is the
        # unitary part, so A = S / 2
        v = lambda_variety(_scalar_pair(2, 1))
        assert v.dim == 1 and v.A[0, 0] == 1.0

    def test_unitary_part_is_added_to_F(self):
        # S = diag(2, 0.5), P = diag(1, 0.25): F = 0.375 / 0.9375 = 0.4 on
        # the second direction, S_u / 2 = 1 on the first
        pair = make_operator_pair(np.diag([2.0, 0.5]), np.diag([1.0, 0.25]))
        v = lambda_variety(pair)
        assert v.dim == 2
        assert np.allclose(v.A, np.diag([0.4, 1.0]), rtol=0, atol=1e-15)

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
        # the paper: the variety of a strict pair is distinguished
        rng = rng_from_seed(11)
        for r in (0.5, 0.8, 0.95, 0.999):
            for n in range(2, 7):
                for _ in range(10):
                    pair = random_strict_pair(rng, n, r)
                    assert check_gamma_contraction(pair).margin > DEFAULT_TOL.psd_tol
                    v = lambda_variety(pair)
                    assert v.nr < 1
                    verdict = classify_distinguished(v)
                    assert verdict.status == DistinguishedStatus.DISTINGUISHED_CERTIFIED


class TestRadiusOnRead:
    def test_report_and_variety_solve_no_radius(self, radius_solves):
        rng = rng_from_seed(67)
        pairs = [random_symmetrized_pair(rng, 3), random_model_pair(rng),
                 random_strict_pair(rng, 3, 0.8)]
        polys = [random_matrix_polynomial(rng) for _ in pairs]
        radius_solves.clear()  # the model family's generator solves one
        for f, pair in zip(polys, pairs):
            vn_report(f, pair, m=64)
            lambda_variety(pair)
        assert radius_solves == []

    def test_variety_radius_is_solved_once_on_first_read(self, radius_solves):
        rng = rng_from_seed(68)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = DeterminantalVariety.from_matrix(a)
        assert radius_solves == []
        first = v.nr
        assert v.nr is first
        assert len(radius_solves) == 1
        assert repr(first) == repr(numerical_radius(a))


class TestVnReport:
    def test_scalar_interior(self):
        rep = vn_report(S_POLY, _scalar_pair(1, 0.25), m=2048)
        assert abs(rep.lhs - 1.0) <= 1e-12
        assert abs(rep.rhs - 1.6) <= 1e-9  # max over |p|=1 of |0.8 + 0.8 p|
        assert rep.holds and rep.sample_count == 2048

    def test_unitary_equality(self):
        rep = vn_report(P_POLY, _scalar_pair(0, -1), m=64)
        assert abs(rep.lhs - 1.0) <= 1e-12
        assert abs(rep.rhs - 1.0) <= 1e-12
        assert rep.holds and rep.sample_count == 64

    def test_unitary_scalar_pair_attains_equality(self):
        # P unitary, so F is 0 x 0 and the representation is S / 2, whose
        # boundary carries the point (2, 1)
        rep = vn_report(S_POLY, _scalar_pair(2, 1), m=64)
        assert rep.rhs == 2.0 and rep.lhs == 2.0
        assert rep.ratio == 1.0 and rep.holds and rep.m == 64

    def test_unitary_part_closes_the_gap(self):
        # the variety of F alone misses the point (2, 1) and gives ratio 2.5
        pair = make_operator_pair(np.diag([2.0, 0.5]), np.diag([1.0, 0.25]))
        rep = vn_report(S_POLY, pair, m=64)
        assert rep.ratio == 1.0 and rep.holds

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
    variety = lambda_variety(random_symmetrized_pair(rng, 3))
    f = random_matrix_polynomial(rng, 3, block_dim)
    p, s = variety._boundary(8)
    got = von_neumann._horner(von_neumann._over_p(f, 8), s)
    sb, pb = s[:, :, None, None], p[None, :, None, None]
    want = sum(
        f.coeffs[i, j][:, :, None, None] * (sb**i * pb**j)[None, None, :, :, 0, 0]
        for i in range(f.coeffs.shape[0])
        for j in range(f.coeffs.shape[1])
    )
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _grid_coeffs(case, k, rng):
    def draw(ds, dp):
        shape = (ds + 1, dp + 1, k, k)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {
        "random": lambda: random_matrix_polynomial(rng, 3, k).coeffs,
        "zero": lambda: np.zeros((2, 3, k, k)),
        "constant": lambda: draw(0, 0),
        "s_only": lambda: draw(3, 0),
        "p_only": lambda: draw(0, 3),
        "scaled_up": lambda: 1e200 * draw(3, 3),
        "scaled_down": lambda: 1e-200 * draw(3, 3),
    }[case]()


# The 2x2 blocks of these cases rank outside [1e-290, 1e290] in squares, so
# they fall through to the batched SVD.
FALLBACK_CASES = ("zero", "scaled_up", "scaled_down")

# The three families and the pair kinds of tests/_corpus.py; the scalar pair
# has a one-point fiber.
PRUNED_PAIRS = {
    "symmetrized": random_symmetrized_pair(rng_from_seed(95), 4),
    "model": random_model_pair(rng_from_seed(95)),
    "strict": random_strict_pair(rng_from_seed(95), 5, 0.95),
    "mixed": mixed_pair(rng_from_seed(95))[0],
    "near_unitary": near_unitary_pair(1e-11),
    "scalar": _scalar_pair(1, 0.25),
}


@pytest.mark.parametrize("block_dim", [1, 2, 3])
@pytest.mark.parametrize(
    "case", ["random", "zero", "constant", "s_only", "p_only", "scaled_up", "scaled_down"]
)
def test_boundary_max_matches_the_svd_of_every_value(case, block_dim, monkeypatch):
    rng = rng_from_seed(76)
    variety = lambda_variety(random_symmetrized_pair(rng, 3))
    f = MatrixPolynomial.from_coeffs(_grid_coeffs(case, block_dim, rng))
    svds = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rhs, arg = von_neumann._boundary_max(f, variety, 64)
    monkeypatch.undo()
    p, s = variety._boundary(64)
    want, j, t = boundary_max_oracle(f.coeffs, p, s)
    assert abs(rhs - want) <= 1e-12 * want
    assert arg == GammaPoint(complex(s[j, t]), complex(p[t]))
    if case in ("zero", "constant"):
        assert (j, t) == (0, 0)  # every value ties, so the first angle wins
    assert len(svds) == (block_dim != 2 or case in FALLBACK_CASES)


class TestNorms2x2:
    """The closed form that ranks 2x2 blocks, unscaled: extreme scales fall
    through to the SVD (the scaled boundary cases above)."""

    def _check(self, blocks):
        want = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        got = np.sqrt(von_neumann._sigma_sq_2x2(blocks.transpose(1, 2, 0)))
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
        got = np.sqrt(von_neumann._sigma_sq_2x2(np.zeros((2, 2, 3), complex)))
        assert np.array_equal(got, np.zeros(3))


class TestPairMemo:
    @pytest.fixture(autouse=True)
    def _count_solves(self, monkeypatch):
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
        von_neumann._REPORTED.clear()
        assert [vn_report(f, pair, m=128) for f in polys] == reps

    def test_equal_contents_solve_again(self):
        # the key is the pair object: an equal-content copy is a new pair
        pair = _scalar_pair(1, 0.25)
        rep = vn_report(S_POLY, pair, m=64)
        assert vn_report(S_POLY, _scalar_pair(1, 0.25), m=64) == rep
        assert self.solves == 2

    def test_in_place_write_to_s_raises(self):
        pair = _scalar_pair(1, 0.25)
        rep = vn_report(S_POLY, pair, m=64)
        assert abs(rep.rhs - 1.6) <= 1e-12
        with pytest.raises(ValueError, match="read-only"):
            pair.S[0, 0] = 0.5
        assert vn_report(S_POLY, pair, m=64) == rep
        assert self.solves == 1

    def test_tol_is_part_of_the_key_and_m_is_not(self, fiber_solves):
        pair = _scalar_pair(1, 0.25)
        vn_report(S_POLY, pair, m=64)
        assert self.solves == 1
        vn_report(S_POLY, pair, m=64, tol=Tolerances(grid_angular=256))
        assert self.solves == 2
        fiber_solves.clear()
        # a coarser grid is solved fresh on the held variety
        vn_report(S_POLY, pair, m=32, tol=Tolerances(grid_angular=256))
        assert self.solves == 2
        assert sum(fiber_solves) == 32

    def test_m_sweep_solves_f_once_and_each_angle_once(self, fiber_solves):
        rng = rng_from_seed(77)
        pair = random_symmetrized_pair(rng, 3)
        f = random_matrix_polynomial(rng, 3, 2)
        for m in (256, 512, 1024, 2048):
            assert vn_report(f, pair, m=m).m == m
        assert self.solves == 1
        assert sum(fiber_solves) == 2048

    def test_hit_reads_the_variety_grid(self, monkeypatch):
        rng = rng_from_seed(78)
        pair = random_symmetrized_pair(rng, 3)
        f = random_matrix_polynomial(rng, 3, 2)
        vn_report(f, pair, m=128)
        variety = _held_variety(pair)
        assert isinstance(variety, DeterminantalVariety)
        held_p, held_s = variety._grid
        assert not held_p.flags.writeable
        held_pows = von_neumann._grid_powers(128, f.degrees[1])
        assert not held_pows.flags.writeable
        assert held_pows[1].tobytes() == held_p.tobytes()
        seen = []
        horner = von_neumann._horner

        def recording(q, s):
            seen.append((q, s))
            return horner(q, s)

        monkeypatch.setattr(von_neumann, "_horner", recording)
        misses = von_neumann._grid_powers.cache_info().misses
        vn_report(f, pair, m=128)
        assert self.solves == 1
        (q, s), = seen
        # the held powers, read without a miss, are what f is contracted over
        assert von_neumann._grid_powers.cache_info().misses == misses
        assert q.tobytes() == np.tensordot(f.coeffs, held_pows, axes=(1, 0)).tobytes()
        assert np.shares_memory(s, held_s)


class TestHeldPolynomialTerms:
    """A report on a held pair reuses its products S^i P^j and the powers of
    p over the held grid, so only its own coefficients are new work."""

    def test_ten_polynomials_build_the_terms_once(self):
        rng = rng_from_seed(79)
        pair = random_symmetrized_pair(rng, 3)
        polys = [random_matrix_polynomial(rng) for _ in range(10)]
        for f in polys:
            vn_report(f, pair, m=64)
        assert von_neumann._pair_monomials.cache_info()[:2] == (9, 1)  # hits, misses
        assert von_neumann._grid_powers.cache_info()[:2] == (9, 1)
        # the key is the support: every (i, j) of total degree at most 3
        support = tuple((i, j) for i, j in np.ndindex(4, 4) if i + j <= 3)
        stack = von_neumann._pair_monomials(pair, support)
        assert von_neumann._pair_monomials.cache_info()[:2] == (10, 1)
        assert stack.shape == (10, 3, 3) and not stack.flags.writeable
        # the products are keyed by the pair object: an equal-content copy
        # builds them again, while the powers of p depend on m and deg_p alone
        twin = make_operator_pair(pair.S, pair.P)
        assert vn_report(polys[0], twin, m=64) == vn_report(polys[0], pair, m=64)
        assert von_neumann._pair_monomials.cache_info().misses == 3
        assert von_neumann._grid_powers.cache_info().misses == 1

    def test_one_term_holds_one_product(self):
        pair = random_strict_pair(rng_from_seed(81), 12, 0.5)
        c = np.zeros((101, 101, 1, 1))
        c[100, 100] = 1.0  # s^100 p^100: 10201 products by degree, one by support
        f = MatrixPolynomial.from_coeffs(c)
        vn_report(f, pair, m=64)
        stack = von_neumann._pair_monomials(pair, ((100, 100),))
        assert von_neumann._pair_monomials.cache_info()[:2] == (1, 1)  # hits, misses
        assert stack.shape == (1, 12, 12)

    def test_doubling_m_replaces_the_powers(self):
        f, pair = _refining_case()
        assert vn_report(f, pair, m=4).m == 16
        assert von_neumann._grid_powers.cache_info()[1:] == (3, 1, 1)  # misses, maxsize, size
        held_p, _ = _held_variety(pair)._grid
        assert von_neumann._grid_powers(16, 1)[1].tobytes() == held_p.tobytes()

    def test_evaluate_pair_is_bit_identical_to_per_call_products(self):
        rng = rng_from_seed(80)
        # higher degrees follow lower ones on the same pair, and lower higher
        degrees = [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3), (4, 4), (4, 2), (1, 4), (2, 2)]
        for dim in (1, 3, 4):
            pair = random_symmetrized_pair(rng, dim)
            for k in (1, 2, 3):
                for ds, dp in degrees:
                    shape = (ds + 1, dp + 1, k, k)
                    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    c[rng.random(shape[:2]) < 0.3] = 0.0
                    f = MatrixPolynomial.from_coeffs(c)
                    want = evaluate_pair_oracle(f, pair)
                    assert evaluate_pair(f, pair).tobytes() == want.tobytes()
            zero = MatrixPolynomial.from_coeffs(np.zeros((3, 2, 2, 2)))
            assert evaluate_pair(zero, pair).tobytes() == evaluate_pair_oracle(zero, pair).tobytes()


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


class TestPrunedMaximum:
    """The first report on a new pair whose variety has dimension 2 or more,
    right after a pair reported once, solves only the angles that may hold
    the grid maximum, holds none of them, and reports what the whole grid
    reports, bit for bit."""

    PRIMER = _scalar_pair(0.5, 0.25)

    def _both(self, f, pair, m, fiber_solves):
        """(full-grid report, pruned report, fibers the pruned one solved)."""
        von_neumann._REPORTED.clear()
        want = vn_report(f, pair, m=m)
        von_neumann._REPORTED.clear()
        vn_report(S_POLY, self.PRIMER, m=m)
        fiber_solves.clear()
        got = vn_report(f, pair, m=m)
        return want, got, sum(fiber_solves)

    @pytest.mark.parametrize("m", [1, 8, 64, 65, 256, 2048])
    @pytest.mark.parametrize("block_dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", PRUNED_PAIRS)
    def test_report_is_the_full_grid_report(self, kind, block_dim, m, fiber_solves):
        pair = PRUNED_PAIRS[kind]
        f = random_matrix_polynomial(rng_from_seed(96 + block_dim), 3, block_dim)
        want, got, solved = self._both(f, pair, m, fiber_solves)
        assert repr(got) == repr(want)
        variety = _held_variety(pair)
        if m > 64 and variety.dim > 1:
            assert "_grid" not in vars(variety)
            # one L at R prunes less at small m: a strict pair with 3x3
            # blocks solves all 256 angles
            if got.m == m == 256 and (kind, block_dim) != ("strict", 3):
                assert solved < m
            if got.m == m == 2048:
                assert solved < m / 2
        elif got.m <= 64 or variety.dim == 1:  # the whole grid, extended as m doubles
            assert variety._grid[0].size == got.m and solved == got.m

    def test_ties_keep_the_first_angle(self, fiber_solves):
        # a constant f ties at every boundary point: every angle is solved
        c = np.zeros((1, 1, 2, 2), complex)
        c[0, 0] = np.array([[1, 2], [0, 1j]])
        f = MatrixPolynomial.from_coeffs(c)
        pair = PRUNED_PAIRS["strict"]
        want, got, solved = self._both(f, pair, 256, fiber_solves)
        assert repr(got) == repr(want)
        assert got.argmax_theta == 0.0 and solved == 256

    def test_every_doubled_m_is_pruned(self, fiber_solves):
        # as in _refining_case, on the variety s^2 = 0 of dimension 2, with
        # the peak so sharp that the grid doubles from 65 angles to 520
        # before a point comes within the slack
        c = np.zeros((1, 2, 2, 2), complex)
        c[0, 0] = np.eye(2)
        c[0, 1] = np.exp(-1j) * np.diag([1.0, 0.5])
        f = MatrixPolynomial.from_coeffs(c)
        pair = make_operator_pair(np.zeros((2, 2)), 0.99999 * np.exp(1j) * np.eye(2))
        want, got, solved = self._both(f, pair, 65, fiber_solves)
        assert repr(got) == repr(want)
        assert _held_variety(pair).dim == 2 and "_grid" not in vars(_held_variety(pair))
        assert got.m == 520 and solved < 65 + 130 + 260 + 520

    def test_dimension_one_holds_the_whole_grid(self, fiber_solves):
        # a whole grid of 1x1 pencils costs less than the pruned path
        pair = PRUNED_PAIRS["scalar"]
        f = random_matrix_polynomial(rng_from_seed(96), 3, 2)
        vn_report(S_POLY, self.PRIMER)
        fiber_solves.clear()
        rep = vn_report(f, pair)
        assert rep.m == 2048 and sum(fiber_solves) == 2048
        assert _held_variety(pair)._grid[0].size == 2048
        fiber_solves.clear()
        assert repr(vn_report(f, pair)) == repr(rep) and sum(fiber_solves) == 0

    @pytest.mark.parametrize("block_dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "case", ["random", "zero", "constant", "s_only", "p_only", "scaled_up", "scaled_down"]
    )
    def test_boundary_max_matches_the_full_grid(self, case, block_dim):
        rng = rng_from_seed(76)
        a = lambda_variety(random_symmetrized_pair(rng, 3)).A
        f = MatrixPolynomial.from_coeffs(_grid_coeffs(case, block_dim, rng))
        pruned = DeterminantalVariety.from_matrix(a)
        got = von_neumann._boundary_max(f, pruned, 256, pruned=True)
        want = von_neumann._boundary_max(f, DeterminantalVariety.from_matrix(a), 256)
        assert repr(got) == repr(want)
        # an out-of-range 2x2 winner falls back to the whole grid, held
        fell_back = block_dim == 2 and case in FALLBACK_CASES
        assert ("_grid" in vars(pruned)) == fell_back

    @staticmethod
    def _seeded_matrix(rng, n):
        """A random representation of numerical radius 0.3 to 1."""
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a * (rng.uniform(0.3, 1.0) / numerical_radius(a))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3),
           st.sampled_from([65, 100, 256, 2048]), st.integers(1, 6))
    def test_seeded_varieties_match_the_full_grid(self, seed, n, block_dim, m, degree):
        # seeded representations, where the bound prunes most, and
        # polynomials up to total degree 6
        rng = rng_from_seed(seed)
        a = self._seeded_matrix(rng, n)
        f = random_matrix_polynomial(rng, degree, block_dim)
        pruned = DeterminantalVariety.from_matrix(a)
        got = von_neumann._boundary_max(f, pruned, m, pruned=True)
        want = von_neumann._boundary_max(f, DeterminantalVariety.from_matrix(a), m)
        assert repr(got) == repr(want)
        assert ("_grid" in vars(pruned)) == (n == 1)  # dimension 1 takes the whole grid

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3), st.integers(1, 6))
    def test_lipschitz_constant_bounds_every_step(self, seed, n, block_dim, degree):
        # g(theta) = max_j ||f(s_j(theta), e^{i theta})||, computed on a fine
        # grid, moves by at most L dtheta plus the rounding allowance a step
        rng = rng_from_seed(seed)
        variety = DeterminantalVariety.from_matrix(self._seeded_matrix(rng, n))
        f = random_matrix_polynomial(rng, degree, block_dim)
        lip, allowance = von_neumann._lipschitz(f, variety)
        m = 16384
        _, s = variety._boundary(m)
        vals = von_neumann._horner(von_neumann._over_p(f, m), s)
        g = von_neumann._rank(vals, squared=False).max(axis=0)
        steps = np.abs(np.diff(g, append=g[:1]))
        assert steps.max() <= lip * (2 * math.pi / m) + allowance

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("block_dim", [1, 2, 3])
    def test_nilpotent_variety(self, k, block_dim):
        f = random_matrix_polynomial(rng_from_seed(98 + k), 3, block_dim)
        a = nilpotent_matrix(k)
        got = von_neumann._boundary_max(f, DeterminantalVariety.from_matrix(a), 2048, pruned=True)
        want = von_neumann._boundary_max(f, DeterminantalVariety.from_matrix(a), 2048)
        assert repr(got) == repr(want)

    def test_empty_variety_takes_the_full_grid(self):
        f = random_matrix_polynomial(rng_from_seed(99), 3, 2)
        for pruned in (False, True):
            empty = DeterminantalVariety.from_matrix(np.zeros((0, 0)))
            with pytest.raises(ValueError, match="empty sequence"):
                von_neumann._boundary_max(f, empty, 256, pruned=pruned)

    def test_runs_of_reports_solve_each_fiber_once(self, fiber_solves):
        rng = rng_from_seed(97)
        pairs = [random_symmetrized_pair(rng, 3), random_model_pair(rng),
                 random_strict_pair(rng, 4, 0.8)]
        for pair in pairs:
            fiber_solves.clear()
            for _ in range(10):
                vn_report(random_matrix_polynomial(rng), pair)
            assert sum(fiber_solves) == 2048

    def test_pairs_reported_once_prune_from_the_second(self, fiber_solves):
        rng = rng_from_seed(97)
        pairs = [random_symmetrized_pair(rng, 3), random_model_pair(rng),
                 random_strict_pair(rng, 4, 0.8), random_symmetrized_pair(rng, 5)]
        for i, pair in enumerate(pairs):
            fiber_solves.clear()
            vn_report(random_matrix_polynomial(rng), pair)
            assert sum(fiber_solves) == 2048 if i == 0 else sum(fiber_solves) < 2048

    def test_which_reports_prune(self, fiber_solves):
        rng = rng_from_seed(97)
        a, b, c = (random_symmetrized_pair(rng, 3) for _ in range(3))
        f = random_matrix_polynomial(rng)
        full = 2048

        def solves(pair):
            fiber_solves.clear()
            vn_report(f, pair)
            return sum(fiber_solves)

        assert solves(a) == full  # the first report in a process
        assert solves(b) < full  # a new pair after one reported once
        assert solves(b) == full  # the held pair again: nothing was held
        assert solves(b) == 0
        assert solves(c) == full  # a new pair after one reported three times
        assert solves(b) < full  # a new pair after one reported once
        von_neumann._REPORTED.clear()
        assert solves(c) == full  # the first report after the record is emptied


def _overflowing(block_dim):
    # 1e308 s^3 in the first diagonal entry: f(S, P) is finite, but f
    # overflows at the boundary fibers of modulus above 1
    c = np.zeros((4, 1, block_dim, block_dim), complex)
    c[3, 0] = np.eye(block_dim)
    c[3, 0, 0, 0] = 1e308
    return MatrixPolynomial.from_coeffs(c)


class TestOverflowingBoundary:
    """f that overflows on the boundary gives no maximum: ``ValueError``,
    without a doubled grid, and without a RuntimeWarning on the way."""

    PAIR = random_strict_pair(rng_from_seed(7), 3, 0.9)  # ``gen strict --seed 7 --dim 3``

    @pytest.mark.parametrize("block_dim", [1, 2, 3])
    def test_whole_grid_raises_without_doubling(self, block_dim, fiber_solves):
        f = _overflowing(block_dim)
        assert math.isfinite(operator_norm(evaluate_pair(f, self.PAIR)))
        with pytest.raises(ValueError, match="overflows"):
            vn_report(f, self.PAIR)
        assert sum(fiber_solves) == 2048

    @pytest.mark.parametrize("block_dim", [1, 2, 3])
    def test_pruned_path_falls_back_then_raises(self, block_dim, fiber_solves, monkeypatch):
        pruned, found = von_neumann._pruned_max, []

        def recording(*args):
            found.append(pruned(*args))
            return found[-1]

        monkeypatch.setattr(von_neumann, "_pruned_max", recording)
        vn_report(S_POLY, TestPrunedMaximum.PRIMER)
        fiber_solves.clear()
        with pytest.raises(ValueError, match="overflows"):
            vn_report(_overflowing(block_dim), self.PAIR)
        # the rounding allowance overflows with f, so no angle is solved
        # before the whole grid
        assert found == [None] and sum(fiber_solves) == 2048

    def test_overflowing_value_raises(self, fiber_solves):
        # 1e308 s^3 on S = 2, P = 1: f(S, P) = 8e308 itself overflows, so
        # ||f(S, P)|| is not read and no boundary angle is solved
        with pytest.raises(ValueError, match=r"f\(S, P\) overflows"):
            vn_report(_overflowing(1), _scalar_pair(2, 1))
        assert sum(fiber_solves) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_winner_that_is_not_finite_raises(self, bad):
        # a NaN wins over the larger finite values before it, and so does inf
        rank = np.array([[1.0, 4.0, 3.0], [2.0, 0.5, bad]])
        s, p = np.zeros((2, 3), complex), np.ones(3, complex)
        with pytest.raises(ValueError, match="overflows"):
            von_neumann._winner(rank, s, p, squared=False)
        # a square out of range goes to the SVD instead
        assert von_neumann._winner(rank, s, p, squared=True) is None


def _refining_case():
    # f = I + e^{-i} diag(1, 1/2) p on the scalar pair (0, 0.99 e^{i}): the
    # maximum 2 sits at theta = 1, and only from 16 angles on does a grid
    # point come within the slack of lhs = 1.99.
    c = np.zeros((1, 2, 2, 2), complex)
    c[0, 0] = np.eye(2)
    c[0, 1] = np.exp(-1j) * np.diag([1.0, 0.5])
    return MatrixPolynomial.from_coeffs(c), _scalar_pair(0, 0.99 * np.exp(1j))


def test_refinement_doubles_until_it_holds():
    f, pair = _refining_case()
    rep = vn_report(f, pair, m=1)
    assert rep.holds and rep.m == 16 and rep.sample_count == 16
    assert abs(rep.lhs - 1.99) <= 1e-12
    assert abs(rep.rhs - 1.992075581392696) <= 1e-12
    assert abs(rep.argmax_theta - 3 * math.pi / 8) <= 1e-12
    assert rep.argmax == GammaPoint(0j, complex(np.exp(3j * math.pi / 8)))
    assert vn_report(f, pair, m=2).m == 16


def test_refinement_solves_only_the_new_angles(fiber_solves):
    f, pair = _refining_case()
    assert vn_report(f, pair, m=4).m == 16
    assert sum(fiber_solves) == 16  # 4 + 4 + 8, where solving each grid whole takes 28


@pytest.mark.parametrize("m, last", [(2048, 2**16), (40000, 40000), (2**16, 2**16)])
def test_doubling_stops_at_the_sample_bound(m, last, monkeypatch):
    # a boundary maximum that never reaches lhs: the grid doubles while the
    # doubled count stays within the bound that sample_count checks
    seen = []

    def zero(f, variety, m, pruned=False):
        seen.append(m)
        return 0.0, GammaPoint(0j, 1 + 0j)

    monkeypatch.setattr(von_neumann, "_boundary_max", zero)
    rep = vn_report(S_POLY, _scalar_pair(0.5, 0.25), m=m)
    assert not rep.holds and rep.m == seen[-1] == last


@pytest.mark.parametrize("make", [
    lambda: MatrixPolynomial.from_coeffs(np.zeros((1, 1, 0, 0))),
    lambda: MatrixPolynomial.from_coeffs(np.zeros((0, 1, 2, 2))),
    lambda: MatrixPolynomial.from_coeffs(np.zeros((1, 0, 2, 2))),
    lambda: MatrixPolynomial.scalar([]),
], ids=["k0", "ds0", "dp0", "scalar-empty"])
def test_empty_coefficient_axis_rejected(make):
    with pytest.raises(ValueError, match="coefficients must have shape"):
        make()


def test_matrix_polynomial_validation():
    with pytest.raises(ValueError):
        MatrixPolynomial.from_coeffs(np.zeros((2, 2, 2, 3)))
    with pytest.raises(ValueError):
        MatrixPolynomial.from_coeffs(np.full((1, 1, 1, 1), np.nan))
