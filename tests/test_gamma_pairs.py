import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from symbidisc import gamma_pairs
from symbidisc.gamma_pairs import (
    NoSquareRootError,
    NonCommutingRootError,
    _defects,
    check_gamma_contraction,
    check_gamma_isometry,
    check_pure,
    desymmetrize_pair,
    make_operator_pair,
    rho_pencil,
    symmetrize_pair,
)
from symbidisc.fundamental import solve_fundamental, truncated_model_from_F
from symbidisc.generators import (
    random_commuting_contractions,
    random_fhat,
    random_model_pair,
    random_strict_pair,
    random_symmetrized_pair,
    random_unitary,
    rng_from_seed,
    scaled_pair,
)
from symbidisc.numerics import (
    DEFAULT_TOL,
    Tolerances,
    circle_pencils,
    numerical_radius,
    operator_norm,
)

from _oracles import pencil_min_oracle

# Coarse circle grid for bulk property tests; verdicts are grid verdicts
# at any configured resolution.
COARSE = Tolerances(grid_angular=128)


def _scalar_pair(s, p):
    return make_operator_pair(np.array([[s]], complex), np.array([[p]], complex))


def _conjugated(pair, u):
    return make_operator_pair(u.conj().T @ pair.S @ u, u.conj().T @ pair.P @ u)


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
        # the sweep's pencil at the phase w is rho(w S, w^2 P), and it is
        # Hermitian exactly, not only to rounding
        rng = rng_from_seed(38)
        make = {
            "symmetrized": lambda: random_symmetrized_pair(rng, 3),
            "model": lambda: random_model_pair(rng),
            "strict": lambda: random_strict_pair(rng, 4, 0.8),
        }[family]
        phases = np.exp(1j * np.array([0.0, 0.7, 2.0, 4.5]))
        for _ in range(3):
            pair = make()
            c, b = _defects(pair)
            stack = circle_pencils(-b, phases, c)
            assert np.array_equal(stack, np.conj(stack.transpose(0, 2, 1)))
            for w, got in zip(phases, stack):
                scaled = make_operator_pair(w * pair.S, w**2 * pair.P)
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

    def test_one_pencil_stack_per_call(self, monkeypatch):
        # the witness is solved on the stored stack, not on a rebuilt pencil
        calls = []

        def counting(*args):
            calls.append(args[1].shape)
            return circle_pencils(*args)

        monkeypatch.setattr(gamma_pairs, "circle_pencils", counting)
        for dim in (1, 3):
            pair = random_strict_pair(rng_from_seed(39), dim, 0.9)
            calls.clear()
            verdict = check_gamma_contraction(pair)
            assert calls == [(DEFAULT_TOL.grid_angular,)]
            w = verdict.witness
            rho = rho_pencil(make_operator_pair(w.alpha * pair.S, w.alpha**2 * pair.P))
            quad = np.vdot(w.vector, rho @ w.vector)
            assert abs(quad - w.lambda_min) <= 1e-12

    def test_symmetrized_pairs_are_members(self):
        rng = rng_from_seed(33)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            pair = random_symmetrized_pair(rng, dim)
            assert check_gamma_contraction(pair, COARSE).is_member

    def test_margin_matches_dense_oracle(self):
        rng = rng_from_seed(34)
        pair = random_symmetrized_pair(rng, 3)
        got = check_gamma_contraction(pair, Tolerances(grid_angular=2048)).margin
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

    @pytest.mark.parametrize("s, p", [(2.0025 * np.exp(0.35j), np.exp(0.7j)), (3, 1)])
    def test_radius_above_two_on_the_circle_rejected(self, s, p):
        # s = conj(s) p with |p| = 1 makes the circle pencil vanish at every
        # phase; only r(S) > 2 refutes the pair
        verdict = check_gamma_contraction(_scalar_pair(s, p))
        assert abs(verdict.margin) <= 1e-14
        assert not verdict.is_member

    def test_gamma_unitaries_are_members(self):
        # r(S) = 2 exactly, up to the rounding of r(S)
        u = np.diag(np.exp(1j * np.array([0.3, 1.9, -2.4])))
        v = random_unitary(rng_from_seed(40), 3)
        for s, p in (
            (2 * np.eye(3), np.eye(3)),
            (2 * u, u @ u),
            (v.conj().T @ (2 * u) @ v, v.conj().T @ (u @ u) @ v),
        ):
            verdict = check_gamma_contraction(make_operator_pair(s, p))
            assert verdict.is_member
            assert abs(verdict.margin) <= 1e-12

    def test_witness_ignores_rounding_ties(self):
        # a non-strict pair's circle minimum is 0 to rounding at many
        # phases; a unitary change of basis moves the rounding, not the
        # witness
        rng = rng_from_seed(11)
        done = 0
        while done < 24:
            pair = random_model_pair(rng)
            verdict = check_gamma_contraction(pair)
            if verdict.margin > 1e-9:
                continue
            moved = _conjugated(pair, random_unitary(rng, pair.dim))
            assert check_gamma_contraction(moved).witness.alpha == verdict.witness.alpha
            done += 1


# check_gamma_contraction and check_gamma_isometry on the default grid, on
# 30 seeded pairs of the three families (symmetrized, truncated model and
# strict at scale 0.9) of dimensions 1-6, recorded by repr.
MEMBERSHIP_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "membership_golden.json").read_text()
)


@pytest.mark.parametrize("rec", MEMBERSHIP_GOLDEN["records"], ids=lambda r: r["name"])
def test_membership_golden_bits(rec):
    s, p = (np.array([[complex(*z) for z in row] for row in rec[k]]) for k in ("S", "P"))
    pair = make_operator_pair(s, p)
    verdict = check_gamma_contraction(pair)
    assert verdict.is_member == rec["is_member"]
    assert repr(verdict.margin) == rec["margin"]
    assert repr(verdict.witness.alpha) == rec["witness_alpha"]
    assert repr(check_gamma_isometry(pair).margin) == rec["isometry_margin"]


def _family_pair(rng, family):
    """A pair of family 0 (symmetrized), 1 (model) or 2 (strict).
    Symmetrized pairs come from contractions whose larger norm is 1 and
    model pairs from an F of numerical radius 1, so that scaling by
    t > 1 often leaves the domain."""
    if family == 0:
        t1, t2 = random_commuting_contractions(rng, int(rng.integers(1, 5)))
        c = max(operator_norm(t1), operator_norm(t2))
        return symmetrize_pair(t1 / c, t2 / c)
    if family == 1:
        f = random_fhat(rng, int(rng.integers(1, 3)))
        return truncated_model_from_F(f / numerical_radius(f), int(rng.integers(1, 3)))
    return random_strict_pair(rng, int(rng.integers(1, 5)), 0.95)


def _scaled_family_pairs(seed, count):
    """Seeded pairs of the three families in turn, each as (t S, t^2 P)
    with t in [0.8, 1.15]."""
    rng = rng_from_seed(seed)
    for k in range(count):
        pair = _family_pair(rng, k % 3)
        t = rng.uniform(0.8, 1.15)
        yield make_operator_pair(t * pair.S, t * t * pair.P)


# At a phase h from the maximizing one, lambda_max(H) >= omega cos(h), so
# at 8192 phases a negative window of the circle is missed only when
# omega(F) < 1 / cos(pi / 8192) = 1 + 7.4e-8.  The default 1024 phases
# can miss one up to 1 + 4.7e-6, beyond the skipped band of 1e-6.
ROW_SIGN_TOL = Tolerances(grid_angular=8192)


def _row_margin_and_radius(seed, family, t, r):
    """Margin of row r of (t S, t^2 P) and omega(F_r).

    F_r is the fundamental operator of the scaled pair (r t S, r^2 t^2 P),
    and its circle pencil is D (2I - w F_r - conj(w) F_r*) D with
    D = (I - r^4 t^4 P*P)^{1/2} invertible, so the two should give the
    same sign.  Returns None when the draw has ||t^2 P|| >= 1 or
    omega(F_r) within 1e-6 of 1.
    """
    pair = _family_pair(rng_from_seed(seed), family)
    if t * t * pair.p_norm >= 1.0:
        return None
    scaled = scaled_pair(make_operator_pair(t * pair.S, t * t * pair.P), r)
    nr = solve_fundamental(scaled).nr
    if abs(1.0 - nr) < 1e-6:
        return None
    return check_gamma_contraction(scaled, ROW_SIGN_TOL).margin, nr


def _scalar(parts):
    return complex(parts[0], parts[1]), complex(parts[2], parts[3])


_SCALAR_PARTS = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)
)


class TestCircleCriterion:
    @settings(max_examples=200, deadline=None)
    @given(_SCALAR_PARTS)
    def test_scalar_margin_is_the_closed_form(self, parts):
        s, p = _scalar(parts)
        w = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, COARSE.grid_angular, endpoint=False))
        want = np.min(2 * (1 - abs(p) ** 2) - 2 * np.real(w * (s - s.conjugate() * p)))
        got = check_gamma_contraction(_scalar_pair(s, p), COARSE).margin
        assert abs(got - want) <= 1e-13 * (1 + abs(s)) * (1 + abs(p)) ** 2

    @settings(max_examples=300, deadline=None)
    @given(_SCALAR_PARTS)
    def test_scalar_verdict_is_the_exact_test(self, parts):
        # (s, p) lies in the closed symmetrized bidisc iff |s| <= 2 and
        # |s - conj(s) p| <= 1 - |p|^2; the grid decides it outside a band
        s, p = _scalar(parts)
        gap = min(2 - abs(s), 1 - abs(p) ** 2 - abs(s - s.conjugate() * p))
        if abs(gap) <= 1e-4:
            return
        assert check_gamma_contraction(_scalar_pair(s, p)).is_member == (gap > 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, exclude_min=True))
    def test_membership_is_monotone_under_scaling(self, seed, r):
        # (r S, r^2 P) samples the pencil on the circle |alpha| = r, inside
        # the disc that membership of (S, P) covers
        *_, pair = _scaled_family_pairs(seed, 1 + seed % 3)
        if check_gamma_contraction(pair, COARSE).is_member:
            assert check_gamma_contraction(scaled_pair(pair, r), COARSE).is_member

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(0, 2),
        st.floats(0.8, 1.2), st.floats(0.3, 0.99),
    )
    def test_row_sign_is_the_sign_of_one_minus_omega(self, seed, family, t, r):
        got = _row_margin_and_radius(seed, family, t, r)
        if got is None:
            reject()
        margin, nr = got
        assert (margin > 0) == (nr < 1)

    def test_row_sign_on_both_sides(self):
        signs = set()
        for seed in range(4):
            for family in range(3):
                for t, r in ((0.8, 0.3), (1.0, 0.9), (1.2, 0.99)):
                    got = _row_margin_and_radius(seed, family, t, r)
                    if got is not None:
                        margin, nr = got
                        assert (margin > 0) == (nr < 1)
                        signs.add(nr < 1)
        assert signs == {True, False}

    def test_unitary_conjugation_invariance(self):
        rng = rng_from_seed(41)
        for pair in _scaled_family_pairs(42, 30):
            a = check_gamma_contraction(pair, COARSE)
            b = check_gamma_contraction(_conjugated(pair, random_unitary(rng, pair.dim)), COARSE)
            assert a.is_member == b.is_member
            assert abs(a.margin - b.margin) <= 1e-12 * (1 + pair.s_norm) * (1 + pair.p_norm) ** 2

    def test_verdict_agrees_with_disc_oracle(self):
        # outside a band around margin 0 the circle verdict equals the
        # sign of the closed-disc minimum
        checked = members = 0
        for pair in _scaled_family_pairs(43, 30):
            verdict = check_gamma_contraction(pair, COARSE)
            disc = pencil_min_oracle(pair.S, pair.P, n_r=11, n_t=COARSE.grid_angular)
            if min(abs(disc), abs(verdict.margin)) <= 1e-6:
                continue
            assert verdict.is_member == (disc > 0)
            checked += 1
            members += verdict.is_member
        assert checked >= 25 and 3 <= members <= checked - 3


class TestStrictness:
    def test_zero_pair(self):
        pair = make_operator_pair(np.zeros((2, 2)), np.zeros((2, 2)))
        assert abs(check_gamma_contraction(pair, COARSE).margin - 2.0) <= 1e-12

    def test_halved_nilpotent(self):
        # min over the disc of 2 - |alpha| * ||S|| with ||S|| = 1
        s = np.array([[0, 1], [0, 0]], dtype=complex)
        pair = make_operator_pair(s, np.zeros((2, 2)))
        assert abs(check_gamma_contraction(pair).margin - 1.0) <= 1e-12

    def test_distinguished_scalar_not_strict(self):
        assert abs(check_gamma_contraction(_scalar_pair(2, 1)).margin) <= 1e-12

    def test_strict_implies_strict_contraction(self):
        rng = rng_from_seed(37)
        for r in (0.5, 0.8, 0.95):
            pair = random_strict_pair(rng, 3, r, COARSE)
            c = check_gamma_contraction(pair, COARSE).margin
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

    def test_shared_eigenvalue_at_the_default_band(self):
        # U1 and U2 share the eigenvalues e^{0.7i} and e^{-0.4i}, so the
        # joint spectrum of (U1 + U2, U1 U2) holds two points of the
        # diagonal of bΓ, where the fiber roots coincide
        u = random_unitary(rng_from_seed(40), 3)
        u1 = u @ np.diag(np.exp(1j * np.array([0.7, 2.5, -0.4]))) @ u.conj().T
        u2 = u @ np.diag(np.exp(1j * np.array([0.7, -1.3, -0.4]))) @ u.conj().T
        assert check_gamma_isometry(symmetrize_pair(u1, u2), DEFAULT_TOL).is_member


def test_make_operator_pair_rejects_empty():
    with pytest.raises(ValueError, match="positive dimension"):
        make_operator_pair(np.zeros((0, 0)), np.zeros((0, 0)))


@pytest.mark.parametrize("r", [0.0, 1.5])
def test_scaled_pair_rejects_scale_outside_unit_interval(r):
    pair = make_operator_pair(np.array([[1.0]]), np.array([[0.25]]))
    with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\]"):
        scaled_pair(pair, r)


class TestCheckPure:
    def test_zero(self):
        assert check_pure(np.zeros((3, 3)))

    def test_empty(self):
        assert check_pure(np.zeros((0, 0))) is True

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

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            symmetrize_pair(np.zeros((2, 2)), np.zeros((3, 3)))


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_roundtrip_on_random_symmetrized_pairs(self, seed, dim):
        pair = random_symmetrized_pair(rng_from_seed(seed), dim)
        try:
            t1, t2 = desymmetrize_pair(pair)
        except (NoSquareRootError, NonCommutingRootError):
            reject()
        tol = DEFAULT_TOL.residual_tol
        assert operator_norm(t1 @ t2 - t2 @ t1) <= tol * (1 + operator_norm(t1) * operator_norm(t2))
        assert operator_norm(t1 + t2 - pair.S) <= tol * (1 + pair.s_norm)
        assert operator_norm(t1 @ t2 - pair.P) <= tol * (1 + pair.p_norm)

