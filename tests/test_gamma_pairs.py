import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from symbidisc import gamma_pairs
from symbidisc.gamma_pairs import (
    check_gamma_contraction,
    check_gamma_isometry,
    check_pure,
    defect_operator,
    make_operator_pair,
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
    as_matrix,
    circle_pencils,
    numerical_radius,
    operator_norm,
)

from _corpus import mixed_pair, near_unitary_pair, nilpotent_matrix, rotated_near_unitary_pairs
from _oracles import (
    membership_sweep_oracle,
    pencil_min_oracle,
    rho_oracle,
    unitary_part_oracle,
)

# Coarse circle grid for bulk property tests; verdicts are grid verdicts
# at any configured resolution.
COARSE = Tolerances(grid_angular=128)


def _scalar_pair(s, p):
    return make_operator_pair(np.array([[s]], complex), np.array([[p]], complex))


def _conjugated(pair, u):
    return make_operator_pair(u.conj().T @ pair.S @ u, u.conj().T @ pair.P @ u)


class TestRhoPencil:
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
            c, b = pair.C, pair.B
            stack = circle_pencils(-b, phases, c)
            assert np.array_equal(stack, np.conj(stack.transpose(0, 2, 1)))
            for w, got in zip(phases, stack):
                assert np.max(np.abs(got - rho_oracle(w * pair.S, w**2 * pair.P))) <= 1e-13


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

    def test_sweep_solves_each_phase_once(self, monkeypatch):
        # the sweep solves no phase twice, in at most two batches: 32 evenly
        # spread phases, then those the concavity bound cannot exclude.  On
        # the strict dim-3 pair that is 76 of the 1024 phases, where the
        # Weyl bisection took five batches and 146.  The witness is one full
        # pencil more
        calls = []

        def counting(k, w, c=None):
            calls.append((k.shape, w.copy()))
            return circle_pencils(k, w, c)

        monkeypatch.setattr(gamma_pairs, "circle_pencils", counting)
        for dim in (1, 3):
            pair = random_strict_pair(rng_from_seed(39), dim, 0.9)
            calls.clear()
            verdict = check_gamma_contraction(pair)
            *sweep, (shape, last) = calls
            w = verdict.witness
            assert shape == (dim, dim) and last.tolist() == [w.alpha]
            assert 1 <= len(sweep) <= 2 and len(sweep[0][1]) == 32
            swept = np.concatenate([phases for _, phases in sweep])
            assert len(np.unique(swept)) == len(swept)
            assert w.alpha in swept
            if dim == 3:
                assert len(swept) == 76
            rho = rho_oracle(w.alpha * pair.S, w.alpha**2 * pair.P)
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
        # 4 D_P^2 = rho(-S, P) + rho(S, P), the sweep's pencils at w = -1 and 1
        rng = rng_from_seed(36)
        for _ in range(20):
            pair = random_symmetrized_pair(rng, int(rng.integers(2, 6)))
            c, b = pair.C, pair.B
            lhs = 4 * (np.eye(pair.dim) - pair.P.conj().T @ pair.P)
            rhs = circle_pencils(-b, np.array([-1.0, 1.0]), c).sum(axis=0)
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
    # (2, 1) lies on the distinguished boundary, margin 0; (1, 0.25) has
    # margin 2 (1 - 0.0625) - 2 (1 - 0.25) = 0.375, reached only at w = 1
    @example(parts=(2.0, 0.0, 1.0, 0.0))
    @example(parts=(1.0, 0.0, 0.25, 0.0))
    def test_scalar_margin_is_the_closed_form(self, parts):
        s, p = _scalar(parts)
        w = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, COARSE.grid_angular, endpoint=False))
        closed = 2 * (1 - abs(p) ** 2) - 2 * np.real(w * (s - s.conjugate() * p))
        verdict = check_gamma_contraction(_scalar_pair(s, p), COARSE)
        allowance = 1e-13 * (1 + abs(s)) * (1 + abs(p)) ** 2
        assert abs(verdict.margin - np.min(closed)) <= allowance
        # the witness phase attains the margin
        at = np.argmin(np.abs(w - verdict.witness.alpha))
        assert abs(closed[at] - verdict.margin) <= allowance

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


def _pinched_scalar(delta):
    """(2(1 - delta), (1 - delta)^2) = pi(1 - delta, 1 - delta).

    1 - |p|^2 is about 4 delta, which the default ``rank_tol`` of 1e-10
    keeps in the defect space for delta >= 3e-11.
    """
    return _scalar_pair(2.0 * (1.0 - delta), (1.0 - delta) ** 2)


_PINCH_DELTAS = (1e-8, 1e-9, 3e-10, 2e-10, 1e-10, 2e-11, 1e-11)


def _gamma_unitaries():
    """(U1 + U2, U1 U2) for commuting unitaries U1, U2 of dimension 1-4."""
    rng = rng_from_seed(41)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        u = random_unitary(rng, n)
        u1, u2 = (u @ np.diag(np.exp(2j * np.pi * rng.uniform(size=n))) @ u.conj().T
                  for _ in range(2))
        yield symmetrize_pair(u1, u2)


def _seeded(make, seed, count=20):
    def pairs():
        rng = rng_from_seed(seed)
        return [make(rng) for _ in range(count)]
    return pairs


_ISOMETRY_KINDS = {
    "pinched": lambda: map(_pinched_scalar, _PINCH_DELTAS),
    "near_unitary": lambda: map(near_unitary_pair, _PINCH_DELTAS),
    "gamma_unitary": _gamma_unitaries,
    "mixed": _seeded(lambda rng: mixed_pair(rng)[0], 42),
    "symmetrized": _seeded(lambda rng: random_symmetrized_pair(rng, int(rng.integers(1, 5))), 43),
    "model": _seeded(random_model_pair, 44),
    "strict": _seeded(lambda rng: random_strict_pair(rng, int(rng.integers(1, 5)), 0.9), 45),
}


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

    @pytest.mark.parametrize("delta, isometric", [
        (1e-8, False), (1e-9, False), (3e-10, False), (2e-10, False), (1e-10, False),
        (2e-11, True), (1e-11, True),
    ])
    def test_pinched_scalar_follows_the_defect_cut(self, delta, isometric):
        # at 1e-10 and 2e-10, ||I - P*P|| and |s - conj(s) p| (both about
        # 4 delta) lie inside the residual and bΓ bands, but rank_tol keeps
        # the defect, so P is pure and not unitary
        pair = _pinched_scalar(delta)
        assert check_gamma_isometry(pair).is_member is isometric
        assert check_pure(pair.P) is not isometric

    @pytest.mark.parametrize("eps, isometric", [(5e-10, True), (5e-9, False)])
    def test_non_normal_pair_is_held_to_the_psd_band(self, eps, isometric):
        # P = I and S = [[2, eps], [0, 2]]: ||S - S*P|| = eps, while both
        # joint eigenvalues are (2, 1), on bΓ for every eps
        pair = make_operator_pair(np.array([[2.0, eps], [0.0, 2.0]]), np.eye(2))
        assert check_gamma_isometry(pair).is_member is isometric

    @pytest.mark.parametrize("kind", list(_ISOMETRY_KINDS))
    def test_never_both_isometric_and_pure(self, kind):
        # a Γ-isometry of positive dimension is Γ-unitary, so P is unitary
        for pair in _ISOMETRY_KINDS[kind]():
            isometric = check_gamma_isometry(pair).is_member
            assert not (isometric and check_pure(pair.P))
            if isometric:
                assert check_gamma_contraction(pair).is_member
            if kind == "gamma_unitary":
                assert isometric


@pytest.mark.parametrize("check", [check_gamma_contraction, check_gamma_isometry],
                         ids=["contraction", "isometry"])
def test_overflowing_products_raise(check):
    # P*P holds 1e400: the sweep read -inf >= -inf as a pass, margin -inf,
    # and the isometry margin NaN
    big = np.array([[0.0, 1e200], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"^I - P\*P or S - S\*P overflows"):
        check(make_operator_pair(big, big))


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


# The nilpotent corpus kind as the F of a three-block model: P is the block
# backward shift, pure, with a kernel of I - P*P that the Gram has to clear.
_SPLIT_KINDS = {
    **_ISOMETRY_KINDS,
    "nilpotent": lambda: (truncated_model_from_F(nilpotent_matrix(k), 3) for k in range(2, 7)),
}


class TestUnitaryPart:
    @pytest.mark.parametrize("kind", list(_SPLIT_KINDS))
    def test_equals_the_oracle(self, kind):
        # bit for bit and shape for shape the basis that check_pure and
        # lambda_variety once took from a second pass over the split
        for pair in _SPLIT_KINDS[kind]():
            for p in (pair.P, pair.P.conj().T):
                dd = defect_operator(p)
                want = unitary_part_oracle(as_matrix(p), dd, DEFAULT_TOL)
                assert dd.unitary.shape == want.shape
                assert np.array_equal(dd.unitary, want)

    def test_empty_matrix_equals_the_oracle(self):
        p = np.zeros((0, 0))
        dd = defect_operator(p)
        want = unitary_part_oracle(as_matrix(p), dd, DEFAULT_TOL)
        assert dd.unitary.shape == want.shape == (0, 0)
        assert np.array_equal(dd.unitary, want)

    @pytest.mark.parametrize(
        "kind", ["mixed", "nilpotent", "gamma_unitary", "symmetrized", "model", "strict"]
    )
    def test_adjoint_has_a_unitary_part_of_the_same_dimension(self, kind):
        # in finite dimension the unitary part reduces P, so it is the
        # unitary part of P* too; near_unitary is left out, as its defect
        # 1 - (1 - delta)^4 sits in the band where the two Gram cuts may part
        for pair in _SPLIT_KINDS[kind]():
            dims = [defect_operator(p).unitary.shape[1] for p in (pair.P, pair.P.conj().T)]
            assert dims[0] == dims[1]


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


@functools.cache
def _sweep_corpus():
    """The three families at dimensions 1-15, each also scaled as (t S, t^2 P)
    with t in [1, 1.15], the corpus kinds, and pairs made by hand.

    Model pairs of more than one block, and the pairs by hand with a
    unitary part, have indices whose rows and columns vanish in I - P*P
    and S - S*P.  The last model pair, from F = (1 + 128 eps) i, has a
    margin of about -6e-14: the phases that read 0 there meet the 64-ulp
    tie rule at some phases but not at phase 0, so the witness is not
    phase 0, and every phase before it must be solved.
    """
    rng = rng_from_seed(44)
    pairs = []
    for dim in range(1, 16):
        t1, t2 = random_commuting_contractions(rng, dim)
        c = max(operator_norm(t1), operator_norm(t2))
        block = 3 if dim % 3 == 0 else 2 if dim % 2 == 0 else 1
        f = random_fhat(rng, block)
        pairs += [
            symmetrize_pair(t1 / c, t2 / c),
            truncated_model_from_F(f / numerical_radius(f), dim // block),
            random_strict_pair(rng, dim, 0.95),
        ]
    pairs += [
        make_operator_pair(t * pair.S, t * t * pair.P)
        for pair, t in zip(list(pairs), rng.uniform(1.0, 1.15, len(pairs)))
    ]
    pairs += [mixed_pair(rng)[0] for _ in range(6)]
    pairs += [near_unitary_pair(delta) for delta in (1e-8, 3e-11, 1e-13)]
    eps = np.finfo(float).eps
    pairs += [
        make_operator_pair(np.diag([2.0, 0.5]), np.diag([1.0, 0.25])),
        _scalar_pair(2, 1),
        truncated_model_from_F(np.array([[(1 + 128 * eps) * 1j]]), 2),
    ]
    return pairs


def _verdict_bits(verdict):
    w = verdict.witness
    return (
        verdict.is_member, repr(verdict.margin), repr(w.alpha),
        w.vector.tobytes(), repr(w.lambda_min),
    )


@pytest.mark.parametrize("grid", [2, 3, 100, 1000, 1024, 4096])
def test_sweep_matches_the_full_grid_oracle(grid):
    # the sweep solves fewer phases, and must not move a bit
    tol = Tolerances(grid_angular=grid)
    members = 0
    for pair in _sweep_corpus():
        got = check_gamma_contraction(pair, tol)
        assert _verdict_bits(got) == _verdict_bits(membership_sweep_oracle(pair, tol))
        members += got.is_member
    assert 0 < members < len(_sweep_corpus())


def test_sweep_solves_before_a_witness_that_its_second_batch_moves(monkeypatch):
    # A diagonal pencil: an index that vanishes, 0.02 - 2 Re(w b) with
    # |b| = 0.01 + 64 eps 0.95, whose dip to about -64 eps 1.9 lies at
    # phase 600 of 1024, and 1 - 0.9 cos(theta), which sets the scale of
    # the tie rule: 1.1 at phase 0, 1.9 or more from phase 240 on.  The
    # first batch reads 0 at every phase, so its witness is phase 0.  The
    # second batch finds the dip, and then phase 0 no longer ties, but the
    # unsolved phases from 240 on read 0 and tie: the sweep solves every
    # phase before its new witness at 256 in a third batch, and the witness
    # is 240
    def index(c, b):
        p = np.sqrt(1.0 - c)
        return b.real / (1.0 - p) + 1j * b.imag / (1.0 + p), p

    eps = np.finfo(float).eps
    sa, pa = index(0.01, (0.01 + 64 * eps * 0.95) * np.exp(-1200j * np.pi / 1024))
    sb, pb = index(0.5, 0.45 + 0j)
    pair = make_operator_pair(np.diag([0.0, sa, sb]), np.diag([1.0, pa, pb]))
    batches = []

    def counting(k, w, c=None):
        batches.append(len(w))
        return circle_pencils(k, w, c)

    monkeypatch.setattr(gamma_pairs, "circle_pencils", counting)
    got = check_gamma_contraction(pair)
    assert len(batches) == 4 and got.witness.alpha == np.exp(480j * np.pi / 1024)
    assert _verdict_bits(got) == _verdict_bits(membership_sweep_oracle(pair))


def _scaled(pair, t):
    return make_operator_pair(t * pair.S, t * t * pair.P)


_CONTINUUM_KINDS = {
    **_SPLIT_KINDS,
    "rotated_near_unitary": lambda: rotated_near_unitary_pairs(3),
    "scaled_past_the_boundary": _seeded(lambda rng: _scaled(random_symmetrized_pair(rng, 3), 1.1), 46),
}


@pytest.mark.parametrize("kind", list(_CONTINUUM_KINDS))
def test_continuum_margin_lies_within_a_sagitta_of_the_grid_margin(kind):
    # lambda_min of 2C - wB - conj(w) B* is concave in w, so between two
    # adjacent phases of the 1024-phase grid it lies above their chord less
    # 2 ||B|| times the sagitta, at most 1 - cos(pi / 1024): a 32768-phase
    # margin lies at most that, plus the sweep's allowance, below the grid
    # margin.  Grid margins sit up to 8.0e-6 above the continuum
    fine = Tolerances(grid_angular=32768)
    eps = np.finfo(float).eps
    pairs = [pair for pair in _CONTINUUM_KINDS[kind]() if pair.dim <= 6][:3]
    assert pairs
    for pair in pairs:
        norm_c, norm_b = operator_norm(pair.C), operator_norm(pair.B)
        sagitta = 2.0 * np.sin(np.pi / 2048) ** 2
        allowance = (128 + 32 * pair.dim) * eps * (1.0 + 2.0 * norm_c + 2.0 * norm_b)
        grid = check_gamma_contraction(pair).margin
        continuum = membership_sweep_oracle(pair, fine).margin
        assert grid - 2.0 * norm_b * sagitta - allowance <= continuum <= grid + allowance


def test_sweep_solves_a_gap_that_may_fail_the_psd_test():
    # A diagonal pencil with eigenvalues -0.5 (constant), 2 - d - 0.5
    # cos(theta - 65 pi / 64), d = 3e-4, and -0.3 - 0.3 cos(theta).  At
    # psd_tol 0.2 a phase fails when the middle one drops below 1.5, which
    # it does only between two phases of the first batch; the margin -0.6
    # at phase 0 passes on its scale.  The concavity bound on that gap lies
    # above the margin, so only the -psd_tol floor sends the sweep there.
    p2 = np.sqrt(1.5e-4)
    b2 = 0.25 * np.exp(-65j * np.pi / 64)
    p3 = np.sqrt(1.15)
    pair = make_operator_pair(
        np.diag([0.0, b2.real / (1 - p2) + 1j * b2.imag / (1 + p2), 0.15 / (1 - p3)]),
        np.diag([np.sqrt(1.25), p2, p3]),
    )
    for grid in (1000, 1024):
        tol = Tolerances(psd_tol=0.2, grid_angular=grid)
        got = check_gamma_contraction(pair, tol)
        assert not got.is_member
        assert _verdict_bits(got) == _verdict_bits(membership_sweep_oracle(pair, tol))
