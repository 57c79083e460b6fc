"""The automorphisms of Gamma on seeded member pairs.  Under the rotation
(w S, w^2 P) the fundamental operator is w F in exact arithmetic, and the
verdicts are those of (S, P); under a Moebius map tau_m the membership
verdict is that of (S, P)."""

import numpy as np
import pytest

from symbidisc.fundamental import solve_fundamental
from symbidisc.gamma_pairs import check_gamma_contraction, make_operator_pair
from symbidisc.generators import (
    random_model_pair,
    random_strict_pair,
    random_symmetrized_pair,
    rng_from_seed,
)
from symbidisc.numerics import DEFAULT_TOL, operator_norm
from symbidisc.varieties import classify_distinguished
from symbidisc.von_neumann import lambda_variety

from _corpus import automorphism, mixed_pair, rotated_pair

EPS = np.finfo(float).eps

FAMILIES = {
    "symmetrized": lambda rng: random_symmetrized_pair(rng, int(rng.integers(1, 7))),
    "model": random_model_pair,
    "strict": lambda rng: random_strict_pair(
        rng, int(rng.integers(1, 7)), float(rng.uniform(0.5, 0.95))
    ),
    "mixed": lambda rng: mixed_pair(rng)[0],
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def rotations(request):
    """20 seeded pairs of one family, each with its image under a random
    rotation w."""
    rng = rng_from_seed(31)
    make = FAMILIES[request.param]
    out = []
    for _ in range(20):
        pair = make(rng)
        w = np.exp(2j * np.pi * rng.uniform())
        out.append((pair, w, rotated_pair(pair, w)))
    return out


def test_fundamental_operator_rotates(rotations):
    # F acts on the defect space of P, which the rotation keeps, in
    # coordinates of a basis that eigh picks; U F U*, U that basis, is the
    # operator itself.  F = W*(S - S*P)W with W = U diag(lambda)^(-1/2),
    # so a rounding of the inputs moves it by up to about n eps (1 + ||F||)
    # over the least kept eigenvalue lambda of I - P*P: on these pairs, up
    # to 0.95 times that.
    for pair, w, rot in rotations:
        f, g = solve_fundamental(pair), solve_fundamental(rot)
        assert g.defect.rank == f.defect.rank
        u, v = f.defect.basis, g.defect.basis
        gap = operator_norm(v @ g.F @ v.conj().T - w * (u @ f.F @ u.conj().T))
        lam = f.defect.eigenvalues[f.defect.eigenvalues.size - f.defect.rank :]
        bound = 16 * pair.dim * EPS * (1.0 + operator_norm(f.F)) / lam.min()
        assert gap <= bound, (gap, bound)


def test_numerical_radius_is_unchanged(rotations):
    # measured up to 6.4 eps apart on these pairs
    for pair, _, rot in rotations:
        nr = solve_fundamental(pair).nr
        assert abs(solve_fundamental(rot).nr - nr) <= 16 * EPS * nr


def test_membership_and_strictness_are_unchanged(rotations):
    for pair, _, rot in rotations:
        a, b = check_gamma_contraction(pair), check_gamma_contraction(rot)
        assert a.is_member and b.is_member
        assert (a.margin > DEFAULT_TOL.psd_tol) == (b.margin > DEFAULT_TOL.psd_tol)


def test_distinguished_status_is_unchanged(rotations):
    # the varieties of these pairs all have radius below one, so every
    # status here is DISTINGUISHED_CERTIFIED
    for pair, _, rot in rotations:
        assert (
            classify_distinguished(lambda_variety(rot)).status
            == classify_distinguished(lambda_variety(pair)).status
        )


@pytest.mark.parametrize("a", [0.5, 0.5j, -0.3 + 0.4j], ids=["0.5", "0.5i", "-0.3+0.4i"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_moebius_image_keeps_membership(family, a):
    rng = rng_from_seed(32)
    make = FAMILIES[family]
    for _ in range(20):
        pair = make(rng)
        image = automorphism(pair, a)
        assert check_gamma_contraction(image).is_member == check_gamma_contraction(pair).is_member, (
            pair.S,
            pair.P,
        )


def test_moebius_map_on_diagonal_pairs_is_tau_m():
    # on diagonal pairs tau_m acts point by point: (z1 + z2, z1 z2) goes
    # to (m(z1) + m(z2), m(z1) m(z2))
    rng = rng_from_seed(33)
    for a in (0.5, 0.5j, -0.3 + 0.4j):
        z = np.sqrt(rng.uniform(size=(2, 4))) * np.exp(2j * np.pi * rng.uniform(size=(2, 4)))
        pair = automorphism(make_operator_pair(np.diag(z.sum(axis=0)), np.diag(z.prod(axis=0))), a)
        m = (z - a) / (1 - np.conj(a) * z)
        assert np.allclose(np.diag(pair.S), m.sum(axis=0), rtol=0, atol=64 * EPS)
        assert np.allclose(np.diag(pair.P), m.prod(axis=0), rtol=0, atol=64 * EPS)
