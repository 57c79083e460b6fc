"""Member pairs near the boundary of Gamma, with verdicts known by construction.

``mixed_pair`` plants Gamma-unitary points next to a pure pair, and
``near_unitary_pair`` puts an eigenvalue of P within about 2 delta of the
unit circle, and ``rotated_near_unitary_pairs`` does so under random
unitaries.  Both draw from seeded generators, as the rest of the suite.
``nilpotent_matrix`` is a representation of numerical radius exactly one.
``rotated_pair`` maps a pair by the rotation of Gamma, one of its two
kinds of automorphism.
"""

import math

import numpy as np
import scipy.linalg

from symbidisc.gamma_pairs import make_operator_pair, symmetrize_pair
from symbidisc.generators import random_strict_pair, random_symmetrized_pair, random_unitary


def mixed_pair(rng):
    """A pure pair of dimension 1-4 plus 1-2 Gamma-unitary points, under a
    random unitary; returns the pair and the number of planted points.

    The pure part is a symmetrized or strict pair, whose P has a full-rank
    defect.  Each planted point is (z1 + z2, z1 z2) with |z1| = |z2| = 1.
    The pair is a member, not strict and not pure, and the unitary part of
    P has the planted dimension.
    """
    dim = int(rng.integers(1, 5))
    if rng.integers(2):
        base = random_symmetrized_pair(rng, dim)
    else:
        base = random_strict_pair(rng, dim, float(rng.uniform(0.5, 0.95)))
    k = int(rng.integers(1, 3))
    z = np.exp(2j * np.pi * rng.uniform(size=(2, k)))
    q = random_unitary(rng, dim + k)
    s = q @ scipy.linalg.block_diag(base.S, np.diag(z.sum(axis=0))) @ q.conj().T
    p = q @ scipy.linalg.block_diag(base.P, np.diag(z.prod(axis=0))) @ q.conj().T
    return make_operator_pair(s, p), k


def near_unitary_pair(delta):
    """(T1 + T2, T1 T2) for T1 = T2 = diag(1 - delta, 0.5).

    I - P*P has the eigenvalue 1 - (1 - delta)^4, about 4 delta, so the
    default ``rank_tol`` of 1e-10 keeps that direction in the defect space
    for delta >= 3e-11 and cuts it for delta <= 2e-11.
    """
    t = np.diag([1.0 - delta, 0.5]).astype(complex)
    return symmetrize_pair(t, t)


def rotated_near_unitary_pairs(count, delta=1e-8):
    """(2T, T^2) for T = Q diag(1 - delta, 0.5, 0.3) Q*, Q from ``count``
    successive ``random_unitary`` draws of ``np.random.default_rng(7)``.

    Each is the symmetrization of a contraction with itself, so a member.
    The smallest defect eigenvalue of P, about 4 delta, magnifies the
    rounding of S - S*P in the fundamental operator: at delta = 1e-8 its
    numerical radius exceeds 1 by up to 3.9e-9 on the first six draws.
    """
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(count):
        q = random_unitary(rng, 3)
        t = q @ np.diag([1.0 - delta, 0.5, 0.3]) @ q.conj().T
        pairs.append(make_operator_pair(2.0 * t, t @ t))
    return pairs


def nilpotent_matrix(k):
    """J_k / cos(pi / (k + 1)), J_k the k x k nilpotent Jordan block.

    The numerical radius of J_k is cos(pi / (k + 1)), so this matrix has
    numerical radius exactly 1 and no unimodular eigenvalue: its variety
    is distinguished, but not by the certified criteria.
    """
    return np.eye(k, k=1, dtype=complex) / math.cos(math.pi / (k + 1))


def rotated_pair(pair, w):
    """(w S, w^2 P) for unimodular w.

    (s, p) -> (w s, w^2 p) maps Gamma onto itself and its distinguished
    boundary onto itself, so Gamma is a spectral set for the image iff it
    is one for (S, P).  I - P*P is unchanged, and the fundamental operator
    of the image is exactly w F.
    """
    return make_operator_pair(w * pair.S, w * w * pair.P)
