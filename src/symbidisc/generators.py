"""Seeded generators for reproducible experiment corpora.

All randomness flows through ``numpy.random.Generator`` seeded with
PCG64, so identical seeds give identical instances across runs and
platforms.  Commuting pairs are built as polynomials in a single random
upper-triangular matrix (hence exactly commuting) scaled to a norm cap
and conjugated by a common random unitary.
"""

from __future__ import annotations

import numpy as np

from .fundamental import truncated_model_from_F
from .gamma_pairs import OperatorPair, make_operator_pair, symmetrize_pair
from .numerics import DEFAULT_TOL, Tolerances, numerical_radius, operator_norm
from .von_neumann import MatrixPolynomial

__all__ = [
    "rng_from_seed",
    "random_unitary",
    "random_commuting_contractions",
    "random_symmetrized_pair",
    "random_fhat",
    "random_model_pair",
    "scaled_pair",
    "random_strict_pair",
    "random_matrix_polynomial",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    """PCG64 generator; the single entry point for all randomness."""
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via phase-fixed QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(_ginibre(rng, n, n))
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def random_commuting_contractions(
    rng: np.random.Generator, dim: int, norm_cap: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Two exactly commuting matrices with operator norm <= norm_cap.

    Both are quadratic polynomials in one random upper-triangular matrix,
    rescaled below the cap and conjugated by a common unitary.
    """
    base = np.triu(_ginibre(rng, dim, dim))
    u = random_unitary(rng, dim)
    out = []
    for _ in range(2):
        c = _ginibre(rng, 3, 1).ravel()
        t = c[0] * np.eye(dim) + c[1] * base + c[2] * base @ base
        nrm = operator_norm(t)
        target = norm_cap * rng.uniform(0.4, 1.0)
        if nrm > 0:
            t = t * (target / nrm)
        out.append(u.conj().T @ t @ u)
    return out[0], out[1]


def random_symmetrized_pair(
    rng: np.random.Generator,
    dim: int,
    tol: Tolerances = DEFAULT_TOL,
    norm_cap: float = 0.95,
) -> OperatorPair:
    t1, t2 = random_commuting_contractions(rng, dim, norm_cap)
    return symmetrize_pair(t1, t2, tol)


def random_fhat(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random matrix scaled to a numerical radius drawn uniformly from [0.3, 1).

    A fundamental operator has numerical radius at most 1, so 1 is the cap.
    """
    f = _ginibre(rng, dim, dim)
    nr = numerical_radius(f)
    target = rng.uniform(0.3, 1.0)
    if nr > 0:
        f = f * (target / nr)
    return f


# Largest F of ``random_model_pair`` and its largest truncation level.
_MAX_BLOCK = 4
_MAX_LEVEL = 6


def random_model_pair(rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL) -> OperatorPair:
    """Member pair generated by the converse construction from a random matrix."""
    dim = int(rng.integers(1, _MAX_BLOCK + 1))
    levels = int(rng.integers(1, _MAX_LEVEL + 1))
    return truncated_model_from_F(random_fhat(rng, dim), levels, tol)


def scaled_pair(pair: OperatorPair, r: float, tol: Tolerances = DEFAULT_TOL) -> OperatorPair:
    """(r S, r^2 P); membership is preserved for 0 < r <= 1."""
    if not 0 < r <= 1:
        raise ValueError("scale must lie in (0, 1]")
    return make_operator_pair(r * pair.S, r * r * pair.P, tol)


def random_strict_pair(
    rng: np.random.Generator,
    dim: int,
    r: float,
    tol: Tolerances = DEFAULT_TOL,
) -> OperatorPair:
    """Strictly-member pair (r S, r^2 P) over a random symmetrized base."""
    base = random_symmetrized_pair(rng, dim, tol, norm_cap=0.98)
    return scaled_pair(base, r, tol)


def random_matrix_polynomial(
    rng: np.random.Generator,
    max_total_degree: int = 3,
    block_dim: int = 2,
) -> MatrixPolynomial:
    """Random matrix polynomial with total degree and block size capped; one
    draw gives term (i, j) = (0, 0), (0, 1), ..., (d, 0) the next ``_ginibre``."""
    d = max_total_degree
    coeffs = np.zeros((d + 1, d + 1, block_dim, block_dim), dtype=complex)
    ii, jj = np.nonzero(np.add.outer(np.arange(d + 1), np.arange(d + 1)) <= d)
    x = rng.standard_normal((ii.size, 2, block_dim, block_dim))
    coeffs[ii, jj] = x[:, 0] + 1j * x[:, 1]
    return MatrixPolynomial.from_coeffs(coeffs)
