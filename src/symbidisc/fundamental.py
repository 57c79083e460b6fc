"""Defect operators, the fundamental equation, and its converse model.

For a contraction P the defect operator is D = (I - P*P)^{1/2}.  The
fundamental equation of a commuting pair (S, P),

    S - S*P = D X D,    X acting on the defect space,

has a unique solution F when the pair has the symmetrized bidisc as a
spectral set, and that solution has numerical radius at most 1.  The
converse construction realizes any matrix of numerical radius at most 1
as the solution attached to an explicit finite pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gamma_pairs import OperatorPair, make_operator_pair
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    _integer,
    as_matrix,
    numerical_radius,
    operator_norm,
    require_square,
)

__all__ = [
    "DefectData",
    "FundamentalOperator",
    "ResidualTooLargeError",
    "FundamentalBoundError",
    "defect_operator",
    "solve_fundamental",
    "truncated_model_from_F",
]


class ResidualTooLargeError(ValueError):
    """The fundamental equation is unsolvable at the detected defect rank."""


class FundamentalBoundError(ValueError):
    """Numerical radius of the solution exceeds 1 on a verified member pair."""


@dataclass(frozen=True)
class DefectData:
    """Defect operator of a contraction together with a defect-space basis.

    ``D`` is the PSD square root of I - P*P on the full space, ``basis``
    holds orthonormal eigenvector columns spanning the defect space
    (eigenvalues of I - P*P above ``rank_tol``), and ``eigenvalues`` are
    all eigenvalues of I - P*P, ascending and clamped at 0.
    """

    D: np.ndarray
    basis: np.ndarray
    rank: int
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class FundamentalOperator:
    """Solution of the fundamental equation in defect-space coordinates.

    ``nr``, the numerical radius of F, is solved on first read and kept.
    """

    F: np.ndarray
    residual: float
    defect: DefectData

    @cached_property
    def nr(self) -> float:
        return numerical_radius(self.F)


def defect_operator(p, tol: Tolerances = DEFAULT_TOL) -> DefectData:
    """Defect operator of a contraction by clamped Hermitian eigendecomposition."""
    p = require_square(as_matrix(p), "P")
    if operator_norm(p) > 1.0 + tol.psd_tol:
        raise ValueError("P is not a contraction within tolerance")
    n = p.shape[0]
    g = np.eye(n) - p.conj().T @ p
    g = 0.5 * (g + g.conj().T)
    lam, u = np.linalg.eigh(g) if n else (np.zeros(0), np.zeros((0, 0)))
    lam = np.clip(lam, 0.0, None)
    d = (u * np.sqrt(lam)) @ u.conj().T
    keep = lam > tol.rank_tol
    return DefectData(d, u[:, keep], int(np.count_nonzero(keep)), lam)


def solve_fundamental(
    pair: OperatorPair,
    tol: Tolerances = DEFAULT_TOL,
    contraction_verified: bool = False,
) -> FundamentalOperator:
    """Solve S - S*P = D X D on the defect space of P.

    On the defect basis U, with kept eigenvalues lambda of I - P*P, D is
    U diag(sqrt(lambda)) U*, so the solution is F = W*(S - S*P)W with
    W = U diag(lambda)^{-1/2}.  The residual of the reconstructed equation
    must stay below ``residual_tol`` times a norm scale, otherwise the
    equation is unsolvable at the detected rank (the pair is not a member
    pair, or the rank cutoff misfired).

    Only with ``contraction_verified=True`` is the numerical radius
    solved here: the bound nr <= 1 + psd_tol is enforced and its
    violation raises ``FundamentalBoundError``.  Otherwise ``nr`` is
    solved on first read.
    """
    dd = defect_operator(pair.P, tol)
    rhs = pair.S - pair.S.conj().T @ pair.P
    w = dd.basis / np.sqrt(dd.eigenvalues[dd.eigenvalues > tol.rank_tol])
    f = w.conj().T @ rhs @ w
    recon = dd.D @ (dd.basis @ f @ dd.basis.conj().T) @ dd.D
    scale = 1.0 + pair.s_norm * (1.0 + pair.p_norm)
    residual = operator_norm(rhs - recon)
    if residual > tol.residual_tol * scale:
        raise ResidualTooLargeError(
            f"fundamental equation residual {residual:.3e} exceeds tolerance "
            f"at defect rank {dd.rank}"
        )
    fund = FundamentalOperator(f, residual, dd)
    if contraction_verified and fund.nr > 1.0 + tol.psd_tol:
        raise FundamentalBoundError(
            f"numerical radius {fund.nr:.12f} exceeds 1 on a verified member pair"
        )
    return fund


def truncated_model_from_F(
    fhat, n_blocks: int, tol: Tolerances = DEFAULT_TOL
) -> OperatorPair:
    """Finite pair whose fundamental operator is the given matrix.

    On ``n_blocks`` copies of the coefficient space, S carries the input
    on the diagonal blocks and its adjoint on the first superdiagonal,
    while P is the block backward shift.  The first-block compression of
    the corresponding infinite pair is co-invariant, so the construction
    is exactly finite: S and P commute exactly, P is nilpotent, the
    defect operator of P is the projection onto block 0, and
    S - S*P equals the input on that block.
    """
    fhat = require_square(as_matrix(fhat), "coefficient matrix")
    n_blocks = _integer(n_blocks, "block count")
    if n_blocks < 1:
        raise ValueError("block count must be positive")
    nr = numerical_radius(fhat)
    if nr > 1.0 + tol.psd_tol:
        raise ValueError(f"numerical radius {nr:.12f} exceeds 1")
    return make_operator_pair(*_block_shift_pair(fhat, n_blocks), tol)


def _block_shift_pair(f: np.ndarray, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense S and P of the converse model of ``truncated_model_from_F``.

    Their adjoints are exactly the T and V of a truncated dilation model
    with fundamental operator ``f``.
    """
    shift = np.eye(n_blocks, k=1)
    s = np.kron(np.eye(n_blocks), f) + np.kron(shift, f.conj().T)
    p = np.kron(shift, np.eye(f.shape[0])).astype(complex)
    return s, p
