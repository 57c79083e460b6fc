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

import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gamma_pairs import DefectData, OperatorPair, defect_operator, make_operator_pair
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    _count,
    as_matrix,
    numerical_radius,
    operator_norm,
    require_square,
)

__all__ = [
    "FundamentalOperator",
    "ResidualTooLargeError",
    "FundamentalBoundError",
    "solve_fundamental",
    "truncated_model_from_F",
]


class ResidualTooLargeError(ValueError):
    """The fundamental equation is unsolvable at the detected defect rank."""


class FundamentalBoundError(ValueError):
    """Numerical radius of the solution exceeds 1 on a verified member pair."""


@dataclass(frozen=True, eq=False)
class FundamentalOperator:
    """Solution of the fundamental equation in defect-space coordinates.

    It takes ownership of F, makes it read-only and compares by identity;
    ``nr``, the numerical radius of F, is solved on first read and kept.
    """

    F: np.ndarray
    residual: float
    defect: DefectData

    def __post_init__(self):
        self.F.flags.writeable = False

    def __reduce__(self):
        # rebuilt through the constructor: read-only F, no ``nr`` carried over
        return type(self), (self.F, self.residual, self.defect)

    @cached_property
    def nr(self) -> float:
        return numerical_radius(self.F)


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
    solved here, and ``FundamentalBoundError`` raised when it exceeds the
    bound that the membership's PSD test implies,

        nr <= 1 + psd_tol (1 + 2 ||C|| + 2 ||B||) / (2 lambda_r),

    C = I - P*P, B = S - S*P and lambda_r the smallest kept eigenvalue of
    C.  Otherwise ``nr`` is solved on first read.  The bound: for a unit
    vector y of the defect space take v = W y.  The kept eigenvectors U
    give U* C U = diag(lambda), so v* C v = 1, v* B v = y* F y, and
    ||v||^2 <= 1 / lambda_r.  For unimodular w the membership pencil
    H(w) = 2C - w B - conj(w) B* then gives
    v* H(w) v = 2 - 2 Re(w y* F y).  The PSD test accepts
    lambda_min(H(w)) >= -tau with tau = psd_tol (1 + max |eigenvalue|),
    at most psd_tol (1 + 2 ||C|| + 2 ||B||), so
    2 - 2 Re(w y* F y) >= -tau ||v||^2 >= -tau / lambda_r at every w the
    test accepts and every y, which is the bound (the sweep samples the
    circle, so its members meet it at the sampled phases).  The factor
    1 / lambda_r matters: B carries the rounding of the stored S and P,
    and a small kept defect eigenvalue magnifies it in F, so a band
    nr <= 1 + psd_tol would reject member pairs near the boundary.  The
    norms are solved only when nr > 1 + psd_tol, since the bound is at
    least that.

    The solution is held per pair object and ``tol``, for the last pair,
    so a second call on it returns the same object, with its ``nr`` if
    read; each call adds only the bound check.  An error is not held, and
    raises again.  The held solution goes stale if S or P is made
    writeable and changed in place; a pickled or copied pair is a new key.
    """
    fund = _held_fundamental(pair, tol)
    if contraction_verified and fund.nr > 1.0 + tol.psd_tol:
        dd = fund.defect
        lam_r = dd.eigenvalues[dd.eigenvalues.size - dd.rank]
        scale = 1.0 + 2.0 * operator_norm(pair.C) + 2.0 * operator_norm(pair.B)
        bound = 1.0 + tol.psd_tol * scale / (2.0 * lam_r)
        if fund.nr > bound:
            raise FundamentalBoundError(
                f"numerical radius {fund.nr:.12f} exceeds 1 on a verified member pair, "
                f"beyond the bound {bound:.12f}"
            )
    return fund


@functools.lru_cache(maxsize=1)
def _held_fundamental(pair: OperatorPair, tol: Tolerances) -> FundamentalOperator:
    return _fundamental(pair, tol)


def _fundamental(pair: OperatorPair, tol: Tolerances) -> FundamentalOperator:
    dd = defect_operator(pair.P, tol)
    rhs = pair.B
    w = dd.basis / np.sqrt(dd.eigenvalues[dd.eigenvalues.size - dd.rank :])
    f = w.conj().T @ rhs @ w
    recon = dd.D @ (dd.basis @ f @ dd.basis.conj().T) @ dd.D
    scale = 1.0 + pair.s_norm * (1.0 + pair.p_norm)
    residual = operator_norm(rhs - recon)
    if residual > tol.residual_tol * scale:
        raise ResidualTooLargeError(
            f"fundamental equation residual {residual:.3e} exceeds tolerance "
            f"at defect rank {dd.rank}"
        )
    return FundamentalOperator(f, residual, dd)


# Largest n_blocks k of the dense S and P of ``truncated_model_from_F``; at 1024
# it takes 2.6 s and 120 MB on one Xeon core
_MAX_MODEL_DIM = 1024


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
    n_blocks = _count(n_blocks, "block count", 1, _MAX_MODEL_DIM // max(fhat.shape[0], 1))
    nr = numerical_radius(fhat)
    if nr > 1.0 + tol.psd_tol:
        raise ValueError(f"numerical radius {nr:.12f} exceeds 1")
    shift = np.eye(n_blocks, k=1)
    s = np.kron(np.eye(n_blocks), fhat) + np.kron(shift, fhat.conj().T)
    p = np.kron(shift, np.eye(fhat.shape[0])).astype(complex)
    return make_operator_pair(s, p, tol)
