"""Characteristic-function coefficients and truncated dilation models.

A pure member pair (S, P) dilates to the pair

    (I (tensor) G* + M_z (tensor) G,  M_z (tensor) I)

on vector-valued power series over the defect space of P*, where G
solves the fundamental equation of (S*, P*).  Truncating to the first N
coefficient blocks, with N large enough that ||P^N|| is negligible,
gives finite matrices whose compressions reproduce the mixed powers
S^m P^n up to a tail-controlled residual; the embedding that realizes
the compression is h -> (D_{P*} P*^n h)_{n < N}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fundamental import FundamentalOperator, defect_operator, solve_fundamental
from .gamma_pairs import OperatorPair, check_pure, make_operator_pair
from .numerics import DEFAULT_TOL, Tolerances, as_matrix, operator_norm, require_square

__all__ = [
    "CharFnCoeffs",
    "TruncatedModel",
    "DilationReport",
    "characteristic_coeffs",
    "build_model",
    "dilation_check",
]

_TAIL_TARGET = 1e-8
_MAX_LEVEL = 4096


@dataclass(frozen=True)
class CharFnCoeffs:
    """Taylor coefficients of the characteristic function of a contraction.

    Block k maps defect-space coordinates of P to defect-space
    coordinates of P*: block 0 is -P compressed, block k >= 1 is
    D_{P*} P*^{k-1} D_P compressed.
    """

    coeffs: list[np.ndarray]
    P: np.ndarray


def characteristic_coeffs(
    p, n_terms: int, tol: Tolerances = DEFAULT_TOL
) -> CharFnCoeffs:
    """First ``n_terms`` Taylor coefficients about 0, from closed forms.

    No series inversion is performed: the resolvent expansion of
    -T + z D_{T*} (I - z T*)^{-1} D_T yields the stated block formulas
    directly.
    """
    p = require_square(as_matrix(p), "P")
    if n_terms < 1:
        raise ValueError("coefficient count must be positive")
    dd = defect_operator(p, tol)
    dd_star = defect_operator(p.conj().T, tol)
    b, bs = dd.basis, dd_star.basis
    coeffs = [bs.conj().T @ (-p) @ b]
    power = np.eye(p.shape[0], dtype=complex)
    for _ in range(1, n_terms):
        coeffs.append(bs.conj().T @ dd_star.D @ power @ dd.D @ b)
        power = power @ p.conj().T
    return CharFnCoeffs(coeffs, p.copy())


@dataclass(frozen=True)
class TruncatedModel:
    """Finite compression of the dilation pair with its embedding.

    ``T`` and ``V`` act on N blocks of defect-space coordinates of P*;
    ``W`` embeds the original space into the block space and is isometric
    up to ``tail`` = ||P^N|| = ||P*^N|| (||W*W - I|| = tail^2 exactly in
    arithmetic).
    """

    N: int
    T: np.ndarray
    V: np.ndarray
    W: np.ndarray
    tail: float
    block_dim: int
    fund_adjoint: FundamentalOperator


@dataclass(frozen=True)
class DilationReport:
    max_residual: float
    shift_intertwine: float
    symbol_intertwine: float
    bound: float
    tail: float
    embed_defect: float


def _tail_norm(p: np.ndarray, n: int) -> float:
    return operator_norm(np.linalg.matrix_power(p, n))


def build_model(
    pair: OperatorPair, n_blocks: int | None = None, tol: Tolerances = DEFAULT_TOL
) -> TruncatedModel:
    """Truncated dilation model of a pure member pair.

    The truncation level is doubled until ||P^N|| <= 1e-8 (starting from
    the requested level, default 8), capped at 4096; a requested level
    above the cap, or a tail still above target at the cap, raises.
    Requires P pure.
    """
    if not check_pure(pair.P, tol):
        raise ValueError("P is not pure; the truncated model does not apply")
    n = n_blocks if n_blocks is not None else 8
    if n < 1:
        raise ValueError("block count must be positive")
    if n > _MAX_LEVEL:
        raise ValueError(f"block count {n} exceeds the level cap {_MAX_LEVEL}")
    tail = _tail_norm(pair.P, n)
    while tail > _TAIL_TARGET:
        if n >= _MAX_LEVEL:
            raise ValueError(
                f"tail {tail:.3e} above target at the level cap {_MAX_LEVEL}"
            )
        n = min(2 * n, _MAX_LEVEL)
        tail = _tail_norm(pair.P, n)

    adjoint = make_operator_pair(pair.S.conj().T, pair.P.conj().T, tol)
    fund = solve_fundamental(adjoint, tol)
    g = fund.F
    k = fund.defect.rank
    shift = np.eye(n, k=-1)
    t = np.kron(np.eye(n), g.conj().T) + np.kron(shift, g)
    v = np.kron(shift, np.eye(k)).astype(complex)

    bs = fund.defect.basis
    d_star = fund.defect.D
    p_adj = pair.P.conj().T
    blocks = []
    cur = d_star.copy()
    for _ in range(n):
        blocks.append(bs.conj().T @ cur)
        cur = cur @ p_adj
    w = np.vstack(blocks)
    return TruncatedModel(n, t, v, w, tail, k, fund)


def dilation_check(
    model: TruncatedModel,
    pair: OperatorPair,
    m_max: int = 3,
    n_max: int = 3,
) -> DilationReport:
    """Residuals of the compression identity W* T^m V^n W = S^m P^n.

    Returns the maximum residual over 0 <= m <= m_max, 0 <= n <= n_max,
    together with the co-isometric extension residuals ||W P* - V* W||
    and ||W S* - T* W|| and the reporting bound
    C * tail, C = (1 + ||S||) (1 + m_max + n_max).  Negative power
    bounds raise ``ValueError``: they would check no power at all.
    """
    if m_max < 0 or n_max < 0:
        raise ValueError("power bounds must be nonnegative")
    if model.W.shape[1] != pair.dim:
        raise ValueError("model and pair dimensions do not match")
    w = model.W
    wh = w.conj().T
    residuals = []
    t_pow = np.eye(model.T.shape[0], dtype=complex)
    for m in range(m_max + 1):
        s_pow = np.linalg.matrix_power(pair.S, m)
        tv = t_pow
        for nn in range(n_max + 1):
            target = s_pow @ np.linalg.matrix_power(pair.P, nn)
            residuals.append(wh @ tv @ w - target)
            tv = tv @ model.V
        t_pow = t_pow @ model.T
    # the largest singular value over one batched SVD is the largest residual norm
    max_res = float(np.linalg.svd(np.stack(residuals), compute_uv=False).max())
    shift_res = operator_norm(w @ pair.P.conj().T - model.V.conj().T @ w)
    symbol_res = operator_norm(w @ pair.S.conj().T - model.T.conj().T @ w)
    bound = (1.0 + pair.s_norm) * (1.0 + m_max + n_max) * model.tail
    embed = operator_norm(wh @ w - np.eye(pair.dim))
    return DilationReport(max_res, shift_res, symbol_res, bound, model.tail, embed)
