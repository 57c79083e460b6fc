"""Truncated dilation models of pure member pairs.

A pure member pair (S, P) dilates to the pair

    (T, V) = (I (tensor) G* + M_z (tensor) G,  M_z (tensor) I)

on vector-valued power series over the defect space of P*, where G
solves the fundamental equation of (S*, P*).  Truncating to the first N
coefficient blocks, with N large enough that ||P^N|| is negligible,
gives finite operators whose compressions reproduce the mixed powers
S^m P^n up to a tail-controlled residual; the embedding that realizes
the compression is h -> (D_{P*} P*^n h)_{n < N}.  T and V are applied
block by block and never formed: T* sends block j to G x_j + G* x_{j+1},
and V moves every block down by one.  As dense matrices they are the
adjoints of the S and P that ``truncated_model_from_F(G, N)`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fundamental import FundamentalOperator, solve_fundamental
from .gamma_pairs import OperatorPair, check_pure
from .numerics import DEFAULT_TOL, Tolerances, _count, operator_norm

__all__ = [
    "TruncatedModel",
    "DilationReport",
    "build_model",
    "dilation_check",
]

_TAIL_TARGET = 1e-8
_MAX_LEVEL = 4096
# Largest power bound of ``dilation_check``: each power adds N k x dim arrays
_MAX_POWER = 64


@dataclass(frozen=True)
class TruncatedModel:
    """Finite compression of the dilation pair with its embedding.

    ``W`` embeds the original space into N blocks of defect-space
    coordinates of P*, each ``block_dim`` rows, and is isometric up to
    ``tail`` = ||P^N|| = ||P*^N|| (||W*W - I|| = tail^2 exactly in
    arithmetic).  ``fund_adjoint.F`` is G.
    """

    N: int
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
    embed_defect: float


def _tail_norm(p: np.ndarray, n: int) -> float:
    return operator_norm(np.linalg.matrix_power(p, n))


def build_model(
    pair: OperatorPair, n_blocks: int | None = None, tol: Tolerances = DEFAULT_TOL
) -> TruncatedModel:
    """Truncated dilation model of a pure member pair.

    The truncation level is doubled until ||P^N|| <= 1e-8 (starting from
    the requested level, default 8), capped at 4096; a requested level
    above the cap raises.  The cap bounds the N-step loop that builds W
    and its N k x dim storage.  Requires P pure.  A pure P whose powers
    decay too slowly (for a normal P, an eigenvalue of modulus above
    about 1 - 4.5e-3) leaves the tail above target at the cap: that
    raises too, with the verdict that the truncated model does not apply
    to the pair.
    """
    if not check_pure(pair.P, tol):
        raise ValueError("P is not pure; the truncated model does not apply")
    n = _count(n_blocks, "block count", 1, _MAX_LEVEL) if n_blocks is not None else 8
    tail = _tail_norm(pair.P, n)
    while tail > _TAIL_TARGET:
        if n >= _MAX_LEVEL:
            raise ValueError(
                f"tail {tail:.3e} above target at the level cap {_MAX_LEVEL}: "
                f"P is pure, but ||P^N|| does not reach {_TAIL_TARGET:g} within "
                "the cap, so the truncated model does not apply"
            )
        n = min(2 * n, _MAX_LEVEL)
        tail = _tail_norm(pair.P, n)

    # (S*, P*), formed here for its one reader: C-ordered arrays of their own,
    # so that defect_operator holds the split of P*
    adjoint = OperatorPair(
        np.ascontiguousarray(pair.S.T).conj(),
        np.ascontiguousarray(pair.P.T).conj(),
        pair.commutator_defect,
        pair.s_norm,
        pair.p_norm,
    )
    fund = solve_fundamental(adjoint, tol)
    bs = fund.defect.basis
    blocks = []
    cur = fund.defect.D
    for _ in range(n):
        blocks.append(bs.conj().T @ cur)
        cur = cur @ adjoint.P
    return TruncatedModel(n, np.vstack(blocks), tail, fund.defect.rank, fund)


def _adjoint_symbol(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T* applied to the N x k x dim block array x: G x_j + G* x_{j+1}."""
    out = g @ x
    out[:-1] += g.conj().T @ x[1:]
    return out


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
    C * tail, C = (1 + ||S||) (1 + m_max + n_max).  Power bounds that
    are not integers, are negative (they would check no power at all) or
    exceed 64 raise ``ValueError``.

    Each compression is (T*^m W)* (V^n W), where V^n W is W moved down n
    blocks, so only N k x dim arrays are formed.
    """
    m_max, n_max = (_count(b, "power bound", 0, _MAX_POWER) for b in (m_max, n_max))
    if model.W.shape[1] != pair.dim:
        raise ValueError("model and pair dimensions do not match")
    w = model.W
    n, dim = model.N, pair.dim
    blocks = w.reshape(n, model.block_dim, dim)
    g = model.fund_adjoint.F
    t_adj_w = [blocks]  # T*^m W
    for _ in range(max(m_max, 1)):
        t_adj_w.append(_adjoint_symbol(g, t_adj_w[-1]))
    p_pows = [np.linalg.matrix_power(pair.P, nn) for nn in range(n_max + 1)]
    residuals = []
    for m in range(m_max + 1):
        s_pow = np.linalg.matrix_power(pair.S, m)
        for nn, p_pow in enumerate(p_pows):
            target = s_pow @ p_pow
            # for nn >= N both slices are empty and V^n W is 0
            left = t_adj_w[m][nn:].reshape(-1, dim)
            right = blocks[: max(n - nn, 0)].reshape(-1, dim)
            residuals.append(left.conj().T @ right - target)
    # the largest singular value over one batched SVD is the largest residual norm
    max_res = float(np.linalg.svd(np.stack(residuals), compute_uv=False).max())
    v_adj_w = np.zeros_like(blocks)  # V* W: W moved up one block
    v_adj_w[:-1] = blocks[1:]
    shift_res = operator_norm(w @ pair.P.conj().T - v_adj_w.reshape(w.shape))
    symbol_res = operator_norm(w @ pair.S.conj().T - t_adj_w[1].reshape(w.shape))
    bound = (1.0 + pair.s_norm) * (1.0 + m_max + n_max) * model.tail
    embed = operator_norm(w.conj().T @ w - np.eye(pair.dim))
    return DilationReport(max_res, shift_res, symbol_res, bound, embed)
