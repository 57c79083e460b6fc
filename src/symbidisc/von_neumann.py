"""Matrix polynomials in two variables and the von Neumann report.

Every member pair (S, P) of finite dimension carries the variety

    det(F + p F* - s I) = 0,

with F the fundamental operator, and satisfies
||f(S, P)|| <= max ||f(s, p)|| over the variety's unimodular-|p| boundary
points for every matrix-valued polynomial f.  The report certifies this
inequality at sampled boundary angles.

The orientation of the representation matters: substituting F* for F
above produces the conjugate variety, on which the inequality fails for
complex fundamental operators (directly observable on truncated-model
pairs with a complex scalar solution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fundamental import FundamentalOperator, solve_fundamental
from .gamma_pairs import OperatorPair
from .geometry import GammaPoint
from .numerics import DEFAULT_TOL, Tolerances, operator_norm
from .varieties import DeterminantalVariety, _boundary_grid

__all__ = [
    "MatrixPolynomial",
    "VNReport",
    "evaluate_pair",
    "cup_transform",
    "lambda_variety",
    "vn_report",
]

_REFINE_CAP = 1 << 16
_HOLDS_SLACK = 1e-6


@dataclass(frozen=True)
class MatrixPolynomial:
    """Polynomial sum of C[i, j] s^i p^j with square matrix coefficients.

    ``coeffs`` has shape (deg_s + 1, deg_p + 1, k, k).
    """

    coeffs: np.ndarray

    @classmethod
    def from_coeffs(cls, c) -> "MatrixPolynomial":
        c = np.asarray(c, dtype=complex)
        if c.ndim != 4 or c.shape[2] != c.shape[3]:
            raise ValueError(
                "coefficients must have shape (deg_s+1, deg_p+1, k, k)"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        return cls(c.copy())

    @classmethod
    def scalar(cls, grid) -> "MatrixPolynomial":
        """Scalar polynomial from a 2-d coefficient grid."""
        g = np.atleast_2d(np.asarray(grid, dtype=complex))
        return cls.from_coeffs(g[:, :, None, None])

    @property
    def block_dim(self) -> int:
        return self.coeffs.shape[2]

    @property
    def degrees(self) -> tuple[int, int]:
        return self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1


def evaluate_pair(f: MatrixPolynomial, pair: OperatorPair) -> np.ndarray:
    """Operator value sum of C[i, j] (tensor) S^i P^j as a block matrix."""
    ds, dp = f.degrees
    n = pair.dim
    s_pows = [np.eye(n, dtype=complex)]
    for _ in range(ds):
        s_pows.append(s_pows[-1] @ pair.S)
    p_pows = [np.eye(n, dtype=complex)]
    for _ in range(dp):
        p_pows.append(p_pows[-1] @ pair.P)
    k = f.block_dim
    ii, jj = np.nonzero(f.coeffs.reshape(ds + 1, dp + 1, -1).any(axis=2))
    if ii.size == 0:
        return np.zeros((k * n, k * n), dtype=complex)
    terms = np.stack([s_pows[i] @ p_pows[j] for i, j in zip(ii, jj)])
    # Kronecker products summed at once: out[a n + x, b n + y] = C[a, b] T[x, y]
    return np.einsum("tab,txy->axby", f.coeffs[ii, jj], terms).reshape(k * n, k * n)


def cup_transform(f: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise adjoint; the involution with
    f_cup(A, B) = f(A*, B*)* on commuting arguments."""
    return MatrixPolynomial(np.conj(np.swapaxes(f.coeffs, -1, -2)).copy())


def lambda_variety(
    pair: OperatorPair,
    tol: Tolerances = DEFAULT_TOL,
    fund: Optional[FundamentalOperator] = None,
) -> DeterminantalVariety:
    """Determinantal variety attached to a member pair.

    With F the fundamental operator, the representing matrix is F, so
    that det(A + p A* - s I) = det(F + p F* - s I).  A zero-rank defect
    (P unitary) yields the degenerate 0 x 0 representation.  The
    variety's numerical radius is ``fund.nr``, so a supplied ``fund``
    should have been solved with the same ``tol``.
    """
    if fund is None:
        fund = solve_fundamental(pair, tol)
    return DeterminantalVariety(fund.F.copy(), fund.nr)


@dataclass(frozen=True)
class VNReport:
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    m: int
    sample_count: int
    argmax: Optional[GammaPoint]
    argmax_theta: float
    degenerate: bool


def _boundary(variety: DeterminantalVariety, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Variety points over m unimodular p: ``(p, s)`` with ``s[:, t]`` the
    fiber over ``p[t]``.

    ``s`` has shape (n, m), angles last, so that elementwise work on the
    grid runs along contiguous rows.
    """
    _, s, p = _boundary_grid(variety, m)
    return p, np.ascontiguousarray(s.T)


@dataclass(frozen=True)
class _PairState:
    """What the right-hand side needs from a pair: its variety (F and the
    numerical radius) and the boundary grid at the requested m."""

    variety: DeterminantalVariety
    p: np.ndarray
    s: np.ndarray


# One entry: reports on the same pair come in runs, and a larger cache only
# holds more grids.  Keyed by contents, because the pair's arrays are mutable.
_memo: Optional[tuple[tuple, _PairState]] = None


def _pair_state(pair: OperatorPair, tol: Tolerances, m: int) -> _PairState:
    global _memo
    key = (pair.S.shape, pair.S.tobytes(), pair.P.tobytes(), tol, m)
    memo = _memo  # read once: a concurrent caller can only force a recompute
    if memo is not None and memo[0] == key:
        return memo[1]
    variety = lambda_variety(pair, tol)
    state = _PairState(variety, *_boundary(variety, m))
    _memo = (key, state)
    return state


def _horner_p(row: np.ndarray, p: np.ndarray) -> Optional[np.ndarray]:
    """sum_j row[j] p^j with entries first, shape (k, k, m); None if zero."""
    nz = np.flatnonzero(row.reshape(len(row), -1).any(axis=1))
    if nz.size == 0:
        return None
    acc = np.empty(row.shape[1:] + p.shape, dtype=complex)
    acc[...] = row[nz[-1], :, :, None]
    for c in row[: nz[-1]][::-1]:
        acc *= p
        acc += c[:, :, None]
    return acc


def _eval_grid(f: MatrixPolynomial, p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f at every grid point by Horner's rule in p, then in s.

    Entries come first: the result has shape (k, k, n, m).
    """
    k = f.block_dim
    out = None
    for row in f.coeffs[::-1]:
        q = _horner_p(row, p)
        if out is None:
            if q is not None:
                out = np.repeat(q[:, :, None, :], s.shape[0], axis=2)
            continue
        out *= s
        if q is not None:
            out += q[:, :, None, :]
    if out is None:
        return np.zeros((k, k) + s.shape, dtype=complex)
    return out


def _sigma_max_2x2(a: np.ndarray) -> np.ndarray:
    sq = a.real**2 + a.imag**2
    x = sq[0, 0] + sq[0, 1]
    y = sq[1, 0] + sq[1, 1]
    z = a[0, 0] * np.conj(a[1, 0]) + a[0, 1] * np.conj(a[1, 1])
    return np.sqrt(0.5 * (x + y + np.hypot(x - y, 2.0 * np.abs(z))))


def _norms_2x2(a: np.ndarray) -> np.ndarray:
    """Largest singular values of 2x2 blocks, entries first: a[i, j, ...].

    sigma_max^2 = (||A||_F^2 + sqrt(||A||_F^4 - 4 |det A|^2)) / 2, with the
    discriminant written as (x - y)^2 + 4 |z|^2 over the entries x, z, y of
    A A*, a sum of nonnegative terms.  Blocks whose squared entries may
    leave the double range are scaled by their largest entry first, so
    values near 1e+-200 neither overflow nor underflow.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms = _sigma_max_2x2(a)
    off = ~((norms >= 1e-150) & (norms <= 1e150))
    if off.any():
        sub = a[:, :, off]
        scale = np.abs(sub).max(axis=(0, 1))
        norms[off] = scale * _sigma_max_2x2(sub / np.where(scale > 0, scale, 1.0))
    return norms


def _boundary_max(f: MatrixPolynomial, p: np.ndarray, s: np.ndarray):
    vals = _eval_grid(f, p, s)
    if f.block_dim == 2:
        norms = _norms_2x2(vals)
    else:
        norms = np.linalg.svd(np.moveaxis(vals, (0, 1), (2, 3)), compute_uv=False)[..., 0]
    # angle-major order, so ties resolve to the first angle
    t, j = divmod(int(np.argmax(norms.T)), s.shape[0])
    return float(norms[j, t]), GammaPoint(complex(s[j, t]), complex(p[t]))


def vn_report(
    f: MatrixPolynomial,
    pair: OperatorPair,
    m: int = 2048,
    tol: Tolerances = DEFAULT_TOL,
) -> VNReport:
    """Compare ||f(S, P)|| against the sampled boundary maximum of ||f(s, p)||.

    The right-hand side samples only the unimodular-|p| fibers of the
    attached variety.  ``holds`` allows the multiplicative slack 1 + 1e-6
    for grid under-sampling of the maximum; on apparent violation the
    angular grid is doubled (up to 2^16) before a violation is reported.
    Degenerate reports (zero defect rank) use the convention points
    (0, e^{i theta}).

    F, the variety and the m-angle boundary grid depend only on the pair,
    ``tol`` and ``m``; the most recent pair's are kept and reused while
    consecutive calls present equal inputs.
    """
    if m < 1:
        raise ValueError("sample count must be positive")
    state = _pair_state(pair, tol, m)
    variety = state.variety
    lhs = operator_norm(evaluate_pair(f, pair))
    cur_m, p, s = m, state.p, state.s
    while True:
        rhs, arg = _boundary_max(f, p, s)
        holds = lhs <= rhs * (1.0 + _HOLDS_SLACK)
        if holds or cur_m >= _REFINE_CAP:
            break
        cur_m *= 2
        p, s = _boundary(variety, cur_m)
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0 else math.inf
    theta = math.atan2(arg.p.imag, arg.p.real) % (2.0 * math.pi)
    count = max(variety.dim, 1) * cur_m
    return VNReport(
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        holds=holds,
        m=cur_m,
        sample_count=count,
        argmax=arg,
        argmax_theta=theta,
        degenerate=variety.dim == 0,
    )
