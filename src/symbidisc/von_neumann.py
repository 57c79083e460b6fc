"""Matrix polynomials in two variables and the von Neumann report.

Every member pair (S, P) of finite dimension carries the variety

    det(A + p A* - s I) = 0,    A = F (+) S_u / 2,

with F the fundamental operator and S_u the compression of S to the
unitary part of P, and satisfies ||f(S, P)|| <= max ||f(s, p)|| over the
variety's unimodular-|p| boundary points for every matrix-valued
polynomial f.  The report certifies this inequality at sampled boundary
angles.

The orientation of the representation matters: substituting F* for F
above produces the conjugate variety, on which the inequality fails for
complex fundamental operators (directly observable on truncated-model
pairs with a complex scalar solution).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fundamental import solve_fundamental
from .gamma_pairs import OperatorPair
from .geometry import GammaPoint
from .numerics import DEFAULT_TOL, Tolerances, operator_norm, sample_count
from .varieties import DeterminantalVariety

__all__ = [
    "MatrixPolynomial",
    "VNReport",
    "evaluate_pair",
    "lambda_variety",
    "vn_report",
]

_REFINE_CAP = 1 << 16
_HOLDS_SLACK = 1e-6


@dataclass(frozen=True)
class MatrixPolynomial:
    """Polynomial sum of C[i, j] s^i p^j with square matrix coefficients.

    ``coeffs`` has shape (deg_s + 1, deg_p + 1, k, k), no axis empty.
    """

    coeffs: np.ndarray

    @classmethod
    def from_coeffs(cls, c) -> "MatrixPolynomial":
        c = np.asarray(c, dtype=complex)
        if c.ndim != 4 or c.shape[2] != c.shape[3] or 0 in c.shape:
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
    n = pair.dim
    k = f.block_dim
    ii, jj = np.nonzero(f.coeffs.any(axis=(2, 3)))
    terms = _pair_monomials(pair, tuple(zip(ii.tolist(), jj.tolist())))
    # Kronecker products summed at once: out[a n + x, b n + y] = C[a, b] T[x, y]
    return np.einsum("tab,txy->axby", f.coeffs[ii, jj], terms).reshape(k * n, k * n)


def lambda_variety(
    pair: OperatorPair, tol: Tolerances = DEFAULT_TOL
) -> DeterminantalVariety:
    """Determinantal variety attached to a member pair.

    F misses the unitary part of P, where the pair is Gamma-unitary: S_u,
    S compressed to ``fund.defect.unitary``, is normal, and at each joint
    eigenvalue (s0, p0), s0 = conj(s0) p0, so the scalar s0 / 2 represents
    a line through (s0, p0).  The representing matrix is A = F (+) S_u / 2,
    of numerical radius at most 1, solved only if the variety's ``nr`` is read.
    """
    fund = solve_fundamental(pair, tol)
    w = fund.defect.unitary
    r = fund.F.shape[0]
    a = np.zeros((r + w.shape[1],) * 2, dtype=complex)
    a[:r, :r] = fund.F
    a[r:, r:] = 0.5 * (w.conj().T @ pair.S @ w)
    return DeterminantalVariety(a)


@dataclass(frozen=True)
class VNReport:
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    m: int
    sample_count: int
    argmax: GammaPoint
    argmax_theta: float


# One entry: reports on the same pair come in runs, and a larger cache only
# holds more varieties.  The variety holds its own grid, so no m is keyed.
@functools.lru_cache(maxsize=1)
def _pair_variety(pair: OperatorPair, tol: Tolerances) -> DeterminantalVariety:
    return lambda_variety(pair, tol)


# One entry, for the same reason: each polynomial of a run on one pair reads
# the same products S^i P^j.
@functools.lru_cache(maxsize=1)
def _pair_monomials(pair: OperatorPair, support: tuple[tuple[int, int], ...]) -> np.ndarray:
    """S^i P^j for each (i, j) of ``support``, shape (len(support), n, n),
    read-only.

    One batched matmul forms every product by the same BLAS call as
    ``s_pows[i] @ p_pows[j]``, so each one is bit for bit that product.
    Only the products a polynomial reads are held, so a one-term s^100 p^100
    holds one matrix, not 101^2.
    """
    n = pair.dim
    ii = [i for i, _ in support]
    jj = [j for _, j in support]
    s_pows = [np.eye(n, dtype=complex)]
    for _ in range(max(ii, default=0)):
        s_pows.append(s_pows[-1] @ pair.S)
    p_pows = [np.eye(n, dtype=complex)]
    for _ in range(max(jj, default=0)):
        p_pows.append(p_pows[-1] @ pair.P)
    stack = np.array(s_pows)[ii] @ np.array(p_pows)[jj]
    stack.flags.writeable = False
    return stack


# One entry: the grid of the pair's variety at the m being reported on.  A
# new pair or a doubled m replaces it.
@functools.lru_cache(maxsize=1)
def _grid_powers(variety: DeterminantalVariety, m: int, deg: int) -> np.ndarray:
    """p^0 .. p^deg over the variety's grid of m angles, shape (deg + 1, m),
    each power the previous one times p; read-only."""
    p, _ = variety._boundary(m)
    pows = np.empty((deg + 1, m), dtype=complex)
    pows[0] = 1.0
    for j in range(deg):
        np.multiply(pows[j], p, out=pows[j + 1])
    pows.flags.writeable = False
    return pows


def _eval_grid(f: MatrixPolynomial, p_pows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f at every grid point: sum_j C[i, j] p^j for each i as one contraction
    against the powers of p, then Horner's rule in s.

    Entries come first: the result has shape (k, k, n, m).
    """
    q = np.tensordot(f.coeffs, p_pows, axes=(1, 0))  # (deg_s + 1, k, k, m)
    out = np.repeat(q[-1][:, :, None, :], s.shape[0], axis=2)
    for row in q[-2::-1]:
        out *= s
        out += row[:, :, None, :]
    return out


def _sigma_sq_2x2(a: np.ndarray) -> np.ndarray:
    """sigma_max^2 of 2x2 blocks, entries first: a[i, j, ...].

    sigma_max^2 = (||A||_F^2 + sqrt(||A||_F^4 - 4 |det A|^2)) / 2, with the
    discriminant written as (x - y)^2 + 4 |z|^2 over the entries x, z, y of
    A A*, a sum of nonnegative terms.  Unscaled: squares of entries near
    1e+-154 and beyond overflow or underflow, which ``_boundary_max``
    detects at the winner.
    """
    sq = a.real**2 + a.imag**2
    x = sq[0, 0] + sq[0, 1]
    y = sq[1, 0] + sq[1, 1]
    z = a[0, 0] * np.conj(a[1, 0]) + a[0, 1] * np.conj(a[1, 1])
    return 0.5 * (x + y + np.hypot(x - y, 2.0 * np.abs(z)))


def _boundary_max(f: MatrixPolynomial, variety: DeterminantalVariety, m: int):
    """The largest ||f(s, p)|| over the variety's grid of m angles, and its point.

    2x2 blocks are ranked by sigma_max^2, and the square root is taken at
    the winner alone.  A winner whose square is not finite or lies outside
    [1e-290, 1e290] may have lost its rank to overflow or underflow, so
    then every block goes to the batched SVD, as other block sizes do.
    """
    p, s = variety._boundary(m)
    vals = _eval_grid(f, _grid_powers(variety, m, f.degrees[1]), s)
    if f.block_dim == 2:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            sq = _sigma_sq_2x2(vals)
        t, j = _grid_argmax(sq)
        if 1e-290 <= sq[j, t] <= 1e290:
            return math.sqrt(sq[j, t]), GammaPoint(complex(s[j, t]), complex(p[t]))
    norms = np.linalg.svd(np.moveaxis(vals, (0, 1), (2, 3)), compute_uv=False)[..., 0]
    t, j = _grid_argmax(norms)
    return float(norms[j, t]), GammaPoint(complex(s[j, t]), complex(p[t]))


def _grid_argmax(norms: np.ndarray) -> tuple[int, int]:
    """(angle, fiber) of the largest entry of ``norms`` (n, m); angle-major
    order, so ties resolve to the first angle."""
    return divmod(int(np.argmax(norms.T)), norms.shape[0])


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

    F and the variety depend only on the pair and ``tol``; the most recent
    pair's variety is kept and reused while consecutive calls pass the same
    pair object and ``tol``, and it holds the last boundary grid it solved,
    which the same ``m`` reads and a doubled ``m`` extends.  The products
    S^i P^j at the polynomial's nonzero terms (i, j) and the powers of p
    over the grid are kept the same way, so each further polynomial of the
    same support on that pair pays only for its own coefficients.
    """
    cur_m = sample_count(m)
    variety = _pair_variety(pair, tol)
    lhs = operator_norm(evaluate_pair(f, pair))
    while True:
        rhs, arg = _boundary_max(f, variety, cur_m)
        holds = lhs <= rhs * (1.0 + _HOLDS_SLACK)
        if holds or cur_m >= _REFINE_CAP:
            break
        cur_m *= 2
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0 else math.inf
    theta = math.atan2(arg.p.imag, arg.p.real) % (2.0 * math.pi)
    return VNReport(
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        holds=holds,
        m=cur_m,
        sample_count=variety.dim * cur_m,
        argmax=arg,
        argmax_theta=theta,
    )
