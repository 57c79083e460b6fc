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
from numpy.polynomial.polynomial import polyder, polyval

from .fundamental import solve_fundamental
from .gamma_pairs import OperatorPair
from .geometry import GammaPoint
from .numerics import (
    _COARSE_POINTS,
    _MAX_SAMPLES,
    DEFAULT_TOL,
    Tolerances,
    _bisect_circle,
    operator_norm,
    phase_grid,
    sample_count,
)
from .varieties import DeterminantalVariety, _solve_fibers

__all__ = [
    "MatrixPolynomial",
    "VNReport",
    "evaluate_pair",
    "lambda_variety",
    "vn_report",
]

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


# The last pair reported on, as (pair, tol, variety, reports), or nothing.
# One entry: reports on the same pair come in runs, and a larger memo only
# holds more varieties.  The variety holds its own grid, so no m is keyed.
_REPORTED: list[tuple[OperatorPair, Tolerances, DeterminantalVariety, int]] = []


def _report_variety(pair: OperatorPair, tol: Tolerances) -> tuple[DeterminantalVariety, bool]:
    """The pair's variety for one more report on it, solved unless the pair
    and ``tol`` are the held ones, and whether that report is the first on
    a new pair right after a pair reported exactly once."""
    held = _REPORTED[0] if _REPORTED else None
    if held is not None and held[0] is pair and held[1] == tol:
        variety, reports, pruned = held[2], held[3], False
    else:
        variety, reports = lambda_variety(pair, tol), 0
        pruned = held is not None and held[3] == 1
    _REPORTED[:] = [(pair, tol, variety, reports + 1)]
    return variety, pruned


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


# One entry: the powers over the grid of the m being reported on.  A new m
# or degree in p replaces it.
@functools.lru_cache(maxsize=1)
def _grid_powers(m: int, deg: int) -> np.ndarray:
    """p^0 .. p^deg over p = exp(1j * phase_grid(m)), the p of every
    variety's grid of m angles, shape (deg + 1, m), each power the previous
    one times p; read-only.  No fiber is solved."""
    p = np.exp(1j * phase_grid(m))
    pows = np.empty((deg + 1, m), dtype=complex)
    pows[0] = 1.0
    for j in range(deg):
        np.multiply(pows[j], p, out=pows[j + 1])
    pows.flags.writeable = False
    return pows


def _over_p(f: MatrixPolynomial, m: int) -> np.ndarray:
    """sum_j C[i, j] p^j for each i over the grid of m angles, one matmul
    against the held powers of p: shape (deg_s + 1, k, k, m).  It is the
    zgemm that ``np.tensordot(f.coeffs, powers, axes=(1, 0))`` calls, bit
    for bit, without tensordot's own reshaping."""
    c = f.coeffs
    ds1, j, k, _ = c.shape
    return (c.transpose(0, 2, 3, 1).reshape(-1, j) @ _grid_powers(m, j - 1)).reshape(ds1, k, k, m)


def _horner(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_i q[i] s^i, q of shape (deg_s + 1, k, k, m) and s of shape (n, m),
    as an array of shape (k, k, n, m).  Overflow is left to ``_winner``."""
    out = np.repeat(q[-1][:, :, None, :], s.shape[0], axis=2)
    with np.errstate(over="ignore", invalid="ignore"):
        for row in q[-2::-1]:
            out *= s
            out += row[:, :, None, :]
    return out


def _sigma_sq_2x2(a: np.ndarray) -> np.ndarray:
    """sigma_max^2 of 2x2 blocks, entries first: a[i, j, ...].

    sigma_max^2 = (x + y + sqrt(d)) / 2 over the entries x, z, y of A A*,
    with the discriminant d = (x - y)^2 + 4 (Re(z)^2 + Im(z)^2) =
    ||A||_F^4 - 4 |det A|^2, a sum of nonnegative terms.  Only real
    squares, sums and one square root run per block, each correctly
    rounded; no hypot.

    Unscaled, so ``_winner`` trusts the largest value, top, only in
    [1e-130, 1e150]:
    - every term of d is at most (x + y)^2 <= 4 top^2, as |z|^2 <= x y, and
      every entry's square at most 2 top: below 1e150 nothing overflows.
      A block that overflows ranks inf or NaN, so it wins and falls out of
      range;
    - a square that underflows is off by at most 2^-1075 (gradual
      underflow).  The three squares of d, one of them taken four times,
      move d by at most 9 * 2^-1075 and sqrt(d) by at most 5e-162, so
      sigma_max^2 by 2.5e-162 and sigma_max by at most 1.6e-81, however
      small it is.  From top = 1e-130 on, that is under 1e-31 of the
      winner's square and under a thirtieth of the 16 k eps |f|(R) that
      ``_pruned_max`` allows the norm's rounding.  At 1e-150 it could
      reach 2.5e-12 of the winner's square and far exceed that share.

    In range the rounding is that of normal numbers.  The computed x and
    y are within 1.5 eps of theirs, and z within eps (x + y) of its own,
    as |a00| |a10| + |a01| |a11| <= sqrt(x y).  sqrt(d) is the 2-norm of
    (x - y, 2 Re z, 2 Im z), so those errors move it by at most
    2.5 eps (x + y), and its own squares, sums and root by 1.5 eps more.
    With two sums and x + y <= 2 sigma_max^2, sigma_max^2 is within 8 eps
    and sigma_max within 5 eps, relative.
    """
    sq = np.square(a.real)
    sq += np.square(a.imag)
    x = sq[0, 0] + sq[0, 1]
    y = sq[1, 0] + sq[1, 1]
    z = a[0, 0] * a[1, 0].conj()
    z += a[0, 1] * a[1, 1].conj()
    d = x - y
    d *= d
    zz = np.square(z.real)
    zz += np.square(z.imag)
    zz *= 4.0
    d += zz
    np.sqrt(d, out=d)
    x += y
    x += d
    x *= 0.5
    return x


def _rank(vals: np.ndarray, squared: bool) -> np.ndarray:
    """Rank of the blocks of ``vals`` (k, k, n, m), shape (n, m):
    sigma_max^2 of 2x2 blocks if ``squared``, else the norm by the batched
    SVD.  Overflow and invalid values are left to ``_winner``."""
    if squared:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return _sigma_sq_2x2(vals)
    return np.linalg.svd(np.moveaxis(vals, (0, 1), (2, 3)), compute_uv=False)[..., 0]


def _winner(rank: np.ndarray, s: np.ndarray, p: np.ndarray, squared: bool):
    """The norm at the largest entry of ``rank`` (n, m), and its point
    (s[j, t], p[t]); angle-major order, so ties resolve to the first angle.

    None if ``squared`` and the winner lies outside [1e-130, 1e150], the
    range in which ``_sigma_sq_2x2`` neither overflows nor loses more than
    rounding to underflow.  ``ValueError`` if the winner is not finite;
    ``np.argmax`` brings a NaN anywhere to the front.
    """
    t, j = divmod(int(np.argmax(rank.T)), rank.shape[0])
    top = float(rank[j, t])
    if squared:
        if not 1e-130 <= top <= 1e150:
            return None
        top = math.sqrt(top)
    if not math.isfinite(top):
        raise ValueError("f(s, p) overflows on the variety's boundary: no maximum holds")
    return top, GammaPoint(complex(s[j, t]), complex(p[t]))


def _boundary_max(
    f: MatrixPolynomial, variety: DeterminantalVariety, m: int, pruned: bool = False
):
    """The largest ||f(s, p)|| over the variety's grid of m angles, and its
    point; ``ValueError`` when f is not finite there.

    f is ``_over_p``, then Horner's rule in s.  2x2 blocks are ranked by
    sigma_max^2 (``_sigma_sq_2x2``), and the square root is taken at the
    winner alone; a winner outside [1e-130, 1e150] or not finite
    (``_winner``) sends every block to the batched SVD, as other block
    sizes do.

    ``pruned`` solves only the angles that may hold the maximum
    (``_pruned_max``), and holds none, when m > ``_COARSE_POINTS`` and the
    variety's dimension exceeds 1, where that costs less.  Otherwise, and
    when the pruned maximum gives up, the whole grid is solved and held.
    """
    if pruned and m > _COARSE_POINTS and variety.dim > 1:
        found = _pruned_max(f, variety, m)
        if found is not None:
            return found
    p, s = variety._boundary(m)
    vals, squared = _horner(_over_p(f, m), s), f.block_dim == 2
    found = _winner(_rank(vals, squared), s, p, squared)
    return found or _winner(_rank(vals, False), s, p, False)


def _lipschitz(f: MatrixPolynomial, variety: DeterminantalVariety) -> tuple[float, float]:
    """L, a Lipschitz constant of g over the whole circle, and the rounding
    allowance 2 e, both of ``_pruned_max``."""
    eps, (ds, dp), k, n = np.finfo(float).eps, f.degrees, f.block_dim, variety.dim
    norms = np.linalg.svd(f.coeffs, compute_uv=False)[..., 0]  # ||C_ij||, (ds + 1, dp + 1)
    two_a, by_s = 2.0 * operator_norm(variety.A), norms.sum(axis=1)
    big_r = two_a * (1.0 + 64 * n * eps)
    lip = float(two_a * polyval(big_r, polyder(by_s)) + polyval(big_r, norms @ np.arange(dp + 1.0)))
    size = math.sqrt(k) * float(polyval(big_r, by_s)) + lip
    return lip, 2 * (8 * (ds + dp + 1) + 16 * k + 48 * n + 32) * eps * size


@np.errstate(over="ignore", invalid="ignore")  # an infinite bound marks its gap
def _pruned_max(f: MatrixPolynomial, variety: DeterminantalVariety, m: int):
    """``_boundary_max`` from the angles that may hold the grid maximum,
    bit for bit, and nothing held; None, to fall back to the whole grid,
    when a solved value or the allowance is not finite or ``_winner`` gives
    None.

    ``_bisect_circle`` bisects the angles for the grid maximum, with
    Shubert's tent bound.  The largest norm at an angle,
    g(theta) = max_j ||f(s_j(theta), e^{i theta})||, is L-Lipschitz with
    L = 2 ||A|| L_s(R) + L_p(R) (``_lipschitz``), L_s(r) = sum_ij i ||C_ij|| r^(i-1),
    L_p(r) = sum_ij j ||C_ij|| r^i and R = 2 ||A|| (1 + 64 n eps): every
    exact fiber has |s| <= ||A + p A*|| <= 2 ||A|| <= R; the sorted
    eigenvalues of H(phi) = e^{-i phi} A + e^{i phi} A* move at most
    2 ||A|| |dphi|, theta = 2 phi and s = e^{i theta / 2} lambda, so each
    fiber moves at most 2 ||A|| |dtheta|; and |p^j - p0^j| <= j |dtheta|.
    Every angle of a gap of width d radians thus lies at or below
    (v_lo + v_hi + L d) / 2, v the values of g at the ends.  A gap is
    marked unless its computed bound, raised by the factor
    1 + (4 D + 16 k + 16) eps for its own rounding and that of ||A|| and
    ||C_ij||, falls short of the largest value M solved so far less the
    allowance.

    The allowance is 2 e with e = (8 D + 16 k + 48 n + 32) eps N,
    D = deg_s + deg_p + 1, k the block size, n the variety's dimension and
    N = |f|(R) + L, with |f|(r) = sqrt(k) sum_ij ||C_ij|| r^i, at least the
    absolute-value polynomial sum_ij ||C_ij||_F r^i on |p| = 1.
    R bounds every computed fiber.  At one angle, e bounds the distance
    from the computed largest norm to g at the exact grid angle:
    - the evaluation rounding, entrywise at most 8 D eps |f|(|s|), so in
      norm at most 8 D eps |f|(R);
    - the rounding of the norm, at most 16 k eps |f|(R): the closed form
      of 2x2 blocks is within 5 eps of the norm, relative, and underflow
      moves it by less than a thirtieth of that bound in the range
      ``_winner`` trusts (``_sigma_sq_2x2``); the batched SVD's backward
      error is of the same order;
    - the eigensolver's backward error, with the pencil's rounding and that
      of s = e^{i theta / 2} lambda at most (40 n + 16) eps ||A|| on a fiber,
      times L_s(R);
    - the rounding of theta and p, at most 16 eps, times L.
    The tent over computed ends then lies at most e / 2 + e / 2 below the
    tent over exact ones, and an unsolved angle's computed value at most e
    above g there: every unsolved angle's computed value lies strictly
    below M, so none holds the maximum or ties it ahead of the winner under
    the first-angle rule.

    Each angle is solved and evaluated as the whole grid does: the fibers
    by ``_solve_fibers``, one angle independent of the others, and f by
    Horner's rule on the columns of the whole grid's ``_over_p``.  numpy
    rounds a complex product whose operands have only unit dimensions
    differently, so a round that solves one angle evaluates it twice.
    """
    lip, allowance = _lipschitz(f, variety)
    if not math.isfinite(allowance):
        return None
    (ds, dp), k, n = f.degrees, f.block_dim, variety.dim
    grow = 1.0 + (4 * (ds + dp + 1) + 16 * k + 16) * np.finfo(float).eps
    squared, q, thetas = k == 2, _over_p(f, m), phase_grid(m)
    fibers, rank = np.empty((n, m), dtype=complex), np.empty((n, m))
    top = np.empty(m)  # g, the largest norm at an angle

    def solve(idx: np.ndarray) -> None:
        fibers[:, idx] = _solve_fibers(variety.A, thetas[idx]).T
        cols = np.repeat(idx, 2) if idx.size == 1 else idx
        rank[:, idx] = _rank(_horner(q[..., cols], fibers[:, cols]), squared)[:, : idx.size]
        top[idx] = rank[:, idx].max(axis=0)
        if squared:
            top[idx] = np.sqrt(top[idx])

    def refine(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        best = top[lo].max()
        if not math.isfinite(best):
            return np.zeros(lo.size, dtype=bool)
        d = 2.0 * math.pi / m * (hi - lo)
        return ~(grow * 0.5 * (top[lo] + top[hi % m] + lip * d) < best - allowance)

    solved = _bisect_circle(m, solve, refine)
    if not np.isfinite(top[solved]).all():
        return None
    return _winner(rank[:, solved], fibers[:, solved], np.exp(1j * thetas[solved]), squared)


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
    angular grid is doubled, never past 2^16, before a violation is reported.
    ``ValueError`` when f(S, P) overflows, or f on the boundary grid.

    F and the variety depend only on the pair and ``tol``; a one-entry
    record holds the most recent pair's variety and the number of reports
    on it, reused while consecutive calls pass the same pair object and
    ``tol``.
    The maximum over the grid takes one of two paths, with the same
    ``rhs``, ``argmax``, ``argmax_theta``, ``ratio``, ``holds``, ``m`` and
    ``sample_count`` bit for bit:
    - the first report on a new pair whose variety has dimension 2 or
      more, right after a pair reported exactly once, solves only the
      angles that may hold the maximum (64 evenly spread, then the gaps a
      Lipschitz bound cannot rule out), and the variety holds none of them;
    - every other report (a repeat on the held pair, a new pair after one
      reported twice or more, the first report in a process or after the
      record is emptied), and any m of at most 64 or a variety of dimension
      0 or 1, solves the whole grid, which the variety holds: the same
      ``m`` reads it and a doubled ``m`` extends it.
    A pair reported once thus pays for about a fifth of its angles, and a
    run of reports on one pair for each angle once.  The products S^i P^j
    at the polynomial's nonzero terms (i, j) are kept for the last pair and
    support, and the powers of p over the grid for the last m and degree,
    so each further polynomial of the same support on that pair pays only
    for its own coefficients.
    """
    cur_m = sample_count(m)
    variety, pruned = _report_variety(pair, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        value = evaluate_pair(f, pair)
    if not np.isfinite(value).all():
        raise ValueError("f(S, P) overflows: ||f(S, P)|| is not finite")
    lhs = operator_norm(value)
    while True:
        rhs, arg = _boundary_max(f, variety, cur_m, pruned)
        holds = lhs <= rhs * (1.0 + _HOLDS_SLACK)
        if holds or 2 * cur_m > _MAX_SAMPLES:
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
