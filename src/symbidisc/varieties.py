"""Determinantal varieties det(A + p A* - s I) = 0 and their classification.

A square matrix A of numerical radius at most 1 represents a
one-dimensional algebraic set in the symmetrized-bidisc coordinates.
Membership and fibers are computed through eigenvalues of A + p A*
(scale-stable, unlike the raw determinant); on the unimodular circle
|p| = 1 the fiber reduces to a Hermitian eigenproblem, since

    A + e^{i theta} A* = e^{i theta/2} (e^{-i theta/2} A + e^{i theta/2} A*).

The module also symmetrizes plane algebraic curves: the product
p(z, w) p(w, z) is symmetric and rewrites uniquely in the elementary
symmetric coordinates (z + w, z w), through the power sums z^d + w^d.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .geometry import ON_BGAMMA, REGION_TAGS, GammaPoint, RegionTag, classify_points
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    circle_pencils,
    numerical_radius,
    operator_norm,
    phase_grid,
    require_square,
    sample_count,
)

__all__ = [
    "DeterminantalVariety",
    "BivarPolynomial",
    "DistinguishedStatus",
    "DistinguishedVerdict",
    "BoundaryRow",
    "variety_membership",
    "fiber_at_p",
    "boundary_sample",
    "boundary_rows",
    "write_boundary_csv",
    "classify_distinguished",
    "symmetrize_bidisc_variety",
]

# Radius of the exit fiber p = r e^{i theta} tracked against the limit
# fiber at |p| = 1.
_EXIT_RADIUS = 1.0 - 1e-14


@dataclass(frozen=True)
class DeterminantalVariety:
    """Matrix representation of {(s, p) : det(A + p A* - s I) = 0}.

    ``nr``, the numerical radius of A, is solved on first read and kept.
    The points over the last grid of unimodular p that was solved are kept
    the same way, as ``p`` and its fibers angles-last, so that a nested
    grid reads or extends them (see ``_boundary``).  Both belong to this
    object only and describe A as it was when they were solved: mutating
    A in place leaves them stale.
    """

    A: np.ndarray
    # (p, s) of the last grid solved, as _boundary returns it, or None
    _grid: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_matrix(cls, a) -> "DeterminantalVariety":
        a = require_square(as_matrix(a), "A")
        return cls(a.copy())

    @cached_property
    def nr(self) -> float:
        return numerical_radius(self.A)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def _boundary(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Variety points over p = exp(1j * phase_grid(m)): ``(p, s)`` with
        ``s[:, t]`` the fiber over ``p[t]``.

        ``s`` has shape (n, m), angles last, so that elementwise work on the
        grid runs along contiguous rows.  An empty (0 x 0) representation
        gives one point s = 0 per angle.

        ``phase_grid(h * 2**j)[::2**j]`` equals ``phase_grid(h)`` bit for
        bit, and each angle's pencil and eigensolve do not depend on the
        other angles solved with it.  So a held grid at m is returned as it
        is, a held grid at m 2^j is sliced, and a held grid at m / 2^j has
        only its missing angles solved.  Other ratios (a factor of 3
        does not nest by bytes) are solved whole.  The held arrays are
        read-only.
        """
        n, m = self.dim, sample_count(m)
        if n == 0:
            return np.exp(1j * phase_grid(m)), np.zeros((1, m), dtype=complex)
        grid = self._grid  # read once: a concurrent solve can only replace it whole
        if grid is not None:
            p, s = grid
            h = p.size
            if h == m:
                return grid
            if h % m == 0 and _is_power_of_two(h // m):
                step = h // m
                return np.ascontiguousarray(p[::step]), np.ascontiguousarray(s[:, ::step])
            if m % h == 0 and _is_power_of_two(m // h):
                step = m // h
                thetas = phase_grid(m)
                fibers = np.empty((n, m), dtype=complex)
                blocks = fibers.reshape(n, h, step)
                blocks[:, :, 0] = s
                missing = thetas.reshape(h, step)[:, 1:].ravel()
                blocks[:, :, 1:] = _solve_fibers(self.A, missing).T.reshape(n, h, step - 1)
                return self._hold(thetas, fibers)
        thetas = phase_grid(m)
        return self._hold(thetas, np.ascontiguousarray(_solve_fibers(self.A, thetas).T))

    def _hold(self, thetas: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grid = (np.exp(1j * thetas), s)
        for x in grid:
            x.flags.writeable = False
        object.__setattr__(self, "_grid", grid)
        return grid


class DistinguishedStatus(Enum):
    DISTINGUISHED_CERTIFIED = "DISTINGUISHED_CERTIFIED"
    NOT_DISTINGUISHED_CERTIFIED = "NOT_DISTINGUISHED_CERTIFIED"
    DISTINGUISHED_EMPIRICAL = "DISTINGUISHED_EMPIRICAL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class DistinguishedVerdict:
    status: DistinguishedStatus
    criterion: str
    witness: Optional[GammaPoint] = None
    s_margin: Optional[float] = None
    track_gap: Optional[float] = None


class BoundaryRow(NamedTuple):
    theta: float
    s: complex
    p: complex
    tag: RegionTag


def fiber_at_p(variety: DeterminantalVariety, p: complex) -> np.ndarray:
    """All s with (s, p) on the variety: eigenvalues of A + p A*.

    For |p| = 1 the Hermitian reduction above is used, which keeps the
    fiber exactly on the rotated real line.  Non-finite p raises
    ``ValueError``.
    """
    a = variety.A
    p = complex(p)
    if not cmath.isfinite(p):
        raise ValueError("p must be finite")
    if abs(abs(p) - 1.0) <= 1e-12:
        return _solve_fibers(a, np.array([math.atan2(p.imag, p.real)]))[0]
    return np.linalg.eigvals(a + p * a.conj().T)


def variety_membership(
    variety: DeterminantalVariety, pt: GammaPoint, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Eigenvalue-distance membership test, scale-stable in the dimension.

    A non-finite point raises ``ValueError``.
    """
    if not cmath.isfinite(complex(pt.s)):
        raise ValueError("s must be finite")
    fiber = fiber_at_p(variety, pt.p)
    if fiber.size == 0:
        return False
    dist = float(np.min(np.abs(fiber - complex(pt.s))))
    return dist <= tol.residual_tol * (1.0 + operator_norm(variety.A))


def _solve_fibers(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Fibers over p = e^{i theta}, shape (len(thetas), n), by the Hermitian reduction."""
    half = np.exp(0.5j * thetas)
    return half[:, None] * np.linalg.eigvalsh(circle_pencils(a, np.conj(half)))


def _is_power_of_two(k: int) -> bool:
    return k & (k - 1) == 0


def boundary_sample(variety: DeterminantalVariety, m: int) -> list[GammaPoint]:
    """Variety points over m uniformly spaced unimodular values of p.

    For each theta the fiber is the Hermitian-reduction spectrum, so every
    emitted point satisfies the determinantal equation with |p| = 1
    exactly.  An empty (0 x 0) representation emits the degenerate
    convention points (0, e^{i theta}) used by the von Neumann report.
    """
    p, s = variety._boundary(m)
    return [
        GammaPoint(sj, pt)
        for row, pt in zip(s.T.tolist(), p.tolist())
        for sj in row
    ]


def boundary_rows(
    variety: DeterminantalVariety, m: int, tol: Tolerances = DEFAULT_TOL
) -> list[BoundaryRow]:
    """Boundary samples with their region tags, in angle-major order."""
    p, s = variety._boundary(m)
    n = s.shape[0]
    codes = classify_points(s.T, p[:, None], tol).ravel().tolist()
    if variety.dim == 0:
        theta_col = [math.atan2(q.imag, q.real) % (2.0 * math.pi) for q in p.tolist()]
    else:
        theta_col = np.repeat(phase_grid(m), n).tolist()
    columns = zip(theta_col, s.T.ravel().tolist(), np.repeat(p, n).tolist(),
                  map(REGION_TAGS.__getitem__, codes))
    # tuple.__new__ builds each row without the Python frame of BoundaryRow.__new__
    return list(map(tuple.__new__, repeat(BoundaryRow), columns))


def write_boundary_csv(
    variety: DeterminantalVariety, m: int, path, tol: Tolerances = DEFAULT_TOL
) -> None:
    """CSV export with columns theta,re_s,im_s,re_p,im_p,region_tag."""
    rows = boundary_rows(variety, m, tol)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "re_s", "im_s", "re_p", "im_p", "region_tag"])
        for r in rows:
            writer.writerow(
                [repr(r.theta), repr(r.s.real), repr(r.s.imag),
                 repr(r.p.real), repr(r.p.imag), r.tag.value]
            )


def classify_distinguished(
    variety: DeterminantalVariety, tol: Tolerances = DEFAULT_TOL, m: int = 256
) -> DistinguishedVerdict:
    """Classify whether the variety exits only through the distinguished boundary.

    Certified outcomes come from the two decidable criteria: numerical
    radius strictly below 1 (distinguished), or a unimodular eigenvalue
    of A (not distinguished, witnessed by the exit point (eigenvalue, 0)).
    Otherwise the limit fiber over |p| = 1 is sampled at m angles and its
    region tags alone give the verdict, which is empirical only:
    DISTINGUISHED_EMPIRICAL when every sampled closure point lies on the
    distinguished boundary, INCONCLUSIVE (never a certificate) otherwise,
    witnessed by the first point off it in angle-major order.
    ``track_gap`` reports how far the limit fiber lies from the fiber at
    the single radius p = (1 - 1e-14) e^{i theta}: the worst over angles
    of the distance from a limit eigenvalue to that fiber.
    """
    m = sample_count(m)
    a = variety.A
    n = variety.dim
    if n == 0:
        return DistinguishedVerdict(
            DistinguishedStatus.DISTINGUISHED_CERTIFIED, "empty representation"
        )
    if variety.nr < 1.0 - tol.psd_tol:
        _, s = variety._boundary(m)
        s_margin = 2.0 - float(np.max(np.abs(s)))
        return DistinguishedVerdict(
            DistinguishedStatus.DISTINGUISHED_CERTIFIED,
            "numerical radius below one",
            s_margin=s_margin,
        )
    eigs = np.linalg.eigvals(a)
    uni = np.abs(np.abs(eigs) - 1.0) <= tol.psd_tol
    if np.any(uni):
        alpha = complex(eigs[int(np.argmax(uni))])
        return DistinguishedVerdict(
            DistinguishedStatus.NOT_DISTINGUISHED_CERTIFIED,
            "unimodular eigenvalue",
            witness=GammaPoint(alpha, 0j),
        )

    phases, s = variety._boundary(m)
    limit = s.T
    fiber = np.linalg.eigvals(a + (_EXIT_RADIUS * phases)[:, None, None] * a.conj().T)
    track_gap = float(np.abs(limit[:, :, None] - fiber[:, None, :]).min(axis=2).max())
    off = ~ON_BGAMMA[classify_points(limit, phases[:, None], tol)]
    if off.any():
        k, j = np.unravel_index(int(np.argmax(off)), off.shape)
        return DistinguishedVerdict(
            DistinguishedStatus.INCONCLUSIVE,
            "sampled closure point off the distinguished boundary",
            witness=GammaPoint(complex(limit[k, j]), complex(phases[k])),
            track_gap=track_gap,
        )
    # hypot, not np.abs: it rounds as abs() on a Python complex does
    s_max = float(np.max(np.hypot(limit.real, limit.imag)))
    return DistinguishedVerdict(
        DistinguishedStatus.DISTINGUISHED_EMPIRICAL,
        f"all sampled closure points at {m} angles on the distinguished boundary",
        s_margin=2.0 - s_max,
        track_gap=track_gap,
    )


# ---------------------------------------------------------------------------
# Bivariate polynomials and symmetrization
# ---------------------------------------------------------------------------


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    rows = np.any(c != 0, axis=1)
    cols = np.any(c != 0, axis=0)
    if not rows.any():
        return np.zeros((1, 1), dtype=complex)
    return c[: rows.nonzero()[0][-1] + 1, : cols.nonzero()[0][-1] + 1].copy()


@dataclass(frozen=True)
class BivarPolynomial:
    """Bivariate polynomial sum of c[i, j] x^i y^j with trimmed coefficients."""

    coeffs: np.ndarray

    @classmethod
    def from_coeffs(cls, c) -> "BivarPolynomial":
        c = _trim(c)
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        return cls(c)

    def __call__(self, x, y):
        return np.polynomial.polynomial.polyval2d(x, y, self.coeffs)


_SYM_DEGREE_CAP = 16
_SYM_CHECK = 1e-12

# _POWER_SUMS[d, i, k] is the coefficient of s^i p^k in P_d = z^d + w^d.
# Up to the degree cap these are integers of modulus at most the Lucas
# number L_16 = 2207, so they are exact in floats.
_POWER_SUMS = np.zeros((_SYM_DEGREE_CAP + 1,) * 3)
_POWER_SUMS[0, 0, 0] = 2.0
_POWER_SUMS[1, 1, 0] = 1.0
for _d in range(2, _SYM_DEGREE_CAP + 1):
    _POWER_SUMS[_d, 1:] = _POWER_SUMS[_d - 1, :-1]
    _POWER_SUMS[_d, :, 1:] -= _POWER_SUMS[_d - 2, :, :-1]


def symmetrize_bidisc_variety(p: BivarPolynomial) -> BivarPolynomial:
    """Rewrite p(z, w) p(w, z) in the coordinates (s, p) = (z + w, z w).

    With c the symmetric coefficient array of the product,

        q(s, p) = sum_{a > b} c[a, b] p^b P_{a-b}(s, p) + sum_a c[a, a] p^a,

    where P_d = z^d + w^d are the power sums, P_0 = 2, P_1 = s and
    P_d = s P_{d-1} - p P_{d-2}.  Their coefficients are exact integers
    (``_POWER_SUMS``), so each coefficient of q is one sum of products of
    c with exact integers, and none is cut off.  q satisfies
    q(z + w, z w) = p(z, w) p(w, z) identically.  The identity is verified
    at 200 pseudorandom points: |q(z + w, z w) - p(z, w) p(w, z)| must stay
    below 1e-12 times |q|(|z + w|, |z w|) + |pt|(|z|, |w|), where |q| and
    |pt| take the absolute values of the coefficients of q and of the
    product pt.  A failure raises ``ValueError`` (an internal consistency
    error).
    """
    a = p.coeffs
    if not a.any():
        raise ValueError("input polynomial must be nonzero")
    rows, cols = a.shape
    size = rows + cols - 1
    if size - 1 > _SYM_DEGREE_CAP:
        raise ValueError(
            f"symmetrized degree {size - 1} exceeds the cap {_SYM_DEGREE_CAP}"
        )
    # p(w, z) has coefficients a.T, so the product is square
    pt = np.zeros((size, size), dtype=complex)
    for (i, j), x in np.ndenumerate(a):
        pt[i : i + cols, j : j + rows] += x * a.T
    # exact symmetry c[i, j] == c[j, i] up to summation order; enforce it
    c = 0.5 * (pt + pt.T)
    # z^b w^b (z^d + w^d) = p^b P_d, and a diagonal term z^a w^a = p^a is half
    # of p^a P_0; (a + b) / 2 < size keeps every power of p inside the slice
    q = np.zeros((size, size), dtype=complex)
    for a_pow in range(size):
        for b_pow in range(a_pow + 1):
            weight = c[a_pow, b_pow] if a_pow > b_pow else 0.5 * c[a_pow, a_pow]
            q[:, b_pow:] += weight * _POWER_SUMS[a_pow - b_pow, :size, : size - b_pow]

    result = BivarPolynomial(_trim(q))
    rng = np.random.default_rng(20240901)
    z = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
    w = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
    lhs = result(z + w, z * w)
    rhs = np.polynomial.polynomial.polyval2d(z, w, pt)
    # both evaluations round relative to their absolute-value sums
    az, aw = np.abs(z), np.abs(w)
    scale = np.polynomial.polynomial.polyval2d(
        np.abs(z + w), az * aw, np.abs(result.coeffs)
    ) + np.polynomial.polynomial.polyval2d(az, aw, np.abs(pt))
    err = np.max(np.abs(lhs - rhs) / scale)
    if not err <= _SYM_CHECK:
        raise ValueError(
            f"symmetric rewrite verification failed: error {err:.3e} of the "
            "absolute-value scale"
        )
    return result
