"""Determinantal varieties det(A + p A* - s I) = 0 and their classification.

A square matrix A of numerical radius at most 1 represents a
one-dimensional algebraic set in the symmetrized-bidisc coordinates.
Membership and fibers are computed through eigenvalues of A + p A*
(scale-stable, unlike the raw determinant); on the unimodular circle
|p| = 1 the fiber reduces to a Hermitian eigenproblem, since

    A + e^{i theta} A* = e^{i theta/2} (e^{-i theta/2} A + e^{i theta/2} A*).

The module also symmetrizes plane algebraic curves: the product
p(z, w) p(w, z) is symmetric and rewrites uniquely in the elementary
symmetric coordinates (z + w, z w).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import ON_BGAMMA, REGION_TAGS, GammaPoint, RegionTag, classify_points
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    numerical_radius,
    operator_norm,
    require_square,
    rotated_eigvalsh,
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

# Root extraction of near-coincident unimodular fiber roots squares the
# data error, so region tags of boundary points use this widened band.
_BOUNDARY_BAND = 1e-7

# Radius of the exit fiber p = r e^{i theta} tracked against the limit
# fiber at |p| = 1.
_EXIT_RADIUS = 1.0 - 1e-14


@dataclass(frozen=True)
class DeterminantalVariety:
    """Matrix representation of {(s, p) : det(A + p A* - s I) = 0}."""

    A: np.ndarray
    nr: float

    @classmethod
    def from_matrix(cls, a, tol: Tolerances = DEFAULT_TOL) -> "DeterminantalVariety":
        a = require_square(as_matrix(a), "A")
        return cls(a.copy(), numerical_radius(a, tol))

    @property
    def dim(self) -> int:
        return self.A.shape[0]


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


@dataclass(frozen=True)
class BoundaryRow:
    theta: float
    s: complex
    p: complex
    tag: RegionTag


def fiber_at_p(variety: DeterminantalVariety, p: complex) -> np.ndarray:
    """All s with (s, p) on the variety: eigenvalues of A + p A*.

    For |p| = 1 the Hermitian reduction above is used, which keeps the
    fiber exactly on the rotated real line.
    """
    a = variety.A
    if a.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    p = complex(p)
    if abs(abs(p) - 1.0) <= 1e-12:
        half = np.exp(0.5j * math.atan2(p.imag, p.real))
        return half * rotated_eigvalsh(a, np.conj([half]))[0]
    return np.linalg.eigvals(a + p * a.conj().T)


def variety_membership(
    variety: DeterminantalVariety, pt: GammaPoint, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Eigenvalue-distance membership test, scale-stable in the dimension."""
    fiber = fiber_at_p(variety, pt.p)
    if fiber.size == 0:
        return False
    dist = float(np.min(np.abs(fiber - complex(pt.s))))
    return dist <= tol.residual_tol * (1.0 + operator_norm(variety.A))


def _boundary_grid(variety: DeterminantalVariety, m: int):
    """Fibers over m unimodular p: thetas (m,), s (m, n) and p = e^{i theta} (m,).

    An empty (0 x 0) representation gives one point s = 0 per angle.
    """
    if m < 1:
        raise ValueError("sample count must be positive")
    thetas = 2.0 * math.pi * np.arange(m) / m
    if variety.dim == 0:
        svals = np.zeros((m, 1), dtype=complex)
    else:
        half = np.exp(0.5j * thetas)
        svals = half[:, None] * rotated_eigvalsh(variety.A, np.conj(half))
    return thetas, svals, np.exp(1j * thetas)


def boundary_sample(variety: DeterminantalVariety, m: int) -> list[GammaPoint]:
    """Variety points over m uniformly spaced unimodular values of p.

    For each theta the fiber is the Hermitian-reduction spectrum, so every
    emitted point satisfies the determinantal equation with |p| = 1
    exactly.  An empty (0 x 0) representation emits the degenerate
    convention points (0, e^{i theta}) used by the von Neumann report.
    """
    _, svals, phases = _boundary_grid(variety, m)
    return [
        GammaPoint(s, p)
        for row, p in zip(svals.tolist(), phases.tolist())
        for s in row
    ]


def boundary_rows(
    variety: DeterminantalVariety, m: int, tol: Tolerances = DEFAULT_TOL
) -> list[BoundaryRow]:
    """Boundary samples with region tags (widened classification band)."""
    band = replace(tol, psd_tol=max(tol.psd_tol, _BOUNDARY_BAND))
    thetas, svals, phases = _boundary_grid(variety, m)
    codes = classify_points(svals, phases[:, None], band).tolist()
    plist = phases.tolist()
    if variety.dim == 0:
        thetas = [math.atan2(p.imag, p.real) % (2.0 * math.pi) for p in plist]
    else:
        thetas = thetas.tolist()
    return [
        BoundaryRow(t, s, p, REGION_TAGS[c])
        for t, row, p, row_codes in zip(thetas, svals.tolist(), plist, codes)
        for s, c in zip(row, row_codes)
    ]


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
    if m < 1:
        raise ValueError("sample count must be positive")
    a = variety.A
    n = variety.dim
    if n == 0:
        return DistinguishedVerdict(
            DistinguishedStatus.DISTINGUISHED_CERTIFIED, "empty representation"
        )
    if variety.nr < 1.0 - tol.psd_tol:
        _, svals, _ = _boundary_grid(variety, m)
        s_margin = 2.0 - float(np.max(np.abs(svals)))
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

    _, limit, phases = _boundary_grid(variety, m)
    fiber = np.linalg.eigvals(a + (_EXIT_RADIUS * phases)[:, None, None] * a.conj().T)
    track_gap = float(np.abs(limit[:, :, None] - fiber[:, None, :]).min(axis=2).max())
    band = replace(tol, psd_tol=max(tol.psd_tol, _BOUNDARY_BAND))
    off = ~ON_BGAMMA[classify_points(limit, phases[:, None], band)]
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

    @property
    def degrees(self) -> tuple[int, int]:
        return self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __call__(self, x, y):
        return np.polynomial.polynomial.polyval2d(x, y, self.coeffs)

    def swapped(self) -> "BivarPolynomial":
        """The polynomial with its two variables exchanged."""
        return BivarPolynomial(self.coeffs.T.copy())

    def multiply(self, other: "BivarPolynomial") -> "BivarPolynomial":
        a, b = self.coeffs, other.coeffs
        out = np.zeros(
            (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), dtype=complex
        )
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j] != 0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return BivarPolynomial(_trim(out))


_SYM_DEGREE_CAP = 16


def symmetrize_bidisc_variety(p: BivarPolynomial) -> BivarPolynomial:
    """Rewrite p(z, w) p(w, z) in the coordinates (z + w, z w).

    The symmetrized product is reduced by repeatedly eliminating its
    graded-lex leading monomial z^a w^b (a >= b by symmetry) against
    (z + w)^{a-b} (z w)^b; the quotient accumulates into the returned
    polynomial q, which satisfies q(z + w, z w) = p(z, w) p(w, z)
    identically.  The identity is verified at 200 pseudorandom points to
    relative accuracy 1e-10, and a failure raises ``ValueError`` (an
    internal consistency error).
    """
    if p.is_zero():
        raise ValueError("input polynomial must be nonzero")
    pt = p.multiply(p.swapped())
    c = pt.coeffs.astype(complex)
    # Exact symmetry c[i, j] == c[j, i] up to summation order; enforce it.
    size = max(c.shape)
    full = np.zeros((size, size), dtype=complex)
    full[: c.shape[0], : c.shape[1]] = c
    c = 0.5 * (full + full.T)
    if size - 1 > _SYM_DEGREE_CAP:
        raise ValueError(
            f"symmetrized degree {size - 1} exceeds the cap {_SYM_DEGREE_CAP}"
        )
    scale = 1.0 + float(np.max(np.abs(c)))
    cutoff = 1e-15 * scale
    q = np.zeros((size, size), dtype=complex)
    for _ in range(4 * size * size):
        mask = np.abs(c) > cutoff
        if not mask.any():
            break
        # Graded-lex leading term: maximize total degree, then z-power.
        idx = np.argwhere(mask)
        tot = idx.sum(axis=1)
        order = np.lexsort((idx[:, 0], tot))
        a_pow, b_pow = idx[order[-1]]
        if a_pow < b_pow:
            a_pow, b_pow = b_pow, a_pow
        lam = c[a_pow, b_pow]
        d = a_pow - b_pow
        q[d, b_pow] += lam
        for t in range(d + 1):
            c[d - t + b_pow, t + b_pow] -= lam * math.comb(d, t)
        c[a_pow, b_pow] = 0.0
        if a_pow != b_pow:
            c[b_pow, a_pow] = 0.0
    else:
        raise ValueError("symmetric reduction did not terminate")

    result = BivarPolynomial(_trim(q))
    rng = np.random.default_rng(20240901)
    z = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
    w = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
    lhs = result(z + w, z * w)
    rhs = pt(z, w)
    err = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))
    if err > 1e-10:
        raise ValueError(
            f"symmetric rewrite verification failed: relative error {err:.3e}"
        )
    return result
