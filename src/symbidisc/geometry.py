"""Point geometry of the symmetrized bidisc.

The symmetrization map pi(z1, z2) = (z1 + z2, z1 z2) sends the closed
bidisc onto the closed symmetrized bidisc; a point (s, p) is recovered
from its fiber by solving z^2 - s z + p = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import DEFAULT_TOL, Tolerances

__all__ = [
    "GammaPoint",
    "RegionTag",
    "symmetrize_point",
    "point_roots",
    "classify_point",
    "classify_points",
    "REGION_TAGS",
    "ON_BGAMMA",
]


@dataclass(frozen=True)
class GammaPoint:
    """A point (s, p) in the coordinates of the symmetrized bidisc."""

    s: complex
    p: complex


class RegionTag(Enum):
    INTERIOR_G = "INTERIOR_G"
    BOUNDARY_NOT_BGAMMA = "BOUNDARY_NOT_BGAMMA"
    BGAMMA_NOT_BDGAMMA = "BGAMMA_NOT_BDGAMMA"
    BDGAMMA = "BDGAMMA"
    OUTSIDE = "OUTSIDE"


# Tag codes of ``classify_points`` index into this tuple.
REGION_TAGS = tuple(RegionTag)
_CODE = {tag: k for k, tag in enumerate(REGION_TAGS)}

# Indexed by tag code: True for the tags of points on the distinguished boundary.
ON_BGAMMA = np.array(
    [tag in (RegionTag.BGAMMA_NOT_BDGAMMA, RegionTag.BDGAMMA) for tag in REGION_TAGS]
)


def symmetrize_point(z1: complex, z2: complex) -> GammaPoint:
    """Image of (z1, z2) under the symmetrization map."""
    z1, z2 = complex(z1), complex(z2)
    if not (cmath.isfinite(z1) and cmath.isfinite(z2)):
        raise ValueError("inputs must be finite")
    return GammaPoint(z1 + z2, z1 * z2)


def point_roots(pt: GammaPoint) -> tuple[complex, complex]:
    """Both roots of z^2 - s z + p = 0, sorted by (modulus, argument).

    The larger-magnitude root is computed first and the other obtained as
    p divided by it, which avoids the cancellation of the naive quadratic
    formula.
    """
    s, p = complex(pt.s), complex(pt.p)
    if not (cmath.isfinite(s) and cmath.isfinite(p)):
        raise ValueError("point must be finite")
    sq = cmath.sqrt(s * s - 4.0 * p)
    if abs(s + sq) >= abs(s - sq):
        big = 0.5 * (s + sq)
    else:
        big = 0.5 * (s - sq)
    if big == 0:
        roots = (0j, 0j)
    else:
        roots = (big, p / big)
    return tuple(sorted(roots, key=lambda z: (abs(z), cmath.phase(z))))


def classify_point(pt: GammaPoint, tol: Tolerances = DEFAULT_TOL) -> RegionTag:
    """Locate a point relative to the symmetrized bidisc.

    Classification runs on the fiber roots with an absolute band of
    ``psd_tol`` on the root moduli: strictly inside the open region, on
    the distinguished boundary (both roots unimodular), on its diagonal
    subset (coincident unimodular roots), elsewhere on the topological
    boundary, or outside.
    """
    z1, z2 = point_roots(pt)
    band = tol.psd_tol
    m1, m2 = abs(z1), abs(z2)
    if max(m1, m2) > 1.0 + band:
        return RegionTag.OUTSIDE
    if max(m1, m2) < 1.0 - band:
        return RegionTag.INTERIOR_G
    if abs(m1 - 1.0) <= band and abs(m2 - 1.0) <= band:
        if abs(z1 - z2) <= band:
            return RegionTag.BDGAMMA
        return RegionTag.BGAMMA_NOT_BDGAMMA
    return RegionTag.BOUNDARY_NOT_BGAMMA


# CPython before 3.14 promotes the float of ``float * complex`` to c + 0j
# and multiplies as complex numbers, which can flip the sign of a zero
# part; from 3.14 on it scales both parts (C99 Annex G).
_SCALES_PARTS = math.copysign(1.0, (1.0 * complex(-0.0, -1.0)).real) < 0
_DBL_MIN = np.finfo(float).tiny


def _scale(c: float, re, im):
    """Parts of ``c * z`` for a float c, as CPython evaluates it."""
    if _SCALES_PARTS:
        return c * re, c * im
    return c * re - 0.0 * im, c * im + 0.0 * re


def _quotient(ar, ai, br, bi):
    """Parts of ``a / b`` by CPython's branch rule (Smith's method)."""
    by_real = np.abs(br) >= np.abs(bi)
    big = np.where(by_real, br, bi)
    small = np.where(by_real, bi, br)
    ratio = small / big
    denom = big + small * ratio
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _sqrt(re, im):
    """Parts of ``cmath.sqrt(re + im j)`` for finite input, by CPython's
    algorithm; numpy's complex sqrt rounds differently, e.g. at 4j."""
    ax, ay = np.abs(re), np.abs(im)
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    up = np.ldexp(ax, 53)
    s = np.where(
        tiny,
        np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay, 53))), -27),
        2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)),
    )
    d = ay / (2.0 * s)
    zero = (re == 0) & (im == 0)
    sq_re = np.where(zero, 0.0, np.where(re >= 0, s, d))
    sq_im = np.where(zero, im, np.copysign(np.where(re >= 0, d, s), im))
    return sq_re, sq_im


def _root_parts(s, p):
    """Parts (z1r, z1i, z2r, z2i) of the roots as ``point_roots`` computes
    them, unsorted, for flat complex arrays s and p."""
    sr, si, pr, pi = s.real, s.imag, p.real, p.imag
    with np.errstate(all="ignore"):
        fr, fi = _scale(4.0, pr, pi)
        sq_re, sq_im = _sqrt(sr * sr - si * si - fr, sr * si + si * sr - fi)
        plus_r, plus_i = sr + sq_re, si + sq_im
        minus_r, minus_i = sr - sq_re, si - sq_im
        use_plus = np.hypot(plus_r, plus_i) >= np.hypot(minus_r, minus_i)
        z1r, z1i = _scale(0.5, np.where(use_plus, plus_r, minus_r),
                          np.where(use_plus, plus_i, minus_i))
        zero = (z1r == 0) & (z1i == 0)
        z2r, z2i = _quotient(pr, pi, z1r, z1i)
    return z1r, z1i, np.where(zero, 0.0, z2r), np.where(zero, 0.0, z2i)


def classify_points(s, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``classify_point`` over broadcast arrays of s and p, as int8 codes.

    Code k stands for ``REGION_TAGS[k]``.  The roots are computed as
    ``point_roots`` computes them, repeating CPython's complex arithmetic
    step by step on real and imaginary float arrays (numpy's complex
    multiply, divide, sqrt and abs round differently in the last bit), so
    every tag equals the scalar one.  Points whose arithmetic leaves the finite
    range go through ``classify_point`` itself, which also rejects
    non-finite input.
    """
    s, p = np.broadcast_arrays(np.asarray(s, dtype=complex), np.asarray(p, dtype=complex))
    shape = s.shape
    s, p = s.ravel(), p.ravel()
    z1r, z1i, z2r, z2i = _root_parts(s, p)
    with np.errstate(all="ignore"):
        m1, m2 = np.hypot(z1r, z1i), np.hypot(z2r, z2i)
        gap = np.hypot(z1r - z2r, z1i - z2i)
    band = tol.psd_tol
    top = np.maximum(m1, m2)
    unimodular = (np.abs(m1 - 1.0) <= band) & (np.abs(m2 - 1.0) <= band)
    codes = np.select(
        [top > 1.0 + band, top < 1.0 - band, unimodular & (gap <= band), unimodular],
        [_CODE[RegionTag.OUTSIDE], _CODE[RegionTag.INTERIOR_G],
         _CODE[RegionTag.BDGAMMA], _CODE[RegionTag.BGAMMA_NOT_BDGAMMA]],
        _CODE[RegionTag.BOUNDARY_NOT_BGAMMA],
    ).astype(np.int8)
    finite = np.isfinite(s) & np.isfinite(p) & np.isfinite(gap)
    for k in np.flatnonzero(~finite):
        codes[k] = _CODE[classify_point(GammaPoint(complex(s[k]), complex(p[k])), tol)]
    return codes.reshape(shape)
