"""Point geometry of the symmetrized bidisc.

The symmetrization map pi(z1, z2) = (z1 + z2, z1 z2) sends the closed
bidisc onto the closed symmetrized bidisc Γ; a point (s, p) is recovered
from its fiber by solving z^2 - s z + p = 0.

Region tags need no roots.  By Agler-Young (J. Geom. Anal. 2004),

    (s, p) in Γ   iff  |s| <= 2  and  |s - conj(s) p| <= 1 - |p|^2,
    (s, p) in bΓ  iff  |p| = 1,  |s| <= 2  and  s = conj(s) p,

where bΓ = pi(torus) is the distinguished boundary; its diagonal
pi(z, z) is the set of points with s^2 = 4p on bΓ.  ``classify_points``
evaluates these moduli directly, so a tag keeps the full precision of
(s, p) even where the two roots coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import DEFAULT_TOL, Tolerances

__all__ = [
    "GammaPoint",
    "RegionTag",
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

# Relative rounding allowance of the diagonal test |s^2 - 4p| = |z1 - z2|^2.
_DIAGONAL_EPS = 64 * np.finfo(float).eps


def classify_points(s, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Region tags of the points (s, p) over broadcast arrays, as int8 codes.

    Code k stands for ``REGION_TAGS[k]``.  With b = ``tol.psd_tol``,
    a = |s|, q = |p|, d = |s - conj(s) p| and g = d - (1 - q^2), each
    band is absolute in the (s, p) coordinates:

    - OUTSIDE: a > 2 + 2b (s is a sum of two roots) or g > b, which
      holds whenever q > 1 + b since g >= q^2 - 1;
    - INTERIOR_G: g < -b, which forces a < 2 - 2 sqrt(b) since
      d >= a (1 - q);
    - on bΓ: |q - 1| <= b and d <= b, and then BDGAMMA when
      |s^2 - 4p| <= 64 eps (a^2 + 4q), else BGAMMA_NOT_BDGAMMA;
    - BOUNDARY_NOT_BGAMMA otherwise.

    The diagonal test is at rounding level, not a band: on bΓ,
    s^2 - 4p = (z1 - z2)^2, so a band b on the root gap would be b^2 in
    (s, p), below rounding for any b < 1e-7.  The computed s^2 and 4p
    each carry a few ulps of a^2 and 4q, so the test accepts exactly the
    points whose root gap rounding cannot resolve: up to about
    sqrt(512 eps) = 3.4e-7 on |s| = 2.  On finite points whose products
    overflow, g is +inf, so they are OUTSIDE.  Non-finite input raises
    ``ValueError``.
    """
    s, p = np.broadcast_arrays(np.asarray(s, dtype=complex), np.asarray(p, dtype=complex))
    if not (np.isfinite(s).all() and np.isfinite(p).all()):
        raise ValueError("points must be finite")
    b = tol.psd_tol
    with np.errstate(all="ignore"):
        a, q = np.abs(s), np.abs(p)
        d = np.abs(s - np.conj(s) * p)
        g = d - (1.0 - q * q)
        on_bgamma = (np.abs(q - 1.0) <= b) & (d <= b)
        diagonal = np.abs(s * s - 4.0 * p) <= _DIAGONAL_EPS * (a * a + 4.0 * q)
    return np.select(
        [(a > 2.0 + 2.0 * b) | (g > b),
         g < -b,
         on_bgamma & diagonal,
         on_bgamma],
        [_CODE[RegionTag.OUTSIDE], _CODE[RegionTag.INTERIOR_G],
         _CODE[RegionTag.BDGAMMA], _CODE[RegionTag.BGAMMA_NOT_BDGAMMA]],
        _CODE[RegionTag.BOUNDARY_NOT_BGAMMA],
    ).astype(np.int8)


def classify_point(pt: GammaPoint, tol: Tolerances = DEFAULT_TOL) -> RegionTag:
    """Region tag of one point: ``classify_points`` applied to (pt.s, pt.p)."""
    return REGION_TAGS[int(classify_points(pt.s, pt.p, tol))]
