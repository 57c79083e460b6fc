"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: dense grids with
no refinement, direct eigenvalue formulas, raw polynomial arithmetic and
exact rational arithmetic.  Two exceptions: the root-based region rule
is built on the public ``point_roots``, and the boundary-row oracle
reuses the library's fiber grid and tag kernel, since it is the
reference only for how rows are assembled from them.
"""

import math
from fractions import Fraction

import numpy as np

from symbidisc.geometry import REGION_TAGS, GammaPoint, RegionTag, classify_points, point_roots
from symbidisc.numerics import DEFAULT_TOL, phase_grid
from symbidisc.varieties import BoundaryRow

# The relative rounding allowance of the diagonal test in classify_points.
DIAGONAL_EPS = 64 * np.finfo(float).eps


def nr_grid_oracle(a, m=100000):
    """Numerical radius by a dense angular grid, no refinement."""
    a = np.asarray(a, dtype=complex)
    thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    best = 0.0
    chunk = 4096
    for k in range(0, m, chunk):
        w = np.exp(1j * thetas[k : k + chunk])[:, None, None]
        h = 0.5 * (w * a + np.conj(w) * a.conj().T)
        best = max(best, float(np.linalg.eigvalsh(h)[:, -1].max()))
    return best


def norm_sweep_oracle(a, m=200000):
    """max over sampled theta of ||e^{i theta} A + e^{-i theta} A*||."""
    a = np.asarray(a, dtype=complex)
    thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    best = 0.0
    chunk = 4096
    for k in range(0, m, chunk):
        w = np.exp(1j * thetas[k : k + chunk])[:, None, None]
        h = w * a + np.conj(w) * a.conj().T
        lam = np.linalg.eigvalsh(h)
        best = max(best, float(np.abs(lam).max()))
    return best


def pencil_min_oracle(s, p, n_r=41, n_t=2048):
    """min over a dense closed-disc grid of lambda_min(rho(alpha S, alpha^2 P)).

    Assembles the pencil entrywise from its definition at each sampled
    alpha; independent of the library's vectorized sweep.
    """
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    eye = np.eye(s.shape[0])
    best = np.inf
    for r in np.linspace(0.0, 1.0, n_r):
        for t in np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False):
            al = r * np.exp(1j * t)
            ss, pp = al * s, al * al * p
            rho = (
                2.0 * (eye - pp.conj().T @ pp)
                - (ss - ss.conj().T @ pp)
                - (ss.conj().T - pp.conj().T @ ss)
            )
            best = min(best, float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]))
    return best


def dilation_residual_oracle(model, pair, m_max, n_max):
    """max ||W* T^m V^n W - S^m P^n|| over the powers, one two-norm per
    power, as the per-power loop took it."""
    w = model.W
    wh = w.conj().T
    best = 0.0
    t_pow = np.eye(model.T.shape[0], dtype=complex)
    for m in range(m_max + 1):
        s_pow = np.linalg.matrix_power(pair.S, m)
        tv = t_pow.copy()
        for n in range(n_max + 1):
            res = wh @ tv @ w - s_pow @ np.linalg.matrix_power(pair.P, n)
            best = max(best, float(np.linalg.norm(res, 2)))
            tv = tv @ model.V
        t_pow = t_pow @ model.T
    return best


def poly_eval_oracle(coeffs, z, w):
    """Direct double-loop evaluation of sum c[i,j] z^i w^j."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            out = out + coeffs[i, j] * np.asarray(z) ** i * np.asarray(w) ** j
    return out


def symmetrize_exact_oracle(coeffs):
    """Exact coefficients of q with q(z + w, z w) = p(z, w) p(w, z), p real.

    Rational arithmetic throughout: the product of the float coefficients
    is formed exactly, and its graded-lex leading monomial z^a w^b (a >= b)
    is eliminated against (z + w)^(a - b) (z w)^b until nothing is left.
    Returns a dict {(i, k): Fraction} of the nonzero coefficients of s^i p^k.
    """
    a = [[Fraction(float(x)) for x in row] for row in np.asarray(coeffs, dtype=float)]
    prod = {}
    for i1, row1 in enumerate(a):
        for j1, x in enumerate(row1):
            for i2, row2 in enumerate(a):
                for j2, y in enumerate(row2):
                    # x z^i1 w^j1 times y w^i2 z^j2
                    key = (i1 + j2, j1 + i2)
                    prod[key] = prod.get(key, Fraction(0)) + x * y
    prod = {k: v for k, v in prod.items() if v}
    q = {}
    while prod:
        deg = max(i + j for i, j in prod)
        a_pow = max(i for i, j in prod if i + j == deg)
        b_pow = deg - a_pow
        lam = prod[(a_pow, b_pow)]
        q[(a_pow - b_pow, b_pow)] = lam
        d = a_pow - b_pow
        for t in range(d + 1):
            key = (d - t + b_pow, t + b_pow)
            prod[key] = prod.get(key, Fraction(0)) - lam * math.comb(d, t)
            if not prod[key]:
                del prod[key]
    return q


def root_region_tag(s, p, band):
    """Region tag from the roots of z^2 - s z + p with an absolute band on
    the root moduli and on the root gap.

    Root extraction loses half the digits near coincident roots, so this
    rule is only a reference for points whose roots are well apart.
    """
    z1, z2 = point_roots(GammaPoint(complex(s), complex(p)))
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


def _sqrt_gt(x2, y):
    """sqrt(x2) > y for rationals x2 >= 0 and y."""
    return y < 0 or x2 > y * y


def _sqrt_lt(x2, y):
    """sqrt(x2) < y for rationals x2 >= 0 and y."""
    return y > 0 and x2 < y * y


def exact_region_tag(s, p, band, diagonal=DIAGONAL_EPS):
    """The root-free band rule of ``classify_points`` in exact arithmetic.

    Every quantity is a rational function of the binary values of s, p,
    ``band`` and ``diagonal``; the moduli a = |s|, q = |p| and
    d = |s - conj(s) p| enter only through comparisons, which are decided
    by squaring.
    """
    sr, si, pr, pi_ = (Fraction(float(x)) for x in (s.real, s.imag, p.real, p.imag))
    b, k = Fraction(band), Fraction(diagonal)
    a2 = sr * sr + si * si
    q2 = pr * pr + pi_ * pi_
    dr = sr - (sr * pr + si * pi_)
    di = si - (sr * pi_ - si * pr)
    d2 = dr * dr + di * di
    c = 1 - q2
    if _sqrt_gt(a2, 2 + 2 * b) or _sqrt_gt(d2, c + b):
        return RegionTag.OUTSIDE
    if _sqrt_lt(d2, c - b):
        return RegionTag.INTERIOR_G
    if _sqrt_lt(q2, 1 - b) or _sqrt_gt(q2, 1 + b) or _sqrt_gt(d2, b):
        return RegionTag.BOUNDARY_NOT_BGAMMA
    # |s^2 - 4p| <= k (a^2 + 4q), squared twice to clear both roots
    er, ei = sr * sr - si * si - 4 * pr, 2 * sr * si - 4 * pi_
    w = (er * er + ei * ei) / (k * k) - a2 * a2 - 16 * q2
    if w <= 0 or w * w <= 64 * a2 * a2 * q2:
        return RegionTag.BDGAMMA
    return RegionTag.BGAMMA_NOT_BDGAMMA


def boundary_rows_oracle(variety, m, tol=DEFAULT_TOL):
    """``boundary_rows`` assembled row by row, one ``BoundaryRow`` call per
    fiber point, in angle-major order; the 0 x 0 representation takes its
    theta from ``atan2`` of p."""
    phases, fibers = variety._boundary(m)
    svals = fibers.T
    codes = classify_points(svals, phases[:, None], tol).tolist()
    plist = phases.tolist()
    if variety.dim == 0:
        thetas = [math.atan2(p.imag, p.real) % (2.0 * math.pi) for p in plist]
    else:
        thetas = phase_grid(m).tolist()
    return [
        BoundaryRow(t, s, p, REGION_TAGS[c])
        for t, row, p, row_codes in zip(thetas, svals.tolist(), plist, codes)
        for s, c in zip(row, row_codes)
    ]
