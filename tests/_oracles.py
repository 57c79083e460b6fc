"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: dense grids with
no refinement, direct eigenvalue formulas, raw polynomial arithmetic and
exact rational arithmetic.  The boundary-row oracle reuses the
library's fiber grid and tag kernel, since it is the reference only for
how rows are assembled from them.  The scipy-path
radius oracle is the library's radius with its pencil solved by
``scipy.linalg.eigvals``, and reuses the library's Newton step: it is the
reference only for the direct LAPACK call that replaced it.  The
level-set radius oracle is the library's radius as it was before its
Newton start, the reference for the values and solve counts of the
start.  The full-grid membership sweep is the library's
sweep as it was before it skipped phases, the reference for the
refined one.  The matrix-polynomial evaluation on a pair is the library's
as it was when each call built its own products S^i P^j, the reference
for the held ones.  The exit-fiber gap is the diagnostic that
``classify_distinguished`` once solved on every radius-one variety, kept
to test the bound that made it redundant.  The unitary-part oracle is the
function that once took the unitary part of P from a finished
``defect_operator`` split, the reference for the basis that the split now
holds itself.  The matrix-polynomial draw is ``random_matrix_polynomial``
as it was when each term drew its own blocks, the reference for the one
draw that replaced the loop.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from symbidisc import numerics
from symbidisc.gamma_pairs import PairVerdict, PencilWitness
from symbidisc.generators import _ginibre
from symbidisc.geometry import REGION_TAGS, GammaPoint, RegionTag, classify_points
from symbidisc.numerics import (
    _NEWTON_STEPS,
    _NEWTON_TOL,
    _START_PHASES,
    DEFAULT_TOL,
    _lambda_max,
    as_matrix,
    circle_pencils,
    phase_grid,
    require_square,
    spectral_radius,
)
from symbidisc.varieties import BoundaryRow
from symbidisc.von_neumann import MatrixPolynomial

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


def numerical_radius_scipy_oracle(a):
    """``numerical_radius`` with each level step's pencil solved by
    ``scipy.linalg.eigvals`` on a C-ordered pencil: the library's start,
    Newton steps and level-set loop, kept line for line."""
    a = np.ascontiguousarray(require_square(as_matrix(a)))
    n = a.shape[0]
    if n == 0 or not a.any():
        return 0.0
    parts = a.view(float)
    exp = int(np.frexp(np.abs(parts).max())[1])
    b = np.ldexp(parts, -exp).view(complex)
    left, right = np.zeros((2, 2 * n, 2 * n), dtype=complex)
    diag = np.arange(n)
    right[diag, diag] = left[diag, n + diag] = 1.0
    right[n:, n:] = b
    left[n:, :n] = -b.conj().T
    start = np.linalg.eigvalsh(circle_pencils(b, _START_PHASES))[:, -1]
    k = int(np.argmax(start))
    phase = math.pi * k / 8
    top, step = _lambda_max(b, _START_PHASES[k])
    for _ in range(_NEWTON_STEPS):
        if step == 0.0:
            break
        t = phase + step
        value, next_step = _lambda_max(b, complex(math.cos(t), math.sin(t)))
        if not value > top:
            break
        phase, top = t, value
        if abs(step) <= _NEWTON_TOL:
            break
        step = next_step
    level = 0.5 * max(top, float(start[k]))
    while True:
        left[n + diag, n + diag] = 2.0 * level
        z = scipy.linalg.eigvals(left, right, check_finite=False)
        theta = np.sort(np.angle(z[np.isfinite(z)]))
        mid = 0.5 * (theta + np.append(theta[1:], theta[:1] + 2.0 * math.pi))
        lam = np.linalg.eigvalsh(circle_pencils(b, np.exp(1j * mid)))
        best = float(0.5 * lam[:, -1].max(initial=-math.inf))
        if not best > level:
            break
        level = best
    return math.ldexp(level, exp)


def numerical_radius_level_set_oracle(a):
    """``numerical_radius`` as it was before its Newton start, kept
    verbatim: the level-set loop from the best quarter turn, with the
    quarter turns and midpoints solved on the unscaled A.  The pencil goes
    through ``symbidisc.numerics._pencil_eigvals``, looked up at each
    call, so a test can count its solves."""
    a = np.ascontiguousarray(require_square(as_matrix(a)))
    n = a.shape[0]
    if n == 0 or not a.any():
        return 0.0
    parts = a.view(float)
    exp = int(np.frexp(np.abs(parts).max())[1])
    b = np.ldexp(parts, -exp).view(complex)
    left = np.zeros((2 * n, 2 * n), dtype=complex, order="F")
    right = np.zeros_like(left)
    diag = np.arange(n)
    right[diag, diag] = left[diag, n + diag] = 1.0
    right[n:, n:] = b
    left[n:, :n] = -b.conj().T
    quarter_turns = circle_pencils(a, np.array([1, 1j, -1, -1j]))
    level = float(0.5 * np.linalg.eigvalsh(quarter_turns)[:, -1].max())
    while True:
        left[n + diag, n + diag] = np.ldexp(2.0 * level, -exp)
        theta = np.sort(np.angle(numerics._pencil_eigvals(left, right)))
        mid = 0.5 * (theta + np.append(theta[1:], theta[:1] + 2.0 * math.pi))
        lam = np.linalg.eigvalsh(circle_pencils(a, np.exp(1j * mid)))
        best = float(0.5 * lam[:, -1].max(initial=-math.inf))
        if not best > level:
            return level
        level = best


def membership_sweep_oracle(pair, tol=DEFAULT_TOL):
    """``check_gamma_contraction`` as it was when one batched eigensolve
    covered every phase of the grid, kept verbatim."""
    c, b = pair.C, pair.B
    phases = np.exp(1j * phase_grid(tol.grid_angular))
    pencils = circle_pencils(-b, phases, c)
    lam = np.linalg.eigvalsh(pencils)
    lmin = lam[:, 0]
    scale = 1.0 + np.max(np.abs(lam), axis=1)
    margin = float(lmin.min())
    member = bool(np.all(lmin >= -tol.psd_tol * scale)) and (
        spectral_radius(pair.S) <= 2.0 + tol.psd_tol
    )
    k = int(np.argmax(lmin <= margin + 64 * np.finfo(float).eps * scale))
    lam_k, vec = np.linalg.eigh(pencils[k])
    witness = PencilWitness(complex(phases[k]), vec[:, 0], float(lam_k[0]))
    return PairVerdict(member, margin, witness)


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


def rho_oracle(s, p):
    """2(I - P*P) - (S - S*P) - (S* - P*S), the pencil rho(S, P), entry by
    entry from its definition."""
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    eye = np.eye(s.shape[0])
    return 2.0 * (eye - p.conj().T @ p) - (s - s.conj().T @ p) - (s.conj().T - p.conj().T @ s)


def dense_model(model):
    """The dense T = I (x) G* + M_z (x) G and V = M_z (x) I of a truncated
    dilation model, M_z the block shift down by one."""
    g = model.fund_adjoint.F
    down = np.eye(model.N, k=-1)
    t = np.kron(np.eye(model.N), g.conj().T) + np.kron(down, g)
    v = np.kron(down, np.eye(g.shape[0])).astype(complex)
    return t, v


def dilation_residual_oracle(model, pair, m_max, n_max):
    """max ||W* T^m V^n W - S^m P^n|| over the powers, one two-norm per
    power, as the per-power loop took it."""
    w = model.W
    wh = w.conj().T
    t, v = dense_model(model)
    best = 0.0
    t_pow = np.eye(t.shape[0], dtype=complex)
    for m in range(m_max + 1):
        s_pow = np.linalg.matrix_power(pair.S, m)
        tv = t_pow.copy()
        for n in range(n_max + 1):
            res = wh @ tv @ w - s_pow @ np.linalg.matrix_power(pair.P, n)
            best = max(best, float(np.linalg.norm(res, 2)))
            tv = tv @ v
        t_pow = t_pow @ t
    return best


def evaluate_pair_oracle(f, pair):
    """``evaluate_pair`` as it was when each call built its own powers and
    products S^i P^j, kept verbatim."""
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
    return np.einsum("tab,txy->axby", f.coeffs[ii, jj], terms).reshape(k * n, k * n)


def boundary_max_oracle(coeffs, p, s):
    """Largest ||f(s, p)|| over grid points ``p`` (m,) and fibers ``s`` (n, m):
    each value summed term by term from s^i p^j, then the SVD of every
    value.  Returns (value, j, t) of the first maximum in angle-major
    order, with j the fiber and t the angle."""
    vals = sum(
        coeffs[i, j][None, None] * (s**i * p**j)[:, :, None, None]
        for i in range(coeffs.shape[0])
        for j in range(coeffs.shape[1])
    )
    norms = np.linalg.svd(vals, compute_uv=False)[..., 0]
    t, j = divmod(int(np.argmax(norms.T)), s.shape[0])
    return float(norms[j, t]), j, t


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


def point_roots(pt):
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
    return tuple(sorted(roots, key=lambda z: (abs(z), math.atan2(z.imag, z.real))))


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


def exit_fiber_gap(variety, m, radius):
    """The worst over the m held angles of the distance from a limit
    eigenvalue over p = e^{i theta} to the fiber over p = radius e^{i theta},
    by general eigensolves: ``classify_distinguished``'s old ``track_gap``,
    kept verbatim."""
    a = variety.A
    phases, s = variety._boundary(m)
    limit = s.T
    fiber = np.linalg.eigvals(a + (radius * phases)[:, None, None] * a.conj().T)
    return float(np.abs(limit[:, :, None] - fiber[:, None, :]).min(axis=2).max())


def unitary_part_oracle(p, dd, tol):
    """Orthonormal basis of the unitary part of the contraction P.

    It is the common null space of U* P^k, U = ``dd.basis``, taken inside
    the span K of ``dd.kernel`` (so no direction also lies in the defect
    space) with the same cut: sum_k ||U* P^k x||^2 <= ``rank_tol``
    ||x||^2.  P is isometric on this invariant subspace, so in finite
    dimension unitary there, and the subspace reduces P.  The null spaces
    shrink until two agree and stay fixed after, so k <= dim K suffices.
    """
    k = dd.kernel
    rows = dd.basis.conj().T @ p
    gram = np.zeros((k.shape[1],) * 2, dtype=complex)
    for _ in range(k.shape[1]):
        block = rows @ k
        gram += block.conj().T @ block
        rows = rows @ p
    lam, y = np.linalg.eigh(gram)
    return k @ y[:, lam <= tol.rank_tol]


def matrix_polynomial_oracle(rng, max_total_degree=3, block_dim=2):
    """``random_matrix_polynomial`` with one ``_ginibre`` draw per term."""
    d = max_total_degree
    coeffs = np.zeros((d + 1, d + 1, block_dim, block_dim), dtype=complex)
    for i in range(d + 1):
        for j in range(d + 1 - i):
            coeffs[i, j] = _ginibre(rng, block_dim, block_dim)
    return MatrixPolynomial.from_coeffs(coeffs)
