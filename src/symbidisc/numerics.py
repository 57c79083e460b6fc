"""Dense complex spectral primitives used throughout the package.

All matrices are plain ``numpy.ndarray`` objects with complex128 entries.
Standard decompositions (Hermitian eigenvalues, SVD) are delegated to
numpy.  The one nonstandard operation implemented here is
``numerical_radius``, the level-set iteration of Mengi and Overton; the
result is attained, so a lower bound.  Its pencils go straight to LAPACK
``zggev`` (eigenvalues only), whose workspace size is queried once per
pencil size and kept in a module dict: the same routine, column-major
data and workspace as ``scipy.linalg.eigvals``, without its per-call
query, copy and inf/nan rebuild.

``zggev`` is the one routine the package takes from scipy.  It is read
from scipy's f2py LAPACK wrapper, the extension ``scipy/linalg/_flapack``,
loaded by file without running ``scipy/linalg/__init__.py``: importing
that package would nearly double the resident memory and the start-up
time of every process that imports symbidisc.  The loaded module is
taken out of ``sys.modules`` again, so a later ``import scipy.linalg``
imports its ``_flapack`` as usual; an f2py module is initialised once
per process, so the routine is the very object that
``scipy.linalg.get_lapack_funcs("ggev", dtype=complex)`` returns,
whichever of the two is imported first.  A scipy without that file
gets the routine from ``get_lapack_funcs``.

``_bisect_circle`` is the one bisection of a grid round the circle for
an extremum, which the membership sweep and the pruned von Neumann
boundary maximum both run.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_matrix",
    "require_square",
    "require_commuting",
    "operator_norm",
    "spectral_radius",
    "sample_count",
    "phase_grid",
    "circle_pencils",
    "numerical_radius",
]


def _integer(x, what: str) -> int:
    """``x`` as an int; ``ValueError`` naming ``what`` for a bool, a float
    or a non-number."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


# The largest sample count, which the doubled von Neumann grid stops at
_MAX_SAMPLES = 1 << 16


def sample_count(m) -> int:
    """``m`` as an int; ``ValueError`` unless 1 <= m <= 2^16."""
    m = _integer(m, "sample count")
    if not 1 <= m <= _MAX_SAMPLES:
        raise ValueError(f"sample count must be positive and at most {_MAX_SAMPLES}, got {m}")
    return m


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances and sweep-grid sizes.

    ``psd_tol`` controls positivity acceptance (a Hermitian matrix H is
    accepted as PSD iff its smallest eigenvalue is at least
    ``-psd_tol * (1 + ||H||)``), ``rank_tol`` is the eigenvalue cutoff for
    rank decisions, ``residual_tol`` bounds acceptable equation residuals,
    and ``grid_angular`` counts the phases of the membership circle of
    ``check_gamma_contraction``; the numerical radius reads no tolerance.
    The library no longer reads ``grid_radial``; it stays for outside
    callers.
    """

    psd_tol: float = 1e-9
    rank_tol: float = 1e-10
    residual_tol: float = 1e-8
    grid_angular: int = 1024
    grid_radial: int = 21

    def __post_init__(self):
        tols = (self.psd_tol, self.rank_tol, self.residual_tol)
        if not all(isinstance(t, numbers.Real) and 0 <= t < math.inf for t in tols):
            raise ValueError("tolerances must be finite and nonnegative real numbers")
        if sample_count(self.grid_angular) < 2:
            raise ValueError("grid sizes must be at least 2")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value; 0 for an empty matrix.

    The first of the descending singular values: the same SVD that
    ``np.linalg.norm(m, 2)`` runs, without its axis handling.
    """
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def spectral_radius(m: np.ndarray) -> float:
    m = require_square(as_matrix(m))
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def phase_grid(m) -> np.ndarray:
    """The m angles 2 pi k / m, k = 0, ..., m - 1, of the unit circle."""
    return 2.0 * math.pi * np.arange(sample_count(m)) / m


# Evenly spread points that ``_bisect_circle`` solves first
_COARSE_POINTS = 64


def _bisect_circle(m: int, solve, refine) -> np.ndarray:
    """The ascending indices of a grid of m points round the circle that a
    bisection for an extremum solves.

    ``solve(idx)`` solves one batch of indices.  The first batch is
    min(m, ``_COARSE_POINTS``) evenly spread indices, k m // c.  The
    solved indices cut the circle into gaps (lo, hi), hi the next solved
    index; the last gap wraps round to index 0, written as hi = m.
    ``refine(lo, hi)`` marks, with one bool per gap, the gaps whose
    interior may still hold the extremum, and the midpoint (lo + hi) // 2
    of every marked gap with an interior is solved as the next batch.
    The rounds end when no marked gap has an interior.
    """
    coarse = min(_COARSE_POINTS, m)
    solved = np.arange(coarse) * m // coarse
    solve(solved)
    while True:
        ends = np.append(solved[1:], m)
        mids = (solved + ends)[refine(solved, ends) & (ends - solved > 1)] // 2
        if not mids.size:
            return solved
        solve(mids)
        # the midpoints lie strictly inside gaps, so they are new indices
        solved = np.sort(np.concatenate((solved, mids)))


def circle_pencils(k: np.ndarray, w: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """Y + Y* with Y = C + w K, one matrix per unimodular w of a 1-d array.

    Shape (len(w), n, n), Hermitian entry by entry.  ``c=None`` adds no C:
    adding zeros turns -0.0 entries into +0.0, which moves eigenvalue bits.
    The product is taken on flattened rows: numpy rounds a complex product
    whose operands have only unit dimensions differently (the 1 x 1 case
    at a single w), and rows give the bits of ``w * K`` for every size.
    """
    n = k.shape[0]
    y = (w[:, None] * k.reshape(1, -1)).reshape(len(w), n, n)
    if c is not None:
        y += c
    return y + np.conj(y.transpose(0, 2, 1))


def require_commuting(
    a: np.ndarray, b: np.ndarray, tol: Tolerances, names: tuple[str, str]
) -> tuple[float, float, float]:
    """Norms ||A||, ||B|| and the commutator defect ||AB - BA||.

    Raises ``ValueError`` when the defect exceeds
    ``residual_tol * (1 + ||A|| ||B||)``; ``names`` label A and B in it.
    """
    norm_a, norm_b = operator_norm(a), operator_norm(b)
    defect = operator_norm(a @ b - b @ a)
    if defect > tol.residual_tol * (1.0 + norm_a * norm_b):
        x, y = names
        raise ValueError(
            f"{x} and {y} do not commute: ||{x}{y}-{y}{x}|| = {defect:.3e} exceeds tolerance"
        )
    return norm_a, norm_b, defect


def _lapack_zggev():
    """scipy's f2py ``zggev``, from ``scipy.linalg._flapack`` loaded by file
    (or already imported) without importing ``scipy.linalg``; from
    ``scipy.linalg.get_lapack_funcs`` when no such file exists."""
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        linalg = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(linalg, "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                flapack = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader)
                )
                loader.exec_module(flapack)
                # registered without its package, which would then lack
                # the attribute ``_flapack``
                sys.modules.pop(name, None)
                break
        else:
            import scipy.linalg

            return scipy.linalg.get_lapack_funcs("ggev", dtype=complex)
    return flapack.zggev


# LAPACK zggev, and its workspace size by pencil size: the lwork = -1
# query that scipy.linalg.eigvals runs on every call, run once per size
_zggev = _lapack_zggev()
_ZGGEV_LWORK: dict[int, int] = {}


def _pencil_eigvals(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Finite eigenvalues alpha / beta of the pencil left - z right.

    One ``zggev`` call without eigenvectors; ``LinAlgError`` when it
    reports failure.  Eigenvalues with beta = 0, or whose quotient is not
    finite, are dropped.
    """
    size = left.shape[0]
    lwork = _ZGGEV_LWORK.get(size)
    if lwork is None:
        lwork = _ZGGEV_LWORK[size] = int(_zggev(left, right, lwork=-1)[-2][0].real)
    alpha, beta, _, _, _, info = _zggev(left, right, 0, 0, lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"zggev failed with info = {info}")
    finite = beta != 0
    z = alpha[finite] / beta[finite]
    return z[np.isfinite(z)]


def numerical_radius(a) -> float:
    """Numerical radius by the level-set iteration of Mengi and Overton.

    With H_theta = (e^{i theta} A + e^{-i theta} A*)/2, the angles where
    lambda_max(H_theta) = l are arguments of unimodular eigenvalues z of
    the pencil [[0, I], [-A*, 2l I]] - z [[I, 0], [0, A]].  From the best
    quarter turn, l rises to the best lambda_max at the cyclic midpoints
    of the angles of all finite z, until none raises it.  No z is dropped
    for lying off the circle: a tangency is a double eigenvalue that
    rounding moves off it.  A is scaled by a power of two (exactly) for
    the pencil, which is built once in column-major order; each step
    rewrites only its 2l I diagonal.  The quarter turns give l > 0, so a
    common null vector of A and A* cannot make the pencil singular.  The
    result is attained, so a lower bound.
    """
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
        theta = np.sort(np.angle(_pencil_eigvals(left, right)))
        mid = 0.5 * (theta + np.append(theta[1:], theta[:1] + 2.0 * math.pi))
        lam = np.linalg.eigvalsh(circle_pencils(a, np.exp(1j * mid)))
        best = float(0.5 * lam[:, -1].max(initial=-math.inf))
        if not best > level:
            return level
        level = best
