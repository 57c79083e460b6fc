"""Dense complex spectral primitives used throughout the package.

All matrices are plain ``numpy.ndarray`` objects with complex128 entries.
Standard decompositions (Hermitian eigenvalues, SVD) are delegated to
numpy.  The one nonstandard operation implemented here is
``numerical_radius``: the best of 16 phases, a few guarded Newton steps
on lambda_max(H_theta) from there (Mitchell, SIAM J. Sci. Comput. 2023),
and the level-set iteration of Mengi and Overton as the certificate,
which mostly takes one pencil solve from that start.  Every solve runs on
A scaled by a power of two; the result is attained, so a lower bound.
Its pencils go straight to LAPACK ``zggev`` (eigenvalues only), whose
workspace size is queried once per pencil size and kept in a module
dict: the same routine, column-major data and workspace as
``scipy.linalg.eigvals``, without its per-call query, copy and inf/nan
rebuild.

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

``circle_pencils`` stacks the unit-circle Hermitian pencils that the
numerical radius, the membership sweep and a variety's fibers solve.
The two sweeps for an extremum over a grid of angles solve them in a few
fixed batches, each with its own bound: the membership sweep excludes
phases by the concavity of its pencil's smallest eigenvalue
(``check_gamma_contraction``), and the pruned von Neumann boundary
maximum excludes angles by a Lipschitz bound (``von_neumann._pruned_max``).
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


def _count(x, what: str, lo: int, hi: int) -> int:
    """``x`` as an int in [lo, hi]; ``ValueError`` naming ``what`` otherwise."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    if not lo <= x <= hi:
        sign = "nonnegative" if lo == 0 else "positive"
        raise ValueError(f"{what} must be {sign} and at most {hi}, got {x}")
    return int(x)


# The largest sample count, which the doubled von Neumann grid stops at
_MAX_SAMPLES = 1 << 16


def sample_count(m) -> int:
    """``m`` as an int; ``ValueError`` unless 1 <= m <= 2^16."""
    return _count(m, "sample count", 1, _MAX_SAMPLES)


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances and sweep-grid sizes.

    ``psd_tol`` controls positivity acceptance (a Hermitian matrix H is
    accepted as PSD iff its smallest eigenvalue is at least
    ``-psd_tol * (1 + ||H||)``), ``rank_tol`` is the eigenvalue cutoff for
    rank decisions, ``residual_tol`` bounds acceptable equation residuals,
    and ``grid_angular`` counts the phases of the membership circle of
    ``check_gamma_contraction``; the numerical radius reads no tolerance.
    ``grid_radial`` is a class constant, not a field, that the library
    does not read.
    """

    psd_tol: float = 1e-9
    rank_tol: float = 1e-10
    residual_tol: float = 1e-8
    grid_angular: int = 1024
    grid_radial = 21  # unannotated, so no field

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


# The start's 16 phases e^{i pi k / 8}: the first quadrant's four times
# the quarter turns 1, i, -1 and -i, which multiply exactly
_START_PHASES = np.concatenate(
    [u * np.exp(0.125j * math.pi * np.arange(4)) for u in (1, 1j, -1, -1j)]
)
# At most this many Newton steps, each at most one start spacing long.  A
# step below _NEWTON_TOL is the last: Newton converges quadratically, so
# the phase is then off by about its square and the value by its fourth
# power, below rounding
_NEWTON_STEPS = 8
_NEWTON_TOL = 2.0**-20
# The relative eigengap below which lambda_max is taken as not smooth
_GAP_TOL = 64 * np.finfo(float).eps


def _lambda_max(b: np.ndarray, w: complex):
    """lambda_max of G = w B + conj(w) B*, w = e^{i theta}, and the Newton
    step towards its maximum over theta, or 0.0 where a guard fails.

    With x the unit eigenvector of lambda_1 = lambda_max, G' = i w B +
    conj(i w) B* and G'' = -G, the derivatives are g' = x* G' x and
    g'' = -lambda_1 + 2 sum_j |y_j* G' x|^2 / (lambda_1 - lambda_j) over
    the other eigenpairs (lambda_j, y_j).  The step -g'/g'' is taken only
    where lambda_1 is simple (an eigengap above 64 eps ||G||) and g'' < 0,
    and is cut to the start spacing pi / 8.
    """
    y = w * b
    lam, vec = np.linalg.eigh(y + y.conj().T)
    top = float(lam[-1])
    gap = top - lam[:-1]
    if gap.size and not gap[-1] > _GAP_TOL * max(top, -float(lam[0])):
        return top, 0.0
    x = vec[:, -1]
    # G' x in the eigenbasis: its last entry is x* G' x
    z = vec.conj().T @ (1j * (y @ x - y.conj().T @ x))
    slope = float(z[-1].real)
    z = z[:-1]
    curv = -top + 2.0 * float(((z.real**2 + z.imag**2) / gap).sum())
    if not curv < 0.0:
        return top, 0.0
    return top, min(max(-slope / curv, -math.pi / 8), math.pi / 8)


def numerical_radius(a) -> float:
    """Numerical radius: a Newton start, certified by the level-set
    iteration of Mengi and Overton.

    A is scaled exactly by the power of two 2^-e that brings its largest
    real or imaginary part into [1/2, 1), so that no solve below overflows
    and a tiny A keeps its bits; the result is scaled back by 2^e, and a
    radius beyond the float range raises ``ValueError``.  With
    H_theta = (e^{i theta} A + e^{-i theta} A*)/2:

    - *Start.* lambda_max(H_theta) at the 16 phases pi k / 8.  They hold
      the exact quarter turns, so for A != 0 the best is positive: H_0
      and H_{pi/2} are not both zero, and H_{theta+pi} = -H_theta.
    - *Newton.*  From the best phase, guarded Newton steps on
      lambda_max(H_theta), its second derivative from the eigengap sum
      (``_lambda_max``).  A step is kept only if the value it reaches is
      higher.  The level l is the larger of the best start value and the
      last kept one, so a value attained at some phase.
    - *Certificate.*  The angles where lambda_max(H_theta) = l are
      arguments of unimodular eigenvalues z of the pencil
      [[0, I], [-A*, 2l I]] - z [[I, 0], [0, A]].  l rises to the best
      lambda_max at the cyclic midpoints of the angles of all finite z,
      until none raises it.  No z is dropped for lying off the circle: a
      tangency is a double eigenvalue that rounding moves off it.  The
      pencil is built once in column-major order; each step rewrites only
      its 2l I diagonal.  l > 0, so a common null vector of A and A*
      cannot make the pencil singular.

    From the Newton start the loop mostly takes one pencil solve, which
    finds no higher midpoint.  The result is attained, so a lower bound.
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
        theta = np.sort(np.angle(_pencil_eigvals(left, right)))
        mid = 0.5 * (theta + np.append(theta[1:], theta[:1] + 2.0 * math.pi))
        lam = np.linalg.eigvalsh(circle_pencils(b, np.exp(1j * mid)))
        best = float(0.5 * lam[:, -1].max(initial=-math.inf))
        if not best > level:
            break
        level = best
    try:
        return math.ldexp(level, exp)
    except OverflowError:
        raise ValueError("numerical radius overflows the float range") from None
