"""Dense complex spectral primitives used throughout the package.

All matrices are plain ``numpy.ndarray`` objects with complex128 entries.
Standard decompositions (Hermitian eigenvalues, Schur, SVD) are delegated
to numpy/scipy; the two nonstandard operations implemented here are

* ``numerical_radius`` -- the level-set iteration of Mengi and Overton;
  the result is attained, so a lower bound, and
* ``joint_spectrum`` -- joint eigenvalues of a commuting pair through
  simultaneous unitary triangularization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    "joint_spectrum",
]


def _integer(x, what: str) -> int:
    """``x`` as an int; ``ValueError`` naming ``what`` for a float or non-number."""
    if not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def sample_count(m) -> int:
    """``m`` as an int; ``ValueError`` unless it is a positive integer."""
    m = _integer(m, "sample count")
    if m < 1:
        raise ValueError("sample count must be positive")
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
        if _integer(self.grid_angular, "sample count") < 2:
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


def numerical_radius(a) -> float:
    """Numerical radius by the level-set iteration of Mengi and Overton.

    With H_theta = (e^{i theta} A + e^{-i theta} A*)/2, the angles where
    lambda_max(H_theta) = l are arguments of unimodular eigenvalues z of
    the pencil [[0, I], [-A*, 2l I]] - z [[I, 0], [0, A]].  From the best
    quarter turn, l rises to the best lambda_max at the cyclic midpoints
    of the angles of all finite z, until none raises it.  No z is dropped
    for lying off the circle: a tangency is a double eigenvalue that
    rounding moves off it.  A is scaled by a power of two (exactly) for
    the pencil.  The quarter turns give l > 0, so a common null vector of
    A and A* cannot make the pencil singular.  The result is attained, so
    a lower bound.
    """
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
    quarter_turns = circle_pencils(a, np.array([1, 1j, -1, -1j]))
    level = float(0.5 * np.linalg.eigvalsh(quarter_turns)[:, -1].max())
    while True:
        left[n + diag, n + diag] = np.ldexp(2.0 * level, -exp)
        z = scipy.linalg.eigvals(left, right, check_finite=False)
        theta = np.sort(np.angle(z[np.isfinite(z)]))
        mid = 0.5 * (theta + np.append(theta[1:], theta[:1] + 2.0 * math.pi))
        lam = np.linalg.eigvalsh(circle_pencils(a, np.exp(1j * mid)))
        best = float(0.5 * lam[:, -1].max(initial=-math.inf))
        if not best > level:
            return level
        level = best


def _strict_lower_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.tril(m, -1)))


def joint_spectrum(
    s, p, tol: Tolerances = DEFAULT_TOL
) -> list[tuple[complex, complex]]:
    """Joint eigenvalues of a commuting pair, with multiplicity.

    A unitary Schur basis for the first matrix is computed and the second
    matrix is checked to be upper triangular in it; the joint eigenvalues
    are then the paired diagonal entries.  When the first matrix has
    degenerate eigenvalues the Schur basis may fail to triangularize the
    second matrix, in which case the basis of a generic linear combination
    ``S + eps P`` is tried (eps = 1e-8, then 1e-6) and both matrices are
    re-verified.

    Raises ``ValueError`` for a non-commuting pair, and when no attempted
    basis triangularizes both matrices within ``residual_tol``.
    """
    s = require_square(as_matrix(s), "S")
    p = require_square(as_matrix(p), "P")
    if s.shape != p.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {p.shape}")
    n = s.shape[0]
    if n == 0:
        return []
    ns, np_, _ = require_commuting(s, p, tol, ("S", "P"))

    def attempt(base: np.ndarray):
        _, z = scipy.linalg.schur(base, output="complex")
        a = z.conj().T @ s @ z
        b = z.conj().T @ p @ z
        ok_a = _strict_lower_norm(a) <= tol.residual_tol * (1.0 + ns)
        ok_b = _strict_lower_norm(b) <= tol.residual_tol * (1.0 + np_)
        if ok_a and ok_b:
            return [(complex(a[i, i]), complex(b[i, i])) for i in range(n)]
        return None

    for eps in (0.0, 1e-8, 1e-6):
        out = attempt(s + eps * p if eps else s)
        if out is not None:
            return out
    raise ValueError(
        "simultaneous triangularization failed: residual above tolerance "
        "after perturbed retries"
    )
