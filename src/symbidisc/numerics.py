"""Dense complex spectral primitives used throughout the package.

All matrices are plain ``numpy.ndarray`` objects with complex128 entries.
Standard decompositions (Hermitian eigenvalues, Schur, SVD) are delegated
to numpy/scipy; the two nonstandard operations implemented here are

* ``numerical_radius`` -- extremal-eigenvalue sweep over a rotation angle
  with golden-section refinement, and
* ``joint_spectrum`` -- joint eigenvalues of a commuting pair through
  simultaneous unitary triangularization.
"""

from __future__ import annotations

import math
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
    "rotated_eigvalsh",
    "numerical_radius",
    "joint_spectrum",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances and sweep-grid sizes.

    ``psd_tol`` controls positivity acceptance (a Hermitian matrix H is
    accepted as PSD iff its smallest eigenvalue is at least
    ``-psd_tol * (1 + ||H||)``), ``rank_tol`` is the eigenvalue cutoff for
    rank decisions, ``residual_tol`` bounds acceptable equation residuals,
    and the two grid sizes control the angular/radial resolution of
    parameter sweeps over the closed unit disc.
    """

    psd_tol: float = 1e-9
    rank_tol: float = 1e-10
    residual_tol: float = 1e-8
    grid_angular: int = 1024
    grid_radial: int = 21

    def __post_init__(self):
        tols = (self.psd_tol, self.rank_tol, self.residual_tol)
        if not all(0 <= t < math.inf for t in tols):
            raise ValueError("tolerances must be finite and nonnegative")
        if min(self.grid_angular, self.grid_radial) < 2:
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
    """Largest singular value; 0 for an empty matrix."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def spectral_radius(m: np.ndarray) -> float:
    m = require_square(as_matrix(m))
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def rotated_eigvalsh(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Eigenvalues of w A + conj(w) A* for each unimodular w, ascending.

    Batched over a 1-d array ``w``: the result has shape (len(w), n).
    With Y = w A the matrix is Y + Y*, since conj(w) conj(a) rounds to
    the exact conjugate of w a; it is Hermitian entry by entry.  The
    product is taken on flattened rows: numpy rounds a complex product
    whose operands have only unit dimensions differently (the 1 x 1
    case at a single w), and rows give the bits of ``w * A`` for every
    size.
    """
    n = a.shape[0]
    y = (w[:, None] * a.reshape(1, -1)).reshape(-1, n, n)
    return np.linalg.eigvalsh(y + np.conj(y.transpose(0, 2, 1)))


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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, width_tol: float = 1e-12) -> float:
    """Golden-section maximization; returns the best value seen."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best = max(f1, f2)
    for _ in range(200):
        if hi - lo <= width_tol:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = fn(x1)
        best = max(best, f1, f2)
    return best


def numerical_radius(a, tol: Tolerances = DEFAULT_TOL) -> float:
    """Numerical radius via an angular sweep with local refinement.

    Maximizes lambda_max((e^{i theta} A + e^{-i theta} A*)/2) on a uniform
    grid of ``tol.grid_angular`` angles, then refines around the best
    bracket by golden-section search.  The result dominates every sampled
    grid value, so it is exact for matrices whose rotated Hermitian part
    has constant top eigenvalue.
    """
    a = require_square(as_matrix(a))
    n = a.shape[0]
    if n == 0 or not a.any():
        return 0.0
    thetas = np.linspace(0.0, 2.0 * math.pi, tol.grid_angular, endpoint=False)
    vals = 0.5 * rotated_eigvalsh(a, np.exp(1j * thetas))[:, -1]
    k = int(np.argmax(vals))
    spacing = 2.0 * math.pi / tol.grid_angular

    def objective(t: float) -> float:
        return float(0.5 * rotated_eigvalsh(a, np.exp([1j * t]))[0, -1])

    refined = _golden_max(objective, thetas[k] - spacing, thetas[k] + spacing)
    return max(float(vals[k]), refined, 0.0)


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
