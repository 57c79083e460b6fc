"""Commuting operator pairs and their contraction certificates.

The central object is the Hermitian pencil

    rho(S, P) = 2(I - P*P) - (S - S*P) - (S* - P*S),

which is positive semidefinite at every disc parameter alpha (applied to
the scaled pair (alpha S, alpha^2 P)) exactly when the pair has the
closed symmetrized bidisc as a spectral set.  Positivity is certified on
a polar grid over the closed unit disc; the verdicts are therefore
grid-certified, not continuum proofs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .geometry import ON_BGAMMA, classify_points
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    joint_spectrum,
    operator_norm,
    require_commuting,
    require_square,
    spectral_radius,
)

__all__ = [
    "OperatorPair",
    "PairVerdict",
    "PencilWitness",
    "NoSquareRootError",
    "NonCommutingRootError",
    "make_operator_pair",
    "rho_pencil",
    "check_gamma_contraction",
    "strictness_constant",
    "check_gamma_isometry",
    "check_pure",
    "symmetrize_pair",
    "desymmetrize_pair",
]


class NoSquareRootError(ValueError):
    """S^2 - 4P admits no square root (e.g. defective nilpotent block)."""


class NonCommutingRootError(ValueError):
    """The principal square root exists but fails to commute with S and P."""


@dataclass(frozen=True)
class OperatorPair:
    """A commuting pair (S, P) with cached commutator defect and norms."""

    S: np.ndarray
    P: np.ndarray
    commutator_defect: float
    s_norm: float
    p_norm: float

    @property
    def dim(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True)
class PencilWitness:
    """Disc parameter and unit eigenvector attaining a sweep margin."""

    alpha: complex
    vector: np.ndarray
    lambda_min: float


@dataclass(frozen=True)
class PairVerdict:
    is_member: bool
    margin: float
    witness: Optional[PencilWitness] = None


def make_operator_pair(s, p, tol: Tolerances = DEFAULT_TOL) -> OperatorPair:
    """Validate shapes, finiteness and commutation, then build the pair."""
    s = require_square(as_matrix(s), "S")
    p = require_square(as_matrix(p), "P")
    if s.shape != p.shape:
        raise ValueError(f"shape mismatch: S {s.shape} vs P {p.shape}")
    if s.shape[0] == 0:
        raise ValueError("pair must have positive dimension")
    ns, np_, defect = require_commuting(s, p, tol, ("S", "P"))
    return OperatorPair(s.copy(), p.copy(), defect, ns, np_)


def rho_pencil(pair: OperatorPair) -> np.ndarray:
    """2(I - P*P) - (S - S*P) - (S* - P*S), symmetrized on return."""
    return _pencil_stack(pair.S, pair.P, np.ones(1))[0]


def _pencil_stack(s: np.ndarray, p: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """rho(alpha S, alpha^2 P) stacked along the first axis.

    Expanding the pencil at the scaled pair gives, with r = |alpha|,

        2 I - 2 r^4 P*P - (alpha S + conj(alpha) S*)
            + r^2 (alpha S*P + conj(alpha) P*S),

    which is assembled vectorized over alpha.
    """
    n = s.shape[0]
    a = alphas.reshape(-1, 1, 1)
    r2 = (np.abs(alphas) ** 2).reshape(-1, 1, 1)
    sh = s.conj().T
    mpp = p.conj().T @ p
    msp = sh @ p
    out = (
        2.0 * np.eye(n)
        - 2.0 * r2**2 * mpp
        - (a * s + np.conj(a) * sh)
        + r2 * (a * msp + np.conj(a) * msp.conj().T)
    )
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


def _disc_grid(tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    radii = np.linspace(0.0, 1.0, tol.grid_radial)
    thetas = np.linspace(0.0, 2.0 * math.pi, tol.grid_angular, endpoint=False)
    return radii, np.exp(1j * thetas)


def check_gamma_contraction(
    pair: OperatorPair, tol: Tolerances = DEFAULT_TOL
) -> PairVerdict:
    """Grid-certified test that the closed symmetrized bidisc is a spectral set.

    Evaluates the pencil at every alpha of the polar grid over the closed
    unit disc (radius 1 included).  ``margin`` is the smallest sampled
    eigenvalue and the witness records where it is attained.  The sweep
    walks radius by radius to keep the batched eigenvalue problems at a
    bounded memory footprint; the min-reduction order is deterministic.
    """
    radii, phases = _disc_grid(tol)
    margin = math.inf
    best_alpha = 0j
    all_psd = True
    for r in radii:
        alphas = r * phases
        lam = np.linalg.eigvalsh(_pencil_stack(pair.S, pair.P, alphas))
        lmin = lam[:, 0]
        scale = 1.0 + np.max(np.abs(lam), axis=1)
        if np.any(lmin < -tol.psd_tol * scale):
            all_psd = False
        k = int(np.argmin(lmin))
        if float(lmin[k]) < margin:
            margin = float(lmin[k])
            best_alpha = complex(alphas[k])
    lam, vec = np.linalg.eigh(
        _pencil_stack(pair.S, pair.P, np.array([best_alpha]))[0]
    )
    witness = PencilWitness(best_alpha, vec[:, 0], float(lam[0]))
    return PairVerdict(all_psd, margin, witness)


def strictness_constant(pair: OperatorPair, tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest pencil eigenvalue over the closed-disc grid.

    The pair is strict exactly when the returned constant exceeds
    ``psd_tol``.
    """
    return check_gamma_contraction(pair, tol).margin


def check_gamma_isometry(
    pair: OperatorPair, tol: Tolerances = DEFAULT_TOL
) -> PairVerdict:
    """Test the isometric-pair characterization.

    Accepts iff P is an isometry, S = S*P and the spectral radius of S is
    at most 2 (within tolerances).  In finite dimensions an accepted pair
    is normal with joint spectrum on the distinguished boundary, which is
    verified as a consistency check on the joint eigenvalues.  The margin
    is the negative of the worst residual.
    """
    s, p = pair.S, pair.P
    eye = np.eye(pair.dim)
    res_iso = operator_norm(p.conj().T @ p - eye)
    res_sym = operator_norm(s - s.conj().T @ p)
    rs = spectral_radius(s) if pair.dim else 0.0
    worst = max(res_iso, res_sym, max(0.0, rs - 2.0))
    ok = (
        res_iso <= tol.residual_tol
        and res_sym <= tol.residual_tol
        and rs <= 2.0 + tol.psd_tol
    )
    if ok and pair.dim:
        # Fiber-root extraction halves precision near coincident roots, so
        # the band for this consistency check is widened beyond psd_tol.
        band = replace(tol, psd_tol=max(tol.psd_tol, 1e-6))
        sv, pv = np.array(joint_spectrum(s, p, tol)).T
        ok = bool(ON_BGAMMA[classify_points(sv, pv, band)].all())
    return PairVerdict(ok, -worst)


def check_pure(p, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Finite-dimensional purity test for a contraction.

    True iff the spectral radius is below 1 - rank_tol, or some power
    P^n with n <= 512 (computed by repeated squaring) has norm <= 1e-8.
    """
    p = require_square(as_matrix(p), "P")
    if operator_norm(p) > 1.0 + tol.psd_tol:
        raise ValueError("P is not a contraction within tolerance")
    if p.shape[0] == 0:
        return True
    if spectral_radius(p) <= 1.0 - tol.rank_tol:
        return True
    q = p.copy()
    if operator_norm(q) <= 1e-8:
        return True
    for _ in range(9):  # powers 2, 4, ..., 512
        q = q @ q
        if operator_norm(q) <= 1e-8:
            return True
    return False


def symmetrize_pair(t1, t2, tol: Tolerances = DEFAULT_TOL) -> OperatorPair:
    """Pair (T1 + T2, T1 T2) built from two commuting contractions."""
    t1 = require_square(as_matrix(t1), "T1")
    t2 = require_square(as_matrix(t2), "T2")
    if t1.shape != t2.shape:
        raise ValueError(f"shape mismatch: {t1.shape} vs {t2.shape}")
    n1, n2, _ = require_commuting(t1, t2, tol, ("T1", "T2"))
    if max(n1, n2) > 1.0 + tol.psd_tol:
        raise ValueError("inputs must be contractions within tolerance")
    return make_operator_pair(t1 + t2, t1 @ t2, tol)


def desymmetrize_pair(
    pair: OperatorPair, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Split (S, P) as (T1 + T2, T1 T2) through a commuting square root.

    Computes the principal (Schur-based) square root R of S^2 - 4P and
    returns ((S + R)/2, (S - R)/2) after verifying that R commutes with
    S and P and that the product round-trips.  Success is sufficient but
    not necessary: a non-principal commuting root may exist when the
    principal branch fails, and no such search is attempted.  The factors
    commute but need not be contractions.
    """
    s, p = pair.S, pair.P
    m = s @ s - 4.0 * p
    nm = operator_norm(m)
    if nm == 0.0:
        root = np.zeros_like(m)
    else:
        # A singular S^2 - 4P draws a LinAlgWarning; the residual check
        # below decides whether the root is usable.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            root = scipy.linalg.sqrtm(m)
    if not np.all(np.isfinite(root)) or operator_norm(root @ root - m) > tol.residual_tol * (
        1.0 + nm
    ):
        raise NoSquareRootError(
            "S^2 - 4P has no square root on the principal branch"
        )
    try:
        require_commuting(root, s, tol, ("R", "S"))
        require_commuting(root, p, tol, ("R", "P"))
    except ValueError as exc:
        raise NonCommutingRootError(f"principal root R: {exc}") from exc
    t1 = 0.5 * (s + root)
    t2 = 0.5 * (s - root)
    if operator_norm(t1 @ t2 - p) > tol.residual_tol * (1.0 + pair.p_norm):
        raise NonCommutingRootError("factor product fails to reproduce P")
    return t1, t2
