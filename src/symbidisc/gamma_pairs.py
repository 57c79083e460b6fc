"""Commuting operator pairs and their contraction certificates.

The pair (S, P) has the closed symmetrized bidisc as a spectral set
exactly when the Hermitian pencil

    rho(S, P) = Y + Y*,    Y = (I - P*P) - (S - S*P),

is positive semidefinite at every scaled pair (alpha S, alpha^2 P),
|alpha| <= 1.  For r(S) < 2, Phi(alpha) = (2 alpha P - S)(2 - alpha S)^-1
is analytic on the closed disc, and on |alpha| = 1 (Agler-Young)

    rho(alpha S, alpha^2 P) = 1/2 (2 - alpha S)* (I - Phi* Phi)(2 - alpha S),

so by the maximum principle the unit circle together with r(S) <= 2
decides membership.  Positivity is tested on sampled phases of the
circle: the verdicts are grid verdicts, not continuum proofs.  The
verdict, margin and witness are those of a solve at every sampled phase,
bit for bit, but ``check_gamma_contraction`` solves, in two batches,
only the phases that the concavity of the pencil's smallest eigenvalue
in w cannot exclude from the grid minimum, and drops indices on which
the pencil vanishes exactly.

Each verdict on a pair reads what the others read, solved once: the pair
holds C = I - P*P, B = S - S*P and r(S) for its lifetime, each from its
own first read (``OperatorPair``), and ``defect_operator`` holds the
split of the last read-only matrix it was given, keyed by its identity
and ``tol``.  Held values go stale if S or P is made writeable and
changed in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    circle_pencils,
    operator_norm,
    phase_grid,
    require_commuting,
    require_square,
    spectral_radius,
)

__all__ = [
    "DefectData",
    "OperatorPair",
    "PairVerdict",
    "PencilWitness",
    "defect_operator",
    "make_operator_pair",
    "check_gamma_contraction",
    "check_gamma_isometry",
    "check_pure",
    "symmetrize_pair",
]


def _held_product(x: np.ndarray) -> np.ndarray:
    """``x`` read-only; ``ValueError`` when it overflowed."""
    if not np.isfinite(x).all():
        raise ValueError("I - P*P or S - S*P overflows: no verdict on the pair holds")
    x.flags.writeable = False
    return x


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """A commuting pair (S, P) with cached commutator defect and norms; it
    takes ownership of S and P, makes them read-only and compares by identity.

    What every verdict on the pair reads is solved on first read and held
    by the pair, each on its own: ``C`` = I - P*P and ``B`` = S - S*P, with
    rho(w S, w^2 P) = Y + Y*, Y = C - w B; and ``s_radius`` r(S).  An error
    is not held.  Pickle and copy carry none of them, and they go stale if S
    or P is made writeable and changed in place.  S or P that does not own
    its data, such as an array unpickled under protocol 5, which views the
    pickle's buffer, is copied first, so that the pair owns both.
    """

    S: np.ndarray
    P: np.ndarray
    commutator_defect: float
    s_norm: float
    p_norm: float

    def __post_init__(self):
        for name in ("S", "P"):
            a = getattr(self, name)
            if not a.flags.owndata:
                object.__setattr__(self, name, a.copy())
        self.S.flags.writeable = self.P.flags.writeable = False

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, so the copy's
        # arrays are read-only too, the copy is a new object, and nothing
        # held is carried over
        return type(self), (self.S, self.P, self.commutator_defect, self.s_norm, self.p_norm)

    @property
    def dim(self) -> int:
        return self.S.shape[0]

    @cached_property
    def C(self) -> np.ndarray:
        """I - P*P, read-only; ``ValueError`` when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _held_product(np.eye(self.dim) - self.P.conj().T @ self.P)

    @cached_property
    def B(self) -> np.ndarray:
        """S - S*P, read-only; ``ValueError`` when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _held_product(self.S - self.S.conj().T @ self.P)

    @cached_property
    def s_radius(self) -> float:
        """r(S), the spectral radius of S."""
        return spectral_radius(self.S)


@dataclass(frozen=True)
class DefectData:
    """Defect operator of a contraction together with a defect-space basis.

    ``D`` is the PSD square root of I - P*P on the full space, ``basis``
    holds orthonormal eigenvector columns spanning the defect space
    (eigenvalues of I - P*P above ``rank_tol``), ``kernel`` the remaining
    eigenvectors, and ``eigenvalues`` are all eigenvalues of I - P*P,
    ascending and clamped at 0, so the kept ones are the last ``rank``.

    ``unitary`` is an orthonormal basis of the unitary part of P (n x 0
    when P is pure): the common null space of U* P^k, U = ``basis``, inside
    the span K of ``kernel`` under the same cut, sum_k ||U* P^k x||^2 <=
    ``rank_tol`` ||x||^2.  P is isometric, so in finite dimension unitary,
    on this invariant subspace, which reduces P; k <= dim K suffices, as the
    null spaces shrink until two agree and stay fixed after.
    """

    D: np.ndarray
    basis: np.ndarray
    rank: int
    eigenvalues: np.ndarray
    kernel: np.ndarray
    unitary: np.ndarray

    def __post_init__(self):
        for a in (self.D, self.basis, self.eigenvalues, self.kernel, self.unitary):
            a.flags.writeable = False


@dataclass(frozen=True)
class PencilWitness:
    """Circle phase and unit eigenvector attaining a sweep margin."""

    alpha: complex
    vector: np.ndarray
    lambda_min: float


@dataclass(frozen=True)
class PairVerdict:
    is_member: bool
    margin: float
    witness: Optional[PencilWitness] = None


def make_operator_pair(s, p, tol: Tolerances = DEFAULT_TOL) -> OperatorPair:
    """Validate shapes, finiteness and commutation, then build the pair on copies."""
    s = require_square(as_matrix(s), "S")
    p = require_square(as_matrix(p), "P")
    if s.shape != p.shape:
        raise ValueError(f"shape mismatch: S {s.shape} vs P {p.shape}")
    if s.shape[0] == 0:
        raise ValueError("pair must have positive dimension")
    ns, np_, defect = require_commuting(s, p, tol, ("S", "P"))
    return OperatorPair(s.copy(), p.copy(), defect, ns, np_)


# The last split of a read-only matrix that owns its data, as (p, tol,
# split), or nothing.  The entry holds p, so its identity is not reused
# while the split is held.
_SPLITS: list[tuple[np.ndarray, Tolerances, DefectData]] = []


def defect_operator(p, tol: Tolerances = DEFAULT_TOL) -> DefectData:
    """Defect operator and split of a contraction (see ``DefectData``); its
    arrays are read-only.

    The split of a read-only ``p`` that owns its data, such as the P of an
    ``OperatorPair``, is held, keyed by the identity of ``p`` and by
    ``tol``, for the last such matrix: ``check_pure``,
    ``check_gamma_isometry``, ``solve_fundamental`` and ``build_model`` then
    solve it once per pair.  A held split goes stale if ``p`` is made
    writeable and changed in place.  Any other ``p`` is split afresh; an
    error is not held.
    """
    held = isinstance(p, np.ndarray) and p.flags.owndata and not p.flags.writeable
    if held and _SPLITS and _SPLITS[0][0] is p and _SPLITS[0][1] == tol:
        return _SPLITS[0][2]
    dd = _split(p, tol)
    if held:
        _SPLITS[:] = [(p, tol, dd)]
    return dd


def _split(p, tol: Tolerances) -> DefectData:
    p = require_square(as_matrix(p), "P")
    if operator_norm(p) > 1.0 + tol.psd_tol:
        raise ValueError("P is not a contraction within tolerance")
    n = p.shape[0]
    g = np.eye(n) - p.conj().T @ p
    g = 0.5 * (g + g.conj().T)
    lam, u = np.linalg.eigh(g) if n else (np.zeros(0), np.zeros((0, 0)))
    lam = np.clip(lam, 0.0, None)
    d = (u * np.sqrt(lam)) @ u.conj().T
    basis, kernel = u[:, lam > tol.rank_tol], u[:, lam <= tol.rank_tol]
    unitary = np.zeros((n, 0), dtype=complex)
    if kernel.shape[1]:
        rows = basis.conj().T @ p
        gram = np.zeros((kernel.shape[1],) * 2, dtype=complex)
        for _ in range(kernel.shape[1]):
            block = rows @ kernel
            gram += block.conj().T @ block
            rows = rows @ p
        mu, y = np.linalg.eigh(gram)
        unitary = kernel @ y[:, mu <= tol.rank_tol]
    return DefectData(d, basis, basis.shape[1], lam, kernel, unitary)


# Evenly spread phases that ``check_gamma_contraction`` solves first
_COARSE_PHASES = 32


@lru_cache(maxsize=1)
def _chord_geometry(m: int) -> tuple[np.ndarray, ...]:
    """The first batch of an m-phase sweep, min(m, ``_COARSE_PHASES``)
    evenly spread phases k m // 32, and, for each of the m phases t, the
    gap (lo, hi) of the batch that holds it, the last gap wrapping round to
    hi = m: the indices lo and hi mod m, the chord weight tau and the
    sagitta (``check_gamma_contraction``), all read-only.  With
    c = pi / m, t lies at the angle alpha = c (2t - lo - hi) from its gap's
    bisector, and d / 2 = c (hi - lo)."""
    coarse = np.arange(min(m, _COARSE_PHASES)) * m // min(m, _COARSE_PHASES)
    ends = np.append(coarse[1:], m)
    gap = np.repeat(np.arange(coarse.size), ends - coarse)
    lo, hi = coarse[gap], ends[gap]
    t = np.arange(m)
    c = math.pi / m
    alpha = c * (2 * t - lo - hi)
    tau = 0.5 * (1.0 + np.tan(alpha) / np.tan(c * (hi - lo)))
    sagitta = 2.0 * np.sin(c * (t - lo)) * np.sin(c * (hi - t)) / np.cos(alpha)
    held = (coarse, lo, hi % m, tau, sagitta)
    for a in held:
        a.flags.writeable = False
    return held


def check_gamma_contraction(
    pair: OperatorPair, tol: Tolerances = DEFAULT_TOL
) -> PairVerdict:
    """Grid test that the closed symmetrized bidisc is a spectral set.

    The PSD test of rho(w S, w^2 P) over the ``grid_angular`` phases w of
    the unit circle.  Accepts when r(S) <= 2 + ``psd_tol`` and every
    phase passes the PSD test (the circle criterion of the module
    docstring).  ``margin`` is the minimum over the sampled circle, and
    the pair is strict exactly when it exceeds ``psd_tol``: positivity on
    the whole circle forces r(S) < 2, since at a joint eigenvalue (s, p)
    it gives |s - conj(s) p| < 1 - |p|^2.  The witness is the first phase
    within 64 ulps x (1 + max |eigenvalue| there) of the margin, so
    rounding-level ties do not move it.

    The verdict, margin and witness are those of a solve at every phase,
    bit for bit, but only phases that may hold the grid minimum are
    solved, in two batched eigensolves.  An index whose row and column
    vanish exactly in both C = I - P*P and B = S - S*P carries the
    eigenvalue 0 at every phase, so the pencil is solved on the other
    indices and 0 joins each phase's minimum.

    *The bound.*  H(w) = 2C - w B - conj(w) B* is real-affine in w, so
    f(w) = lambda_min(H(w)) is concave on the plane, and by Weyl
    |f(w) - f(w')| <= 2 ||B|| |w - w'|.  The first batch is
    min(m, ``_COARSE_PHASES``) evenly spread phases, k m // 32; they cut
    the circle into gaps (lo, hi) of arc d < pi.  A phase t inside a gap,
    at the angle alpha from its bisector, lies on the ray through the
    point z = (1 - tau) w_lo + tau w_hi of the chord, with
    tau = (1 + tan alpha / tan(d/2)) / 2 and |w_t - z| the sagitta
    1 - cos(d/2) / cos alpha, computed without cancellation as
    2 sin(c (t - lo)) sin(c (hi - t)) / cos alpha, c = pi / m.  So
    f(w_t) >= (1 - tau) f(w_lo) + tau f(w_hi) - 2 ||B|| (sagitta), a
    bound second order in d (``_chord_geometry``).  The second batch solves
    every phase whose bound is at most the larger of the first batch's
    margin and -``psd_tol``, plus the allowance
    (128 + 32 n) eps (1 + 2 ||C|| + 2 ||B||), n the number of indices
    left.  In units of eps (1 + 2 ||C|| + 2 ||B||), which bounds ||H||:

    - 64 cover the witness tie rule, whose scale is at most that;
    - 16 n at each end of the gap, and 16 n at t, cover the rounding of
      the pencil, of ``eigvalsh`` and of the two norms; the weights of the
      ends sum to 1, so 32 n in all;
    - 64 cover the rounding of the bound, of which it needs 40.  The
      computed phases lie within 12 eps of e^(2 pi i k / m), which moves
      w_t and z by at most 24 eps, at 2 ||B|| per unit: 24.  tau is off by
      at most 4 eps, which moves z along a chord of length at most 2: 8;
      for an unsolved t, |alpha| <= d/2 - pi / m, so tau lies in (0, 1)
      by far more.  The sagitta, below 1, is formed from exact integer
      multiples of c to within 5 eps, and the interpolation takes a few
      roundings of values below ||H||: 8.

    Where indices were dropped and the margin lies within the allowance
    of 0, an unsolved phase reads 0 and may meet the tie rule, so every
    phase before the witness is solved as well, with one batch more if
    the second batch moves the witness past unsolved phases.  An unsolved
    phase thus neither holds the margin, nor comes before the witness
    within the tie rule, nor fails the PSD test.  The witness is one
    ``eigh`` of the full pencil at its phase.
    """
    c, b = pair.C, pair.B
    m = tol.grid_angular
    theta = phase_grid(m)
    live = np.flatnonzero(c.any(0) | c.any(1) | b.any(0) | b.any(1))
    decoupled = live.size < pair.dim
    c_live, b_live = c[np.ix_(live, live)], b[np.ix_(live, live)]
    norm_c, norm_b = operator_norm(c_live), operator_norm(b_live)
    eps = np.finfo(float).eps
    allowance = (128 + 32 * live.size) * eps * (1.0 + 2.0 * norm_c + 2.0 * norm_b)
    phases = np.empty(m, dtype=complex)  # e^(i theta), at solved phases only
    low = np.empty(m)  # lambda_min of the pencil on the live indices
    scale = np.empty(m)
    done = np.zeros(m, dtype=bool)

    def solve(idx: np.ndarray) -> None:
        phases[idx] = np.exp(1j * theta[idx])
        lam = np.linalg.eigvalsh(circle_pencils(-b_live, phases[idx], c_live))
        low[idx] = lam[:, 0] if live.size else math.inf
        scale[idx] = 1.0 + np.abs(lam).max(axis=1, initial=0.0)
        done[idx] = True

    def ties(solved: np.ndarray) -> tuple[np.ndarray, float, int]:
        # each solved phase's minimum, the margin, and the witness's place
        lmin = np.minimum(low[solved], 0.0) if decoupled else low[solved]
        margin = float(lmin.min())
        return lmin, margin, int(np.argmax(lmin <= margin + 64 * eps * scale[solved]))

    coarse, lo, hi, tau, sagitta = _chord_geometry(m)
    solve(coarse)
    solved = coarse
    lmin, margin, first = ties(solved)
    marks = np.zeros(m, dtype=bool)
    if live.size and coarse.size < m:
        # with no live index every phase reads 0, and the witness is phase 0
        bound = (1.0 - tau) * low[lo] + tau * low[hi] - 2.0 * norm_b * sagitta
        marks = bound <= max(margin, -tol.psd_tol) + allowance
    while True:
        if decoupled and margin + allowance >= 0.0:
            # an unsolved phase reads 0 and may tie before the witness
            marks[: solved[first]] = True
        marks &= ~done
        if not marks.any():
            break
        solve(np.flatnonzero(marks))
        solved = np.flatnonzero(done)
        lmin, margin, first = ties(solved)
    member = bool(np.all(lmin >= -tol.psd_tol * scale[solved])) and (
        pair.s_radius <= 2.0 + tol.psd_tol
    )
    k = int(solved[first])
    lam_k, vec = np.linalg.eigh(circle_pencils(-b, phases[k : k + 1], c)[0])
    witness = PencilWitness(complex(phases[k]), vec[:, 0], float(lam_k[0]))
    return PairVerdict(member, margin, witness)


def check_gamma_isometry(
    pair: OperatorPair, tol: Tolerances = DEFAULT_TOL
) -> PairVerdict:
    """Test the Γ-unitary characterization (Agler-Young).

    In finite dimension a Γ-isometry is Γ-unitary: P unitary, S = S*P
    and r(S) <= 2.  Accepts iff ||S - S*P|| <= ``psd_tol``,
    r(S) <= 2 + ``psd_tol``, ||P|| <= 1 + ``psd_tol`` and
    ``defect_operator`` finds defect rank 0, so that the unitary part of
    P is the whole space.  ``check_pure`` and ``lambda_variety`` read that
    split's ``unitary`` basis, so no pair is both isometric and pure.  The
    eigensolve of I - P*P runs only when the cheaper tests pass.  At a
    joint eigenvalue (s, p) with unit joint eigenvector x,
    s - conj(s) p = <x, (S - S*P) x>, so every joint eigenvalue of an
    accepted pair lies within ``psd_tol`` of the distinguished boundary.
    The margin is minus the worst of ||I - P*P||, ||S - S*P|| and
    r(S) - 2.
    """
    res_iso, res_sym = operator_norm(pair.C), operator_norm(pair.B)
    rs = pair.s_radius
    worst = max(res_iso, res_sym, max(0.0, rs - 2.0))
    ok = (
        res_sym <= tol.psd_tol
        and rs <= 2.0 + tol.psd_tol
        and pair.p_norm <= 1.0 + tol.psd_tol
        and defect_operator(pair.P, tol).rank == 0
    )
    return PairVerdict(ok, -worst)


def check_pure(p, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the unitary part of the contraction P is {0}, which in finite
    dimension means P^n -> 0: ``defect_operator(p).unitary`` has no column."""
    return defect_operator(p, tol).unitary.shape[1] == 0


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
