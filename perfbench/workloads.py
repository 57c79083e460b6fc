"""The three benchmark workloads: seeded inputs, one item, its output check.

A workload holds one PCG64 stream seeded by ``--seed``; ``extend(n)``
generates and validates ``n`` more items from it (set-up, never timed as
item work).  Items are generated in order, so item ``k`` is the same
whatever the pool size.  Sizes follow a cycle that does not depend on
the seed: every ``period`` items hold the same matrix dimensions, and
the seed changes only the entries.  The benchmark measures whole
periods, so runs of different length or seed see the same mix of sizes.

``item(k, tracer, parent)`` returns ``(record, ctx)``: ``record`` holds
the plain output fields compared against the stored references, and
``ctx`` the objects the traced run's probes reuse.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from symbidisc import (
    DEFAULT_TOL,
    DeterminantalVariety,
    DistinguishedStatus,
    GammaPoint,
    boundary_sample,
    build_model,
    check_gamma_contraction,
    check_gamma_isometry,
    check_pure,
    classify_distinguished,
    classify_point,
    dilation_check,
    evaluate_pair,
    make_operator_pair,
    numerical_radius,
    solve_fundamental,
    truncated_model_from_F,
    vn_report,
)
from symbidisc.generators import (
    random_fhat,
    random_matrix_polynomial,
    random_strict_pair,
    random_symmetrized_pair,
    random_unitary,
    rng_from_seed,
)
from symbidisc.varieties import boundary_rows

from tracing import NULL_TRACER

VN_M = 2048
HOLDS_RATIO = 1.0 + 1e-6
STRICT_SCALES = (0.5, 0.8, 0.95)
EMPIRICAL_STATUSES = (
    DistinguishedStatus.DISTINGUISHED_EMPIRICAL.value,
    DistinguishedStatus.INCONCLUSIVE.value,
)


# (block, level) of the model family, one per step of the 5-step size cycle:
# pair dimensions 6, 2, 15, 12 and 8, mean block 2.4 as in random_model_pair.
MODEL_SIZES = ((1, 6), (2, 1), (3, 5), (4, 3), (2, 4))


def scheduled_pair(rng: np.random.Generator, j: int):
    """Pair ``j``: the three member families in turn, sizes on a 5-step cycle.

    Symmetrized and strict pairs take dimensions 2 to 6; strict pairs of
    those dimensions take the scales 0.5, 0.8, 0.95, 0.5 and 0.8.  The
    model family is ``random_model_pair`` with its (block, level) draw
    replaced by ``MODEL_SIZES``.  Every 15 pairs therefore hold the same
    sizes and scales.
    """
    family, t = j % 3, j // 3
    if family == 0:
        return random_symmetrized_pair(rng, 2 + t % 5)
    if family == 1:
        block, level = MODEL_SIZES[t % 5]
        return truncated_model_from_F(random_fhat(rng, block), level)
    return random_strict_pair(rng, 2 + t % 5, STRICT_SCALES[t % 5 % 3])


class _Pool:
    """Seeded input stream, grown by ``extend``; ``size`` is set by the runner."""

    def __init__(self, seed: int, tracer=NULL_TRACER) -> None:
        self.rng = rng_from_seed(seed)
        self.tracer = tracer
        self.size = 0

    def extend(self, n: int) -> None:
        """Generate ``n`` more items, then re-validate their new pairs as a
        caller loading matrices would."""
        new = self.tracer.call("generators", None, self._generate, n, kind="setup")
        if new:
            self.pairs += self.tracer.call(
                "gamma_pairs.make_operator_pair", None,
                lambda: [make_operator_pair(p.S, p.P) for p in new], kind="setup")


def _vn_probes(tracer, parent, ctx, fund=None):
    """Time the layers ``vn_report`` composes, on the item's own inputs."""
    pair, poly, m = ctx["pair"], ctx["poly"], ctx["m"]
    if fund is None:
        fund = tracer.probe("fundamental.solve_fundamental", parent, solve_fundamental, pair)
        tracer.add("fundamental.defect_rank_sum", fund.defect.rank)
    tracer.probe("numerics.numerical_radius", parent, numerical_radius, fund.F)
    variety = tracer.probe("varieties.from_matrix", parent, DeterminantalVariety.from_matrix, fund.F)
    pts = tracer.probe("varieties.boundary_sample", parent, boundary_sample, variety, m)
    tracer.add("varieties.boundary_sample.points", len(pts))
    tracer.probe("von_neumann.evaluate_pair", parent, evaluate_pair, poly, pair)


def _report(tracer, parent, poly, pair, pair_id: int):
    rep = tracer.call("von_neumann.vn_report", parent, vn_report, poly, pair, m=VN_M)
    tracer.add("von_neumann.vn_report.points_evaluated", rep.sample_count)
    tracer.add("von_neumann.vn_report.refined", int(rep.m > VN_M))
    tracer.mark("von_neumann.vn_report.pairs", pair_id)
    return rep


class VnBatch(_Pool):
    """Criterion 5's shape: ten random 2x2-block polynomials per member pair."""

    name = "vn_batch"
    fields = ("holds", "ratio", "rhs")
    polys_per_pair = 10
    period = 150  # 15 pairs: one turn of the size cycle
    pool_rate = 120

    def __init__(self, seed: int, tracer=NULL_TRACER) -> None:
        super().__init__(seed, tracer)
        self.pairs, self.polys = [], []

    def _generate(self, n: int) -> list:
        new = []
        for _ in range(n // self.polys_per_pair):
            new.append(scheduled_pair(self.rng, len(self.pairs) + len(new)))
            self.polys.extend(random_matrix_polynomial(self.rng, 3, 2)
                              for _ in range(self.polys_per_pair))
        return new

    def item(self, k: int, tracer=NULL_TRACER, parent=None):
        j = k // self.polys_per_pair
        pair, poly = self.pairs[j], self.polys[k]
        rep = _report(tracer, parent, poly, pair, j)
        record = {"holds": rep.holds, "ratio": rep.ratio, "rhs": rep.rhs}
        return record, {"pair": pair, "poly": poly, "m": rep.m}

    def probe(self, parent, ctx, tracer) -> None:
        _vn_probes(tracer, parent, ctx)

    @staticmethod
    def invariant_errors(rec: dict) -> list[str]:
        errs = []
        if not rec["holds"] or not rec["ratio"] <= HOLDS_RATIO:
            errs.append(f"von Neumann inequality fails: ratio {rec['ratio']!r}")
        if not rec["rhs"] > 0:
            errs.append(f"non-positive boundary maximum {rec['rhs']!r}")
        return errs


class PairPipeline(_Pool):
    """Every verdict once per fresh pair, in the CLI's order."""

    name = "pair_pipeline"
    fields = ("is_member", "margin", "strict", "isometry", "pure", "nr",
              "holds", "ratio", "rhs", "max_residual")
    period = 15  # one turn of the size cycle
    pool_rate = 24

    def __init__(self, seed: int, tracer=NULL_TRACER) -> None:
        super().__init__(seed, tracer)
        self.pairs, self.polys = [], []

    def _generate(self, n: int) -> list:
        new = []
        for _ in range(n):
            new.append(scheduled_pair(self.rng, len(self.pairs) + len(new)))
            self.polys.append(random_matrix_polynomial(self.rng, 3, 2))
        return new

    def item(self, k: int, tracer=NULL_TRACER, parent=None):
        tol = DEFAULT_TOL
        pair, poly = self.pairs[k], self.polys[k]
        # check
        verdict = tracer.call("gamma_pairs.check_gamma_contraction", parent,
                              check_gamma_contraction, pair)
        tracer.add("gamma_pairs.check_gamma_contraction.grid_points",
                   tol.grid_angular * tol.grid_radial)
        iso = tracer.call("gamma_pairs.check_gamma_isometry", parent, check_gamma_isometry, pair)
        pure = (tracer.call("gamma_pairs.check_pure", parent, check_pure, pair.P)
                if pair.p_norm <= 1.0 + tol.psd_tol else False)
        # fundop
        fund = tracer.call("fundamental.solve_fundamental", parent, solve_fundamental,
                           pair, contraction_verified=verdict.is_member)
        tracer.add("fundamental.defect_rank_sum", fund.defect.rank)
        # vn
        rep = _report(tracer, parent, poly, pair, k)
        # model
        max_residual = bound = None
        if pure:
            model = tracer.call("model_theory.build_model", parent, build_model, pair)
            tracer.add("model_theory.build_model.level_sum", model.N)
            drep = tracer.call("model_theory.dilation_check", parent, dilation_check,
                               model, pair, 3, 3)
            max_residual, bound = drep.max_residual, drep.bound
        record = {
            "is_member": verdict.is_member, "margin": verdict.margin,
            "strict": verdict.margin > tol.psd_tol, "isometry": iso.is_member,
            "pure": pure, "nr": fund.nr, "holds": rep.holds, "ratio": rep.ratio,
            "rhs": rep.rhs, "max_residual": max_residual, "bound": bound,
        }
        return record, {"pair": pair, "poly": poly, "m": rep.m, "fund": fund}

    def probe(self, parent, ctx, tracer) -> None:
        _vn_probes(tracer, parent, ctx, fund=ctx["fund"])

    @staticmethod
    def invariant_errors(rec: dict) -> list[str]:
        errs = []
        if not rec["is_member"]:
            errs.append("generated member pair rejected by the pencil sweep")
        if not rec["nr"] <= 1.0 + DEFAULT_TOL.psd_tol:
            errs.append(f"fundamental operator radius {rec['nr']!r} above 1")
        if not rec["holds"] or not rec["ratio"] <= HOLDS_RATIO:
            errs.append(f"von Neumann inequality fails: ratio {rec['ratio']!r}")
        if rec["pure"] and not rec["max_residual"] <= rec["bound"] + 1e-10:
            errs.append(f"dilation residual {rec['max_residual']!r} above its bound")
        return errs


VARIETY_BRANCHES = ("certified", "planted", "certified", "empirical")


def scheduled_matrix(rng: np.random.Generator, k: int) -> np.ndarray:
    """Matrix ``k``: branches 2:1:1 in turn, dimension 2-6 on a fixed cycle.

    ``certified``: numerical radius drawn in [0.2, 0.95];
    ``planted``: a unimodular eigenvalue under a random unitary change of basis;
    ``empirical``: rescaled to numerical radius exactly 1.
    """
    branch, n = VARIETY_BRANCHES[k % 4], 2 + (k // 4) % 5
    if branch == "planted":
        tri = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        diag = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        diag[0] = np.exp(1j * rng.uniform(0, 2 * np.pi))
        u = random_unitary(rng, n)
        return u.conj().T @ (np.diag(diag) + 0.3 * tri) @ u
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    target = rng.uniform(0.2, 0.95) if branch == "certified" else 1.0
    return a * (target / numerical_radius(a))


class VarietyClassify(_Pool):
    """Variety construction, distinguished-boundary verdict and tagged rows."""

    name = "variety_classify"
    fields = ("nr", "status", "s_margin", "rows", "tags")
    period = 20  # one turn of the branch and dimension cycle
    pool_rate = 75
    angles = 256
    sample = 512

    def __init__(self, seed: int, tracer=NULL_TRACER) -> None:
        super().__init__(seed, tracer)
        self.mats = []

    def _generate(self, n: int) -> list:
        self.mats.extend(scheduled_matrix(self.rng, len(self.mats)) for _ in range(n))
        return []

    def item(self, k: int, tracer=NULL_TRACER, parent=None):
        variety = tracer.call("varieties.from_matrix", parent,
                              DeterminantalVariety.from_matrix, self.mats[k])
        verdict = tracer.call("varieties.classify_distinguished", parent,
                              classify_distinguished, variety, m=self.angles)
        status = verdict.status.value
        tracer.add("varieties.classify_distinguished.empirical", int(status in EMPIRICAL_STATUSES))
        rows = tracer.call("varieties.boundary_rows", parent, boundary_rows, variety, self.sample)
        tracer.add("varieties.boundary_rows.rows", len(rows))
        tags = Counter(r.tag.value for r in rows)
        record = {"nr": variety.nr, "status": status, "s_margin": verdict.s_margin,
                  "rows": len(rows), "tags": dict(sorted(tags.items())),
                  "branch": VARIETY_BRANCHES[k % 4], "dim": variety.dim}
        return record, {"rows": rows}

    def probe(self, parent, ctx, tracer) -> None:
        rows = ctx["rows"]
        tracer.probe("geometry.classify_point", parent,
                     lambda: [classify_point(GammaPoint(r.s, r.p)) for r in rows])
        tracer.add("geometry.classify_point.calls", len(rows))

    @staticmethod
    def invariant_errors(rec: dict) -> list[str]:
        errs = []
        branch, status = rec["branch"], rec["status"]
        if rec["rows"] != rec["dim"] * VarietyClassify.sample:
            errs.append(f"{rec['rows']} boundary rows for dimension {rec['dim']}")
        if branch == "certified":
            if status != DistinguishedStatus.DISTINGUISHED_CERTIFIED.value:
                errs.append(f"radius below one classified {status}")
            elif not rec["s_margin"] > 0:
                errs.append(f"certified variety without margin: {rec['s_margin']!r}")
            if not set(rec["tags"]) <= {"BGAMMA_NOT_BDGAMMA", "BDGAMMA"}:
                errs.append(f"certified variety leaves the distinguished boundary: {rec['tags']}")
        elif branch == "planted":
            if status != DistinguishedStatus.NOT_DISTINGUISHED_CERTIFIED.value:
                errs.append(f"planted unimodular eigenvalue classified {status}")
        elif status not in EMPIRICAL_STATUSES:
            errs.append(f"radius-one variety classified {status}")
        return errs


WORKLOADS = {w.name: w for w in (VnBatch, PairPipeline, VarietyClassify)}
