"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from symbidisc.fundamental import solve_fundamental, truncated_model_from_F
from symbidisc.gamma_pairs import (
    check_gamma_contraction,
    symmetrize_pair,
)
from symbidisc.generators import (
    random_commuting_contractions,
    random_fhat,
    random_matrix_polynomial,
    random_model_pair,
    random_strict_pair,
    random_symmetrized_pair,
    random_unitary,
    rng_from_seed,
)
from symbidisc.geometry import GammaPoint, RegionTag
from symbidisc.model_theory import build_model, dilation_check
from symbidisc.numerics import Tolerances, numerical_radius, operator_norm
from symbidisc.varieties import (
    BivarPolynomial,
    DeterminantalVariety,
    DistinguishedStatus,
    boundary_rows,
    classify_distinguished,
    symmetrize_bidisc_variety,
    variety_membership,
)
from symbidisc.von_neumann import vn_report

from _oracles import poly_eval_oracle


def _report(name, ok, started, budget, detail=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} ({elapsed:.1f}s / {budget:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_worked_example_reproduction():
    started = time.perf_counter()
    a = np.zeros((3, 3), complex)
    a[0, 1] = 2.0
    variety = DeterminantalVariety.from_matrix(a)
    tol = Tolerances()  # residual_tol = 1e-8
    rng = rng_from_seed(1001)

    # 500 points on the zero set s (s^2 - 4p) = 0 via its two branches
    mis = 0
    for k in range(500):
        if k % 2 == 0:
            p = 0.98 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            pt = GammaPoint(0j, p)
        else:
            z = 0.98 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            pt = GammaPoint(2 * z, z * z)
        if not variety_membership(variety, pt, tol):
            mis += 1

    # 500 points off the set, kept only with a forced distance margin
    kept = 0
    while kept < 500:
        s = 2.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        p = 1.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        margin = abs(s) * abs(s * s - 4 * p)
        if margin < 1e-3:
            continue
        kept += 1
        if variety_membership(variety, GammaPoint(s, p), tol):
            mis += 1

    radius_err = abs(variety.nr - 1.0)

    a2 = a.copy()
    a2[2, 2] = 1.0
    verdict = classify_distinguished(DeterminantalVariety.from_matrix(a2))
    example2_ok = (
        verdict.status == DistinguishedStatus.NOT_DISTINGUISHED_CERTIFIED
        and abs(verdict.witness.s - 1.0) <= 1e-9
        and verdict.witness.p == 0
    )
    ok = mis == 0 and radius_err <= 1e-6 and example2_ok
    _report(
        "1 worked-example reproduction", ok, started, 5.0,
        f"misclassified={mis}, |nr-1|={radius_err:.2e}, example2={example2_ok}",
    )


def test_criterion_2_fundamental_operator_suite():
    started = time.perf_counter()
    rng = rng_from_seed(1002)
    worst_resid, worst_nr = 0.0, 0.0
    for _ in range(200):
        pair = random_symmetrized_pair(rng, int(rng.integers(2, 7)))
        fund = solve_fundamental(pair)
        scale = 1 + pair.s_norm * (1 + pair.p_norm)
        worst_resid = max(worst_resid, fund.residual / scale)
        worst_nr = max(worst_nr, fund.nr)
    ok = worst_resid <= 1e-8 and worst_nr <= 1 + 1e-9
    _report(
        "2 fundamental-operator suite", ok, started, 30.0,
        f"max residual/scale={worst_resid:.2e}, max nr={worst_nr:.12f}",
    )


def test_criterion_3_strictness_bound():
    started = time.perf_counter()
    rng = rng_from_seed(1003)
    tol = Tolerances(grid_angular=4096)
    scales = (0.5, 0.8, 0.95)
    min_c, worst_gap = np.inf, -np.inf
    for k in range(100):
        r = scales[k % 3]
        pair = random_strict_pair(rng, int(rng.integers(2, 7)), r, tol)
        c = check_gamma_contraction(pair, tol).margin
        fund = solve_fundamental(pair, tol)
        min_c = min(min_c, c)
        worst_gap = max(worst_gap, fund.nr - (1 - c / 2))
    ok = min_c > 0 and worst_gap <= 1e-8
    _report(
        "3 strictness bound", ok, started, 60.0,
        f"min c={min_c:.3e}, max nr-(1-c/2)={worst_gap:.2e}",
    )


def test_criterion_4_converse_construction():
    started = time.perf_counter()
    rng = rng_from_seed(1004)
    tol = Tolerances(grid_angular=512)
    ok = True
    detail = ""
    worst_resid, worst_sv = 0.0, 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        levels = int(rng.integers(1, 7))
        fhat = random_fhat(rng, dim)
        pair = truncated_model_from_F(fhat, levels, tol)
        if not check_gamma_contraction(pair, tol).is_member:
            ok, detail = False, "membership check failed"
            break
        fund = solve_fundamental(pair, tol)
        worst_resid = max(worst_resid, fund.residual)
        sv_gap = np.max(
            np.abs(
                np.linalg.svd(fund.F, compute_uv=False)
                - np.linalg.svd(fhat, compute_uv=False)
            )
        )
        worst_sv = max(worst_sv, float(sv_gap))
    ok = ok and worst_resid <= 1e-10 and worst_sv <= 1e-9
    _report(
        "4 converse construction", ok, started, 20.0,
        detail or f"max residual={worst_resid:.2e}, max sv gap={worst_sv:.2e}",
    )


def test_criterion_5_von_neumann_inequality():
    started = time.perf_counter()
    rng = rng_from_seed(1005)
    scales = (0.5, 0.8, 0.95)
    pairs = []
    for k in range(100):
        pairs.append(random_symmetrized_pair(rng, int(rng.integers(2, 7))))
        pairs.append(random_model_pair(rng))
        pairs.append(random_strict_pair(rng, int(rng.integers(2, 7)), scales[k % 3]))
    violations = 0
    max_ratio = 0.0
    for pair in pairs:
        for _ in range(10):
            f = random_matrix_polynomial(rng, max_total_degree=3, block_dim=2)
            rep = vn_report(f, pair, m=2048)
            if not rep.holds:
                violations += 1
            max_ratio = max(max_ratio, rep.ratio)
    ok = violations == 0 and max_ratio <= 1 + 1e-6
    _report(
        "5 von Neumann inequality (3000 cases)", ok, started, 600.0,
        f"violations={violations}, max ratio={max_ratio:.9f}",
    )


def test_criterion_6_distinguished_classification():
    started = time.perf_counter()
    rng = rng_from_seed(1006)
    ok = True
    detail = ""
    min_margin = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= rng.uniform(0.2, 0.95) / numerical_radius(a)
        variety = DeterminantalVariety.from_matrix(a)
        verdict = classify_distinguished(variety, m=128)
        if verdict.status != DistinguishedStatus.DISTINGUISHED_CERTIFIED:
            ok, detail = False, f"expected certified, got {verdict.status}"
            break
        rows = boundary_rows(variety, 128)
        tags = {r.tag for r in rows}
        if not tags <= {RegionTag.BGAMMA_NOT_BDGAMMA, RegionTag.BDGAMMA}:
            ok, detail = False, f"boundary point off the distinguished boundary: {tags}"
            break
        min_margin = min(min_margin, verdict.s_margin)
    if ok and min_margin <= 0:
        ok, detail = False, "no positive margin to |s| = 2"
    planted_failures = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        tri = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        diag = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        diag[0] = np.exp(1j * rng.uniform(0, 2 * np.pi))
        u = random_unitary(rng, n)
        a = u.conj().T @ (np.diag(diag) + 0.3 * tri) @ u
        verdict = classify_distinguished(DeterminantalVariety.from_matrix(a))
        if verdict.status != DistinguishedStatus.NOT_DISTINGUISHED_CERTIFIED:
            planted_failures += 1
    ok = ok and planted_failures == 0
    _report(
        "6 distinguished classification", ok, started, 30.0,
        detail or f"min |s|-margin={min_margin:.3f}, planted failures={planted_failures}",
    )


def test_criterion_7_dilation_model_suite():
    started = time.perf_counter()
    rng = rng_from_seed(1007)
    ok = True
    detail = ""
    worst_residual = 0.0
    worst_nilpotent = 0.0
    for k in range(100):
        dim = int(rng.integers(2, 6))
        if k % 4 == 0:
            base = np.triu(
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 1
            )
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            t1 = c[0] * base + c[1] * base @ base
            t2 = c[2] * base + c[3] * base @ base
            n1, n2 = operator_norm(t1), operator_norm(t2)
            t1 = t1 if n1 <= 0.8 or n1 == 0 else t1 * (0.8 / n1)
            t2 = t2 if n2 <= 0.8 or n2 == 0 else t2 * (0.8 / n2)
            pair = symmetrize_pair(t1, t2)
            nilpotent = True
        else:
            t1, t2 = random_commuting_contractions(rng, dim, norm_cap=0.85)
            pair = symmetrize_pair(t1, t2)
            nilpotent = False
        model = build_model(pair)
        rep = dilation_check(model, pair, 3, 3)
        if model.tail > 1e-8:
            ok, detail = False, f"tail {model.tail:.2e} above target"
            break
        if rep.max_residual > rep.bound + 1e-10:
            ok, detail = False, (
                f"residual {rep.max_residual:.2e} above bound {rep.bound:.2e}"
            )
            break
        if nilpotent:
            worst_nilpotent = max(worst_nilpotent, rep.max_residual)
        worst_residual = max(worst_residual, rep.max_residual)
    ok = ok and worst_nilpotent <= 1e-10
    _report(
        "7 dilation/model suite", ok, started, 120.0,
        detail
        or f"max residual={worst_residual:.2e}, nilpotent max={worst_nilpotent:.2e}",
    )


def test_criterion_8_symmetric_polynomial_oracles():
    started = time.perf_counter()
    rng = rng_from_seed(1008)
    worst = 0.0

    def check(coeffs):
        nonlocal worst
        p = BivarPolynomial.from_coeffs(coeffs)
        q = symmetrize_bidisc_variety(p)
        z = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
        w = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
        want = poly_eval_oracle(np.atleast_2d(coeffs), z, w) * poly_eval_oracle(
            np.atleast_2d(coeffs).T, z, w
        )
        got = q(z + w, z * w)
        worst = max(worst, float(np.max(np.abs(got - want) / (1 + np.abs(want)))))

    check(np.array([[0, -1], [1, 0]], dtype=complex))  # z - w, the s^2 = 4p case
    for _ in range(50):
        dz, dw = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        c = rng.standard_normal((dz + 1, dw + 1)) + 1j * rng.standard_normal(
            (dz + 1, dw + 1)
        )
        check(c)
    ok = worst <= 1e-10
    _report(
        "8 symmetric-polynomial oracles", ok, started, 10.0,
        f"max relative error={worst:.2e}",
    )
