import csv
import json
from pathlib import Path

import numpy as np
import pytest

from symbidisc.geometry import GammaPoint, RegionTag, classify_point, point_roots
from symbidisc.numerics import Tolerances, numerical_radius
from symbidisc import varieties
from symbidisc.varieties import (
    BivarPolynomial,
    DeterminantalVariety,
    DistinguishedStatus,
    boundary_rows,
    boundary_sample,
    classify_distinguished,
    fiber_at_p,
    symmetrize_bidisc_variety,
    variety_membership,
    write_boundary_csv,
)

from _oracles import poly_eval_oracle


def example_one_matrix():
    a = np.zeros((3, 3), complex)
    a[0, 1] = 2.0
    return a


def example_two_matrix():
    a = example_one_matrix()
    a[2, 2] = 1.0
    return a


def _rand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestMembership:
    def test_zero_branch_point(self):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        assert variety_membership(v, GammaPoint(0, 0.3))

    def test_parabola_branch_point(self):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        assert variety_membership(v, GammaPoint(1, 0.25))

    def test_off_variety(self):
        v = DeterminantalVariety.from_matrix(np.zeros((1, 1)))
        assert not variety_membership(v, GammaPoint(0.1, 0))

    def test_fiber_consistency(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            v = DeterminantalVariety.from_matrix(_rand(rng, n))
            p = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            for s in fiber_at_p(v, p):
                assert variety_membership(v, GammaPoint(complex(s), p))


class TestFiber:
    def test_nilpotent_parabola(self):
        v = DeterminantalVariety.from_matrix(np.array([[0, 2], [0, 0]], dtype=complex))
        # characteristic polynomial s^2 - 4p, so the fiber at 0.25 is {1, -1}
        got = sorted(fiber_at_p(v, 0.25).real)
        assert np.allclose(got, [-1.0, 1.0], atol=1e-12)

    def test_scalar(self):
        alpha = 0.3 + 0.4j
        v = DeterminantalVariety.from_matrix(np.array([[alpha]]))
        p = 0.2 - 0.7j
        assert abs(fiber_at_p(v, p)[0] - (alpha + np.conj(alpha) * p)) <= 1e-14

    def test_example_one(self):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        got = sorted(fiber_at_p(v, 0.25).real)
        assert np.allclose(got, [-1.0, 0.0, 1.0], atol=1e-12)


class TestBoundarySample:
    def test_zero_matrix(self):
        v = DeterminantalVariety.from_matrix(np.zeros((1, 1)))
        for row in boundary_rows(v, 16):
            assert row.tag == RegionTag.BGAMMA_NOT_BDGAMMA
            assert abs(row.s) <= 1e-14

    def test_nilpotent_hits_diagonal_boundary(self):
        v = DeterminantalVariety.from_matrix(np.array([[0, 2], [0, 0]], dtype=complex))
        rows = boundary_rows(v, 32)
        assert {r.tag for r in rows} == {RegionTag.BDGAMMA}
        for r in rows:
            assert abs(abs(r.s) - 2.0) <= 1e-12

    def test_small_radius_stays_inside(self):
        rng = np.random.default_rng(52)
        a = _rand(rng, 3)
        a = 0.5 * a / numerical_radius(a)
        v = DeterminantalVariety.from_matrix(a)
        rows = boundary_rows(v, 64)
        assert all(r.tag == RegionTag.BGAMMA_NOT_BDGAMMA for r in rows)
        assert max(abs(r.s) for r in rows) < 2.0

    def test_membership_and_unimodular_p(self):
        rng = np.random.default_rng(53)
        v = DeterminantalVariety.from_matrix(_rand(rng, 3))
        pts = boundary_sample(v, 32)
        assert len(pts) == 3 * 32
        for pt in pts:
            assert abs(abs(pt.p) - 1.0) <= 1e-15
            assert variety_membership(v, pt)

    def test_empty_representation_convention(self):
        v = DeterminantalVariety.from_matrix(np.zeros((0, 0)))
        pts = boundary_sample(v, 8)
        assert len(pts) == 8
        assert all(pt.s == 0 and abs(abs(pt.p) - 1) <= 1e-15 for pt in pts)

    def test_automorphism_identity(self):
        # exit points built from a unit eigenvector v and alpha = <Av, v>
        # satisfy (z1 - alpha)/(1 - conj(alpha) z1) = -z2
        rng = np.random.default_rng(54)
        a = _rand(rng, 4)
        a = 0.9 * a / numerical_radius(a)
        for theta in np.linspace(0, 2 * np.pi, 17):
            half = np.exp(0.5j * theta)
            herm = np.conj(half) * a + half * a.conj().T
            lam, vec = np.linalg.eigh(0.5 * (herm + herm.conj().T))
            for idx in range(4):
                vv = vec[:, idx]
                alpha = complex(vv.conj() @ a @ vv)
                assert abs(alpha) < 1
                s = half * lam[idx]
                z1, z2 = point_roots(GammaPoint(complex(s), complex(np.exp(1j * theta))))
                assert abs((z1 - alpha) / (1 - np.conj(alpha) * z1) + z2) <= 1e-8


class TestClassifyDistinguished:
    def test_small_radius_certified(self):
        v = DeterminantalVariety.from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))
        verdict = classify_distinguished(v)
        assert verdict.status == DistinguishedStatus.DISTINGUISHED_CERTIFIED
        assert verdict.s_margin > 0

    def test_unimodular_eigenvalue_rejected(self):
        verdict = classify_distinguished(
            DeterminantalVariety.from_matrix(example_two_matrix())
        )
        assert verdict.status == DistinguishedStatus.NOT_DISTINGUISHED_CERTIFIED
        assert abs(verdict.witness.s - 1.0) <= 1e-9
        assert verdict.witness.p == 0

    def test_radius_one_empirical(self):
        verdict = classify_distinguished(
            DeterminantalVariety.from_matrix(example_one_matrix())
        )
        assert verdict.status == DistinguishedStatus.DISTINGUISHED_EMPIRICAL
        assert verdict.track_gap <= 1e-6

    def test_oversized_radius_inconclusive(self):
        a = np.zeros((2, 2), complex)
        a[0, 1] = 3.0
        verdict = classify_distinguished(DeterminantalVariety.from_matrix(a))
        assert verdict.status == DistinguishedStatus.INCONCLUSIVE
        assert verdict.witness is not None
        assert classify_point(verdict.witness, Tolerances(psd_tol=1e-7)) == RegionTag.OUTSIDE


class TestCsvExport:
    def test_schema_and_content(self, tmp_path):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        path = tmp_path / "boundary.csv"
        write_boundary_csv(v, 8, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "re_s", "im_s", "re_p", "im_p", "region_tag"]
        assert len(rows) == 1 + 3 * 8
        for row in rows[1:]:
            s = complex(float(row[1]), float(row[2]))
            p = complex(float(row[3]), float(row[4]))
            assert variety_membership(v, GammaPoint(s, p))
            assert row[5] in {t.value for t in RegionTag}


class TestSymmetrizeVariety:
    def test_difference_of_variables(self):
        q = symmetrize_bidisc_variety(BivarPolynomial.from_coeffs([[0, -1], [1, 0]]))
        want = np.zeros((3, 2), complex)
        want[0, 1] = 4.0
        want[2, 0] = -1.0  # -(s^2 - 4p)
        assert np.allclose(q.coeffs, want[: q.coeffs.shape[0], : q.coeffs.shape[1]])
        assert q.coeffs.shape == (3, 2)

    def test_product_minus_one(self):
        q = symmetrize_bidisc_variety(BivarPolynomial.from_coeffs([[-1, 0], [0, 1]]))
        assert np.allclose(q.coeffs, [[1, -2, 1]])  # (p - 1)^2

    def test_shifted_variable(self):
        c = 0.3 + 0.4j
        q = symmetrize_bidisc_variety(BivarPolynomial.from_coeffs([[-c], [1]]))
        want = np.array([[c * c, 1.0], [-c, 0.0]])
        assert np.allclose(q.coeffs, want)

    def test_random_polynomials_evaluate_identically(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            dz, dw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            c = rng.standard_normal((dz + 1, dw + 1)) + 1j * rng.standard_normal(
                (dz + 1, dw + 1)
            )
            p = BivarPolynomial.from_coeffs(c)
            q = symmetrize_bidisc_variety(p)
            z = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
            w = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
            want = poly_eval_oracle(c, z, w) * poly_eval_oracle(c.T, z, w)
            got = q(z + w, z * w)
            assert np.max(np.abs(got - want) / (1 + np.abs(want))) <= 1e-10

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            symmetrize_bidisc_variety(BivarPolynomial.from_coeffs([[0.0]]))

    def test_rejects_degree_cap(self):
        c = np.zeros((10, 10))
        c[9, 9] = 1.0
        with pytest.raises(ValueError, match="cap"):
            symmetrize_bidisc_variety(BivarPolynomial.from_coeffs(c))


def test_cached_radius_matches_recomputation():
    rng = np.random.default_rng(56)
    a = _rand(rng, 4)
    v = DeterminantalVariety.from_matrix(a)
    assert abs(v.nr - numerical_radius(a)) <= 1e-10


class TestSampleCount:
    @pytest.mark.parametrize("dim", [0, 2])
    @pytest.mark.parametrize("m", [0, -3])
    def test_non_positive_counts_rejected(self, dim, m, tmp_path):
        v = DeterminantalVariety.from_matrix(np.eye(dim, dtype=complex) * 0.5)
        for call in (
            lambda: classify_distinguished(v, m=m),
            lambda: boundary_rows(v, m),
            lambda: boundary_sample(v, m),
            lambda: write_boundary_csv(v, m, tmp_path / "b.csv"),
        ):
            with pytest.raises(ValueError, match="sample count must be positive"):
                call()
        assert not (tmp_path / "b.csv").exists()

    def test_radius_one_branch_rejects_zero_angles(self):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        with pytest.raises(ValueError, match="sample count must be positive"):
            classify_distinguished(v, m=0)


def test_exit_radius_is_the_last_radius_of_the_old_ladder():
    assert varieties._EXIT_RADIUS == 1.0 - np.logspace(-6.0, -14.0, 64)[-1]


def _cx(pair):
    return complex(pair[0], pair[1])


# Verdicts, 16-angle boundary rows and 8-angle boundary samples recorded
# with the per-point implementation (a classify_point call per boundary
# point, 64 exit radii) for seeded certified, planted, radius-one,
# inconclusive and empty representations.
GOLDEN = json.loads((Path(__file__).parent / "data" / "variety_golden.json").read_text())


@pytest.mark.parametrize("rec", GOLDEN, ids=[f"{r['name']}-{k}" for k, r in enumerate(GOLDEN)])
def test_golden_outputs(rec):
    n = len(rec["A"])
    a = np.array([[_cx(z) for z in row] for row in rec["A"]], dtype=complex).reshape(n, n)
    v = DeterminantalVariety.from_matrix(a)
    d = classify_distinguished(v, m=64)
    assert d.status.value == rec["status"]
    assert d.criterion == rec["criterion"]
    assert d.s_margin == rec["s_margin"]
    assert d.track_gap == rec["track_gap"]
    want_witness = rec["witness"] and GammaPoint(_cx(rec["witness"][0]), _cx(rec["witness"][1]))
    assert d.witness == want_witness
    got_rows = [(r.theta, r.s, r.p, r.tag.value) for r in boundary_rows(v, 16)]
    assert got_rows == [(t, _cx(s), _cx(p), tag) for t, s, p, tag in rec["rows"]]
    got_sample = [(pt.s, pt.p) for pt in boundary_sample(v, 8)]
    assert got_sample == [(_cx(s), _cx(p)) for s, p in rec["sample"]]


# Fibers of the same seeded matrices as numerical_radius's golden test
# (tests/data/kernel_golden.json) at four unimodular p, recorded by repr.
KERNEL_GOLDEN = json.loads((Path(__file__).parent / "data" / "kernel_golden.json").read_text())


@pytest.mark.parametrize("rec", KERNEL_GOLDEN["records"], ids=lambda r: r["name"])
def test_unimodular_fiber_golden_bits(rec):
    a = np.array([[_cx(z) for z in row] for row in rec["A"]], dtype=complex)
    v = DeterminantalVariety.from_matrix(a)
    got = [[repr(s) for s in fiber_at_p(v, _cx(p)).tolist()] for p in KERNEL_GOLDEN["p"]]
    assert got == rec["fibers"]


def test_inconclusive_witness_is_first_off_boundary_point():
    a = np.zeros((2, 2), complex)
    a[0, 1] = 3.0
    v = DeterminantalVariety.from_matrix(a)
    band = Tolerances(psd_tol=1e-7)
    first = next(
        GammaPoint(r.s, r.p)
        for r in boundary_rows(v, 32, band)
        if r.tag not in (RegionTag.BGAMMA_NOT_BDGAMMA, RegionTag.BDGAMMA)
    )
    assert classify_distinguished(v, m=32).witness == first
