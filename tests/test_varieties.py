import csv
import json
from pathlib import Path

import numpy as np
import pytest

from symbidisc.gamma_pairs import make_operator_pair
from symbidisc.geometry import GammaPoint, RegionTag, classify_point
from symbidisc.numerics import Tolerances, numerical_radius, operator_norm
from symbidisc.varieties import (
    BivarPolynomial,
    BoundaryRow,
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
from symbidisc.von_neumann import MatrixPolynomial, vn_report

from _corpus import nilpotent_matrix
from _oracles import (
    boundary_rows_oracle,
    exit_fiber_gap,
    point_roots,
    poly_eval_oracle,
    symmetrize_exact_oracle,
)

EPS = np.finfo(float).eps


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

    @pytest.mark.parametrize("p", [np.inf, np.nan, complex(0, -np.inf), complex(1, np.nan)])
    def test_non_finite_p_rejected(self, p):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        with pytest.raises(ValueError, match="p must be finite"):
            fiber_at_p(v, p)
        with pytest.raises(ValueError, match="p must be finite"):
            variety_membership(v, GammaPoint(0.5, p))

    @pytest.mark.parametrize("s", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_s_rejected(self, s):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        with pytest.raises(ValueError, match="s must be finite"):
            variety_membership(v, GammaPoint(s, 0.5))


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
        # det of a 0 x 0 matrix is 1: the set is empty, on every path
        v = DeterminantalVariety.from_matrix(np.zeros((0, 0)))
        assert boundary_sample(v, 8) == []
        assert boundary_rows(v, 8) == []
        assert v._boundary(16)[1].shape == (0, 16)
        assert not variety_membership(v, GammaPoint(0, 1))

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

    def test_dense_nine_by_nine_verifies(self):
        # the 961st draw once failed a fixed 1e-10 relative check
        rng = np.random.default_rng(123)
        for _ in range(961):
            r, c = rng.integers(1, 10, size=2)
            a = rng.standard_normal((r, c))
        assert a.shape == (9, 9)
        q = symmetrize_bidisc_variety(BivarPolynomial.from_coeffs(a))
        z, w = 0.3 - 0.2j, -0.5 + 0.1j
        want = poly_eval_oracle(a, z, w) * poly_eval_oracle(a.T, z, w)
        assert abs(q(z + w, z * w) - want) <= 1e-10 * (1 + abs(want))

    def test_coefficients_match_exact_rational_arithmetic(self):
        # every coefficient within 8 eps max|q| of the exact rational value,
        # also at the largest shapes below the degree cap
        eps = np.finfo(float).eps
        rng = np.random.default_rng(2207)
        shapes = [tuple(rng.integers(1, 10, size=2)) for _ in range(18)]
        shapes += [(9, 9), (9, 8), (8, 9), (9, 7), (7, 9), (8, 8)]
        for shape in shapes:
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
            exact = symmetrize_exact_oracle(a)
            q = symmetrize_bidisc_variety(BivarPolynomial.from_coeffs(a)).coeffs
            want = np.zeros(q.shape, dtype=complex)
            for (i, k), v in exact.items():
                want[i, k] = float(v)  # IndexError: q lost a nonzero exact term
            scale = max(abs(float(v)) for v in exact.values())
            assert np.max(np.abs(q - want)) <= 8 * eps * scale, shape

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            symmetrize_bidisc_variety(BivarPolynomial.from_coeffs([[0.0]]))

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError, match="finite"):
            BivarPolynomial.from_coeffs([[np.nan]])

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

    @pytest.mark.parametrize("name", [
        "vn_report", "classify_distinguished", "boundary_rows", "boundary_sample",
        "write_boundary_csv", "Tolerances",
    ])
    def test_non_integral_counts_rejected(self, name, tmp_path):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        pair = make_operator_pair([[1.0]], [[0.25]])
        call = {
            "vn_report": lambda m: vn_report(MatrixPolynomial.scalar([[0], [1]]), pair, m=m),
            "classify_distinguished": lambda m: classify_distinguished(v, m=m),
            "boundary_rows": lambda m: boundary_rows(v, m),
            "boundary_sample": lambda m: boundary_sample(v, m),
            "write_boundary_csv": lambda m: write_boundary_csv(v, m, tmp_path / "b.csv"),
            "Tolerances": lambda m: Tolerances(grid_angular=m),
        }[name]
        for m in (2.5, 100.5, True):  # a bool is not a count
            with pytest.raises(ValueError, match="sample count must be an integer"):
                call(m)
        assert not (tmp_path / "b.csv").exists()
        call(np.int64(8))  # numpy integers are counts

    def test_radius_one_branch_rejects_zero_angles(self):
        v = DeterminantalVariety.from_matrix(example_one_matrix())
        with pytest.raises(ValueError, match="sample count must be positive"):
            classify_distinguished(v, m=0)


def _held_grid_matrix(dim):
    # radius-one draws for odd dimensions, so the empirical branch is met too
    rng = np.random.default_rng(90 + dim)
    a = _rand(rng, dim)
    return a / numerical_radius(a) if dim % 2 else 0.6 * a / max(numerical_radius(a), 1.0)


def _grid_bytes(v, m):
    return tuple(x.tobytes() for x in v._boundary(m))


class TestHeldGrid:
    """A variety keeps the last unimodular fiber grid it solved."""

    @pytest.mark.parametrize("dim", range(7))
    @pytest.mark.parametrize("m", [1, 2, 3, 100, 256])
    def test_held_path_equals_a_fresh_solve(self, dim, m):
        a = _held_grid_matrix(dim)
        want = _grid_bytes(DeterminantalVariety.from_matrix(a), m)
        # held at m 2^j and at 3 m is solved fresh, held at m / 2^j is
        # extended; m = 2 after m = 1 on 1 x 1 solves one angle, the
        # unit-dimension product
        helds = [m * 2, m * 4, m * 16, m * 3] + [m // d for d in (2, 4) if m % d == 0]
        for held in helds:
            v = DeterminantalVariety.from_matrix(a)
            v._boundary(held)
            assert _grid_bytes(v, m) == want, held
            assert _grid_bytes(v, m) == want, held  # and again from the new hold

    @pytest.mark.parametrize("dim", range(1, 7))
    # a coarser grid nests by bytes, but only a finer one extends the held grid
    @pytest.mark.parametrize("held, m", [(256, 100), (100, 300), (512, 64)])
    def test_non_nesting_request_is_solved_fresh(self, dim, held, m, fiber_solves):
        a = _held_grid_matrix(dim)
        want = _grid_bytes(DeterminantalVariety.from_matrix(a), m)
        v = DeterminantalVariety.from_matrix(a)
        v._boundary(held)
        fiber_solves.clear()
        assert _grid_bytes(v, m) == want
        assert sum(fiber_solves) == m

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_classify_then_rows_solves_each_angle_once(self, dim, fiber_solves):
        v = DeterminantalVariety.from_matrix(_held_grid_matrix(dim))
        classify_distinguished(v, m=256)
        boundary_rows(v, 512)
        assert sum(fiber_solves) == 512

    def test_held_fibers_are_read_only(self):
        v = DeterminantalVariety.from_matrix(_held_grid_matrix(3))
        p, s = v._boundary(8)
        for x in (p, s):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.0


@pytest.mark.parametrize("dim", range(7))
@pytest.mark.parametrize("m", [1, 7, 512])
def test_boundary_rows_match_the_row_by_row_oracle(dim, m):
    a = _held_grid_matrix(dim)
    got = boundary_rows(DeterminantalVariety.from_matrix(a), m)
    want = boundary_rows_oracle(DeterminantalVariety.from_matrix(a), m)
    assert repr(got) == repr(want)
    assert all(type(r) is BoundaryRow for r in got)


# The radius of the exit fiber that classify_distinguished once solved.
_EXIT_RADIUS = 1.0 - 1e-14


def _omega_one(seed, n):
    a = _rand(np.random.default_rng(seed), n)
    return a / numerical_radius(a)


EXIT_GAP_CASES = (
    [("example_one", example_one_matrix())]
    + [(f"nilpotent-{k}", nilpotent_matrix(k)) for k in range(2, 7)]
    + [(f"omega_one-{n}-{seed}", _omega_one(seed, n)) for n in range(2, 7) for seed in range(4)]
    + [("inconclusive", np.array([[0, 3], [0, 0]], dtype=complex))]
)


@pytest.mark.parametrize("radius", [_EXIT_RADIUS, 1.0 - 1e-10, 1.0 - 1e-6])
@pytest.mark.parametrize("a", [a for _, a in EXIT_GAP_CASES], ids=[name for name, _ in EXIT_GAP_CASES])
def test_exit_fiber_gap_within_the_bauer_fike_bound(a, radius):
    # A + p A* is normal at |p| = 1 and moves by (1 - r) ||A||_2 at |p| = r,
    # so no limit point lies farther than (2n - 1)(1 - r) ||A||_2 from the
    # fiber at radius r (classify_distinguished's docstring); the allowance
    # covers the two eigensolves and forming the pencils
    v = DeterminantalVariety.from_matrix(a)
    n, norm = v.dim, operator_norm(v.A)
    allowance = 64 * n * EPS * (1.0 + norm)
    assert exit_fiber_gap(v, 256, radius) <= (2 * n - 1) * (1.0 - radius) * norm + allowance


def _cx(pair):
    return complex(pair[0], pair[1])


# Verdicts, 16-angle boundary rows and 8-angle boundary samples recorded
# with the per-point implementation (a classify_point call per boundary
# point, 64 exit radii) for seeded certified, planted, radius-one,
# inconclusive and empty representations.  The empty one has no rows and
# no sample: det of a 0 x 0 matrix is 1, so its set is empty.
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
    first = next(
        GammaPoint(r.s, r.p)
        for r in boundary_rows(v, 32)
        if r.tag not in (RegionTag.BGAMMA_NOT_BDGAMMA, RegionTag.BDGAMMA)
    )
    assert classify_distinguished(v, m=32).witness == first


def test_example_one_boundary_is_on_bgamma_at_the_default_band():
    # the fiber of [[0,2],[0,0]] (+) 0 over |p| = 1 is {+-2 sqrt(p), 0}:
    # every point lies on bΓ, and the +-2 sqrt(p) branches on its diagonal
    rows = boundary_rows(DeterminantalVariety.from_matrix(example_one_matrix()), 4096)
    assert len(rows) == 12288
    on_diagonal = [abs(r.s) > 1 for r in rows]
    assert sum(on_diagonal) == 8192
    assert [r.tag for r in rows] == [
        RegionTag.BDGAMMA if d else RegionTag.BGAMMA_NOT_BDGAMMA for d in on_diagonal
    ]
