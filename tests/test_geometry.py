import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbidisc.geometry import (
    REGION_TAGS,
    _root_parts,
    GammaPoint,
    RegionTag,
    classify_point,
    classify_points,
    point_roots,
    symmetrize_point,
)
from symbidisc.numerics import Tolerances


class TestSymmetrizePoint:
    def test_basic(self):
        pt = symmetrize_point(0.5, -0.5)
        assert pt.s == 0 and pt.p == -0.25

    def test_double(self):
        pt = symmetrize_point(1, 1)
        assert pt.s == 2 and pt.p == 1

    def test_zero(self):
        pt = symmetrize_point(0, 0)
        assert pt.s == 0 and pt.p == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            symmetrize_point(float("inf"), 0)


class TestPointRoots:
    def test_inverse_of_symmetrization(self):
        assert point_roots(GammaPoint(0, -0.25)) == (0.5, -0.5)

    def test_double_root(self):
        assert point_roots(GammaPoint(2, 1)) == (1, 1)

    def test_repeated_half(self):
        z1, z2 = point_roots(GammaPoint(1, 0.25))
        assert abs(z1 - 0.5) <= 1e-14 and abs(z2 - 0.5) <= 1e-14

    def test_roundtrip_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(10000):
            z1 = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            z2 = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            r1, r2 = point_roots(symmetrize_point(z1, z2))
            direct = abs(r1 - z1) + abs(r2 - z2)
            swapped = abs(r1 - z2) + abs(r2 - z1)
            assert min(direct, swapped) <= 1e-10

    def test_recovers_point(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            s = 2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            p = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            z1, z2 = point_roots(GammaPoint(s, p))
            back = symmetrize_point(z1, z2)
            scale = 1 + abs(s) + abs(p)
            assert abs(back.s - s) + abs(back.p - p) <= 1e-12 * scale


class TestClassifyPoint:
    def test_boundary_but_not_distinguished(self):
        assert classify_point(GammaPoint(1, 0)) == RegionTag.BOUNDARY_NOT_BGAMMA

    def test_diagonal_distinguished_point(self):
        assert classify_point(GammaPoint(2, 1)) == RegionTag.BDGAMMA

    def test_origin(self):
        assert classify_point(GammaPoint(0, 0)) == RegionTag.INTERIOR_G

    def test_outside(self):
        assert classify_point(GammaPoint(4, 1)) == RegionTag.OUTSIDE

    def test_open_bidisc_maps_to_interior(self):
        rng = np.random.default_rng(23)
        for _ in range(10000):
            z1 = 0.999 * np.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z2 = 0.999 * np.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert classify_point(symmetrize_point(z1, z2)) == RegionTag.INTERIOR_G

    def test_torus_maps_to_distinguished_boundary(self):
        rng = np.random.default_rng(24)
        for _ in range(10000):
            t1, t2 = rng.uniform(0, 2 * np.pi, 2)
            tag = classify_point(symmetrize_point(np.exp(1j * t1), np.exp(1j * t2)))
            assert tag in (RegionTag.BGAMMA_NOT_BDGAMMA, RegionTag.BDGAMMA)
            gap = abs(np.exp(1j * t1) - np.exp(1j * t2))
            if gap > 1e-6:
                assert tag == RegionTag.BGAMMA_NOT_BDGAMMA

    def test_coincident_torus_angles_hit_the_diagonal(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            t = rng.uniform(0, 2 * np.pi)
            z = np.exp(1j * t)
            assert classify_point(symmetrize_point(z, z)) == RegionTag.BDGAMMA


BANDS = (1e-9, 1e-7)
EXACT_POINTS = [(1, 0), (2, 1), (0, 0), (4, 1), (0, -0.25), (1, 0.25)]


def _scalar_tags(s, p, tol):
    return [classify_point(GammaPoint(complex(a), complex(b)), tol) for a, b in zip(s, p)]


def _kernel_tags(s, p, tol):
    return [REGION_TAGS[c] for c in classify_points(s, p, tol)]


def _ulps(rng, x, size):
    """Values within four ulps of x."""
    return x + rng.integers(-4, 5, size) * np.spacing(x)


def _assert_same_roots(s, p):
    """The kernel's roots are those of point_roots, signed zeros included."""
    z1r, z1i, z2r, z2i = _root_parts(s, p)
    for k in range(len(s)):
        got = sorted([complex(z1r[k], z1i[k]), complex(z2r[k], z2i[k])], key=repr)
        want = sorted(point_roots(GammaPoint(s[k], p[k])), key=repr)
        assert list(map(repr, got)) == list(map(repr, want))


def _edge_points(rng, band, size):
    """(s, p) whose roots sit within a few ulps of the band edges."""
    r1 = _ulps(rng, 1.0 + band * rng.choice([-1.0, 1.0], size), size)
    r2 = np.where(
        rng.random(size) < 0.5,
        _ulps(rng, 1.0 + band * rng.choice([-1.0, 1.0], size), size),
        rng.uniform(0.0, 1.2, size),
    )
    t1 = rng.uniform(0.0, 2.0 * np.pi, size)
    z1 = r1 * np.exp(1j * t1)
    # |z1 - z2| = band for a third of the points: z2 on the circle of
    # radius band about z1, pulled to modulus near r2.
    near = z1 + band * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    z2 = np.where(
        rng.random(size) < 1 / 3, near, r2 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    )
    return z1 + z2, z1 * z2


class TestClassifyPoints:
    @pytest.mark.parametrize("band", BANDS)
    def test_band_edges_match_scalar(self, band):
        rng = np.random.default_rng(26)
        tol = Tolerances(psd_tol=band)
        s, p = _edge_points(rng, band, 20000)
        got = _kernel_tags(s, p, tol)
        assert got == _scalar_tags(s, p, tol)
        # the sample reaches every region the edges separate
        assert set(got) == set(RegionTag)

    @pytest.mark.parametrize("band", BANDS)
    def test_exact_points_match_scalar(self, band):
        tol = Tolerances(psd_tol=band)
        s, p = np.array(EXACT_POINTS, dtype=complex).T
        assert _kernel_tags(s, p, tol) == _scalar_tags(s, p, tol)

    @pytest.mark.parametrize("band", BANDS)
    def test_signed_zeros_match_scalar(self, band):
        tol = Tolerances(psd_tol=band)
        parts = [0.0, -0.0, 1.0, -1.0, 2.0]
        grid = [complex(a, b) for a in parts for b in parts]
        s, p = np.array([(a, b) for a in grid for b in grid], dtype=complex).T
        assert _kernel_tags(s, p, tol) == _scalar_tags(s, p, tol)
        _assert_same_roots(s, p)

    @pytest.mark.parametrize("band", BANDS)
    def test_roots_are_bitwise_those_of_point_roots(self, band):
        rng = np.random.default_rng(27)
        s, p = _edge_points(rng, band, 5000)
        _assert_same_roots(s, p)

    def test_zero_root_point(self):
        assert _kernel_tags([0j], [0j], Tolerances()) == [RegionTag.INTERIOR_G]

    def test_broadcast_shape(self):
        s = np.array([[0, 2, 4], [1, 1, 0]], dtype=complex)
        p = np.array([[1], [0]], dtype=complex)
        codes = classify_points(s, p)
        assert codes.shape == (2, 3) and codes.dtype == np.int8
        want = [[classify_point(GammaPoint(a, b[0])) for a in row] for row, b in zip(s, p)]
        assert [[REGION_TAGS[c] for c in row] for row in codes] == want

    def test_overflowing_points_use_the_scalar_path(self):
        s = np.array([1e200, 1e-200j, 3e155], dtype=complex)
        p = np.array([1e-5, 1e300, -1e308], dtype=complex)
        assert _kernel_tags(s, p, Tolerances()) == _scalar_tags(s, p, Tolerances())

    def test_subnormal_points_match_scalar(self):
        s = np.array([1e-310, 5e-324j, 3e-300 - 2e-310j, 1e-160], dtype=complex)
        p = np.array([1e-320, -3e-310, 1e-315j, 2e-320 - 1e-310j], dtype=complex)
        _assert_same_roots(s, p)
        assert _kernel_tags(s, p, Tolerances()) == _scalar_tags(s, p, Tolerances())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            classify_points([float("nan")], [0.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4),
        st.sampled_from(BANDS),
    )
    # the argument of the root 2 + 5e-324j underflows in atan2
    @example([2.0, 5e-324, 0.0, 0.0], 1e-9)
    # s = -5e-324 rounds the larger root to a signed zero
    @example([-5e-324, 0.0, 0.0, 0.0], 1e-9)
    def test_random_points_match_scalar(self, parts, band):
        tol = Tolerances(psd_tol=band)
        s = np.array([complex(parts[0], parts[1])])
        p = np.array([complex(parts[2], parts[3])])
        assert _kernel_tags(s, p, tol) == _scalar_tags(s, p, tol)
        _assert_same_roots(s, p)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi),
        st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi),
        st.sampled_from(BANDS),
    )
    def test_random_near_unimodular_roots_match_scalar(self, e1, t1, e2, t2, band):
        tol = Tolerances(psd_tol=band)
        z1 = (1.0 + e1 * band) * np.exp(1j * t1)
        z2 = (1.0 + e2 * band) * np.exp(1j * t2)
        s, p = [z1 + z2], [z1 * z2]
        assert _kernel_tags(s, p, tol) == _scalar_tags(s, p, tol)
