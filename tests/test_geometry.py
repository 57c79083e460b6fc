import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbidisc.geometry import (
    ON_BGAMMA,
    REGION_TAGS,
    GammaPoint,
    RegionTag,
    classify_point,
    classify_points,
    point_roots,
    symmetrize_point,
)
from symbidisc.numerics import Tolerances

from _oracles import DIAGONAL_EPS, exact_region_tag, root_region_tag


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

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            point_roots(GammaPoint(np.inf, 0))

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
EXACT_POINTS = [(1, 0), (2, 1), (0, 0), (4, 1), (0, -0.25), (1, 0.25), (3, 1), (0, -1)]
EXACT_TAGS = [
    RegionTag.BOUNDARY_NOT_BGAMMA, RegionTag.BDGAMMA, RegionTag.INTERIOR_G,
    RegionTag.OUTSIDE, RegionTag.INTERIOR_G, RegionTag.INTERIOR_G,
    RegionTag.OUTSIDE, RegionTag.BGAMMA_NOT_BDGAMMA,
]


def _kernel_tags(s, p, tol):
    return [REGION_TAGS[c] for c in np.ravel(classify_points(s, p, tol))]


def _exact_tags(s, p, band):
    return [exact_region_tag(complex(a), complex(b), band) for a, b in zip(s, p)]


def _near_an_edge(s, p, band):
    """Whether (s, p) lies within the kernel's rounding of an edge: its
    exact tag moves when the band changes by 1e-4 of itself or the
    diagonal allowance by a quarter."""
    return 1 < len({
        exact_region_tag(s, p, band * f, DIAGONAL_EPS * g)
        for f in (1 - 1e-4, 1.0, 1 + 1e-4) for g in (0.75, 1.0, 1.25)
    })


def _ulps(x, k):
    """x moved by k ulps."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def _edge_points(band):
    """(s, p) at and next to each band edge, built so that the kernel's
    arithmetic on them is exact.  The threshold 2 + 2b of |s| is rounded,
    so that edge is approached from one ulp away."""
    pts = []
    for k in (-2, -1, 1, 2):
        # |s| against 2 + 2b on |p| = 1, where d = g = 0
        pts.append((_ulps(2.0 + 2.0 * band, k), 1.0))
    for k in (-2, -1, 0, 1, 2):
        # g = |s| - 1 against +-b at p = 0
        pts.append((_ulps(1.0 + band, k), 0.0))
        pts.append((_ulps(1.0 - band, k), 0.0))
        # d = 2 - 2q against b at s = 2, where |q - 1| = b/2 and g ~ b^2/4
        pts.append((2.0, _ulps(1.0 - band / 2, k)))
    return np.array(pts, dtype=complex).T


class TestClassifyPoints:
    @pytest.mark.parametrize("band", BANDS)
    def test_band_edges_match_scalar(self, band):
        # the kernel tags equal the exact scalar rule point by point
        s, p = _edge_points(band)
        got = _kernel_tags(s, p, Tolerances(psd_tol=band))
        assert got == _exact_tags(s, p, band)
        assert set(got) == set(RegionTag) - {RegionTag.BDGAMMA}

    def test_dyadic_band_edges_are_inclusive(self):
        b = 2.0 ** -20
        tol = Tolerances(psd_tol=b)
        # the last point has d < b and g > -b, but |p| = 1 - b - b^2/4
        s, p = np.array(
            [(2 + 2 * b, 1), (1 + b, 0), (1 - b, 0), (2, 1 - b / 2), (1, 1 - b),
             (1 - b / 2, 1 - b - b * b / 4)], dtype=complex
        ).T
        want = [
            RegionTag.BGAMMA_NOT_BDGAMMA, RegionTag.BOUNDARY_NOT_BGAMMA,
            RegionTag.BOUNDARY_NOT_BGAMMA, RegionTag.BGAMMA_NOT_BDGAMMA,
            RegionTag.BGAMMA_NOT_BDGAMMA, RegionTag.BOUNDARY_NOT_BGAMMA,
        ]
        assert _kernel_tags(s, p, tol) == want == _exact_tags(s, p, b)
        beyond = [_ulps(2 + 2 * b, 1), _ulps(1 + b, 1), _ulps(1 - b, -1)]
        assert _kernel_tags(beyond, [1, 0, 0], tol) == [
            RegionTag.OUTSIDE, RegionTag.OUTSIDE, RegionTag.INTERIOR_G
        ]

    def test_diagonal_is_decided_at_rounding_level(self):
        # s^2 - 4p = (z1 - z2)^2: a root gap of 2^-25.5 is rounding, one
        # of 2^-19 is not, although both points lie in the band of bΓ
        s = [2.0, 2.0]
        p = [1 - 2.0 ** -53, 1 - 2.0 ** -40]
        assert _kernel_tags(s, p, Tolerances()) == [
            RegionTag.BDGAMMA, RegionTag.BGAMMA_NOT_BDGAMMA
        ]
        assert _exact_tags(s, p, 1e-9) == _kernel_tags(s, p, Tolerances())

    def test_bands_are_absolute_in_s_p(self):
        # roots 1 +- 1e-6 on one ray give (2, 1 - 1e-12), which lies within
        # 1e-9 of the bΓ point (2, 1): the root band would call it OUTSIDE
        s, p = [2.0], [1 - 1e-12]
        assert root_region_tag(s[0], p[0], 1e-9) == RegionTag.OUTSIDE
        assert _kernel_tags(s, p, Tolerances()) == [RegionTag.BGAMMA_NOT_BDGAMMA]

    @pytest.mark.parametrize("band", BANDS)
    def test_exact_points_match_scalar(self, band):
        tol = Tolerances(psd_tol=band)
        s, p = np.array(EXACT_POINTS, dtype=complex).T
        assert _kernel_tags(s, p, tol) == EXACT_TAGS == _exact_tags(s, p, band)

    @pytest.mark.parametrize("band", BANDS)
    def test_signed_zeros_match_scalar(self, band):
        tol = Tolerances(psd_tol=band)
        parts = [0.0, -0.0, 1.0, -1.0, 2.0]
        grid = [complex(a, b) for a in parts for b in parts]
        s, p = np.array([(a, b) for a in grid for b in grid], dtype=complex).T
        assert _kernel_tags(s, p, tol) == _exact_tags(s, p, band)

    def test_zero_root_point(self):
        assert _kernel_tags([0j], [0j], Tolerances()) == [RegionTag.INTERIOR_G]

    def test_broadcast_shape(self):
        s = np.array([[0, 2, 4], [1, 1, 0]], dtype=complex)
        p = np.array([[1], [0]], dtype=complex)
        codes = classify_points(s, p)
        assert codes.shape == (2, 3) and codes.dtype == np.int8
        want = [[classify_point(GammaPoint(a, b[0])) for a in row] for row, b in zip(s, p)]
        assert [[REGION_TAGS[c] for c in row] for row in codes] == want

    def test_overflowing_points_are_outside(self):
        # s * s or conj(s) p overflows on these finite points
        s = np.array([1e200, 1e-200j, 3e155, 1e154 + 1e154j, 1.4 + 1.4j], dtype=complex)
        p = np.array([1e-5, 1e300, -1e308, 0, 1.5e308 * (1 + 1j)], dtype=complex)
        assert _kernel_tags(s, p, Tolerances()) == [RegionTag.OUTSIDE] * 5
        assert classify_point(GammaPoint(1e154 + 1e154j, 0)) == RegionTag.OUTSIDE
        assert _exact_tags(s, p, 1e-9) == [RegionTag.OUTSIDE] * 5

    def test_subnormal_points_match_scalar(self):
        s = np.array([1e-310, 5e-324j, 3e-300 - 2e-310j, 1e-160, 2 + 5e-324j], dtype=complex)
        p = np.array([1e-320, -3e-310, 1e-315j, 2e-320 - 1e-310j, 1 - 5e-324j], dtype=complex)
        got = _kernel_tags(s, p, Tolerances())
        assert got == _exact_tags(s, p, 1e-9)
        assert got == [RegionTag.INTERIOR_G] * 4 + [RegionTag.BDGAMMA]

    def test_rejects_nonfinite(self):
        for bad in (float("nan"), float("inf"), complex(0, -float("inf"))):
            with pytest.raises(ValueError):
                classify_points([bad], [0.0])
            with pytest.raises(ValueError):
                classify_points([0.0], [bad])
            with pytest.raises(ValueError):
                classify_point(GammaPoint(bad, 0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4),
        st.sampled_from(BANDS),
    )
    @example([2.0, 5e-324, 0.0, 0.0], 1e-9)
    @example([-5e-324, 0.0, 0.0, 0.0], 1e-9)
    def test_random_points_match_scalar(self, parts, band):
        # away from the rounding of an edge the kernel is the exact rule
        s, p = complex(parts[0], parts[1]), complex(parts[2], parts[3])
        if _near_an_edge(s, p, band):
            return
        assert _kernel_tags([s], [p], Tolerances(psd_tol=band)) == _exact_tags([s], [p], band)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi),
        st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi),
        st.sampled_from(BANDS),
    )
    def test_random_near_unimodular_roots_match_scalar(self, e1, t1, e2, t2, band):
        z1 = (1.0 + e1 * band) * np.exp(1j * t1)
        z2 = (1.0 + e2 * band) * np.exp(1j * t2)
        s, p = complex(z1 + z2), complex(z1 * z2)
        if _near_an_edge(s, p, band):
            return
        assert _kernel_tags([s], [p], Tolerances(psd_tol=band)) == _exact_tags([s], [p], band)

    @pytest.mark.parametrize("band", BANDS)
    def test_agrees_with_root_oracle_on_separated_roots(self, band):
        # where the roots are at least 1e-3 apart, root extraction keeps
        # its digits and the root-modulus band rule gives the same tags
        rng = np.random.default_rng(29)
        n = 20000
        radius = np.concatenate([
            rng.uniform(0.0, 1.5, (2, n)),  # inside and outside
            np.ones((2, n)),  # the torus
            np.stack([np.ones(n), rng.uniform(0.0, 0.99, n)]),  # one root on the circle
        ], axis=1)
        z = radius * np.exp(2j * np.pi * rng.random(radius.shape))
        z = z[:, np.abs(z[0] - z[1]) >= 1e-3]
        s, p = z[0] + z[1], z[0] * z[1]
        want = [root_region_tag(a, b, band) for a, b in zip(s, p)]
        got = _kernel_tags(s, p, Tolerances(psd_tol=band))
        assert got == want
        assert set(got) == set(RegionTag) - {RegionTag.BDGAMMA}


_ANGLE = st.floats(0.0, 2.0 * np.pi)


def _polar(r, t):
    return complex(r * np.exp(1j * t))


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), _ANGLE, st.floats(0.0, 1.0), _ANGLE)
    def test_closed_bidisc_is_never_outside(self, r1, t1, r2, t2):
        pt = symmetrize_point(_polar(r1, t1), _polar(r2, t2))
        assert classify_point(pt) != RegionTag.OUTSIDE

    @settings(max_examples=300, deadline=None)
    @given(_ANGLE, _ANGLE)
    def test_torus_is_on_bgamma(self, t1, t2):
        pt = symmetrize_point(_polar(1.0, t1), _polar(1.0, t2))
        assert ON_BGAMMA[classify_points(pt.s, pt.p)]

    @settings(max_examples=300, deadline=None)
    @given(_ANGLE)
    def test_coincident_torus_pair_is_bdgamma(self, t):
        z = _polar(1.0, t)
        assert classify_point(symmetrize_point(z, z)) == RegionTag.BDGAMMA

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1.0 + 1e-6, 1.5), _ANGLE,
        st.one_of(st.floats(0.0, 0.5), st.floats(1.0, 4.0)), _ANGLE,
    )
    def test_root_off_the_closed_disc_is_outside(self, r1, t1, r2, t2):
        # With the other root at most 1/2 in modulus,
        # d^2 - (1 - q^2)^2 = (|z1|^2 - 1)(1 - |z2|^2)|1 - conj(z1) z2|^2
        # puts g above 2e-8; with it at least 1, |p| exceeds 1 + 1e-6.
        # (Roots 1 +- 1e-6 on one ray lie within the band of bΓ instead.)
        pt = symmetrize_point(_polar(r1, t1), _polar(r2, t2))
        assert classify_point(pt) == RegionTag.OUTSIDE
