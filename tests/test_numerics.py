import cmath
import ctypes
import json
import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbidisc.numerics
from symbidisc.numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    circle_pencils,
    numerical_radius,
    operator_norm,
    phase_grid,
    spectral_radius,
)

from _oracles import (
    norm_sweep_oracle,
    nr_grid_oracle,
    numerical_radius_level_set_oracle,
    numerical_radius_scipy_oracle,
)

EPS = np.finfo(float).eps


def _rand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _closed_forms():
    """(id, A, omega(A)) with omega known in closed form."""
    rng = np.random.default_rng(20)
    cases = [
        ("real-rank-one", np.array([[-2.0, -1.0], [-2.0, -1.0]]), (3 + math.sqrt(10)) / 2),
        # the range is the ellipse with foci 1 +- i sqrt(2) and semi-axes
        # sqrt(2) and 2; theta = 0 is a local minimum of lambda_max
        ("real-elliptic", np.array([[2.0, 3.0], [-1.0, 0.0]]), math.sqrt(6)),
    ]
    for scale in (1e-100, 1.0, 1e100):
        for n in (1, 2, 3, 5):
            u = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            # the range of u v* is an ellipse with foci 0 and <u, v>
            want = (abs(np.vdot(v, u)) + np.linalg.norm(u) * np.linalg.norm(v)) / 2
            cases.append((f"rank-one-{n}-{scale:g}", np.outer(u, v.conj()), want))
        z = scale * complex(rng.standard_normal(), rng.standard_normal())
        cases.append((f"scalar-{scale:g}", np.array([[z]]), abs(z)))
    for n in (1, 2, 4, 7):
        cases.append((f"unimodular-diagonal-{n}", np.diag(np.exp(2j * np.pi * rng.uniform(size=n))), 1.0))
    # a zero row and column: every H_theta keeps the eigenvalue 0
    cases.append(("padded-imaginary", np.diag([0.0, 0.0, 0.5j]), 0.5))
    # for the Newton start: a zero eigengap, a maximum at a quarter turn,
    # two maximising phases, nilpotent Jordan blocks and both ends of the
    # float range
    h = _rand(rng, 4)
    h = h + h.conj().T
    cases += [
        ("scalar-identity", (0.3 + 0.4j) * np.eye(4), 0.5),
        # H_theta = cos(theta) A, largest at theta = 0 or pi
        ("hermitian", h, float(np.abs(np.linalg.eigvalsh(h)).max())),
        # lambda_max(H_theta) = |cos theta|, largest at 0 and at pi
        ("plus-minus-one", np.diag([1.0, -1.0]), 1.0),
        ("upper-three", np.array([[0.0, 3.0], [0.0, 0.0]]), 1.5),
    ]
    for k in range(2, 7):
        cases.append((f"jordan{k}", np.eye(k, k=1), math.cos(math.pi / (k + 1))))
    for scale in (1e-300, 1e300):
        cases.append((f"scalar-identity-{scale:g}", scale * (0.3 + 0.4j) * np.eye(3), scale * 0.5))
        cases.append((f"plus-minus-one-{scale:g}", np.diag([scale, -scale]), scale))
        cases.append((f"jordan3-{scale:g}", scale * np.eye(3, k=1), scale * math.sqrt(0.5)))
    return cases


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.psd_tol == 1e-9
        assert tol.rank_tol == 1e-10
        assert tol.residual_tol == 1e-8
        assert tol.grid_angular == 1024
        assert tol.grid_radial == 21

    def test_grid_radial_is_a_class_constant(self):
        # nothing in the library reads it, so it is no field to set
        assert DEFAULT_TOL.grid_radial == 21
        with pytest.raises(TypeError):
            Tolerances(grid_radial=5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerances(psd_tol=-1e-9)

    @pytest.mark.parametrize("field", ["psd_tol", "rank_tol", "residual_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            Tolerances(**{field: value})

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Tolerances(grid_angular=1)

    def test_grid_within_the_sample_bound(self):
        assert Tolerances(grid_angular=2**16).grid_angular == 2**16
        for grid in (2**16 + 1, 10**12):
            with pytest.raises(ValueError, match="at most 65536"):
                Tolerances(grid_angular=grid)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_angular", "8"),
            ("grid_angular", None),
            ("grid_angular", 8.0),
            ("psd_tol", "1e-9"),
            ("rank_tol", None),
            ("residual_tol", 1e-8 + 0j),
        ],
    )
    def test_rejects_wrong_types_with_value_error(self, field, value):
        with pytest.raises(ValueError):
            Tolerances(**{field: value})

    def test_accepts_numpy_scalars(self):
        tol = Tolerances(psd_tol=np.float64(1e-9), grid_angular=np.int64(8))
        assert tol.grid_angular == 8


class TestOperatorNorm:
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_equals_numpy_two_norm(self, scale):
        rng = np.random.default_rng(13)
        for n in range(9):
            for shape in ((n, n), (n, n + 1), (n + 1, n)):
                real = rng.standard_normal(shape)
                for m in (scale * real, scale * (real + 1j * rng.standard_normal(shape))):
                    want = float(np.linalg.norm(m, 2)) if m.size else 0.0
                    assert repr(operator_norm(m)) == repr(want)


class TestNumericalRadius:
    def test_single_offdiagonal_entry_two(self):
        a = np.zeros((3, 3), complex)
        a[0, 1] = 2.0
        assert abs(numerical_radius(a) - 1.0) <= 1e-9

    def test_identity(self):
        assert abs(numerical_radius(np.eye(5)) - 1.0) <= 1e-12

    def test_single_offdiagonal_entry_one(self):
        a = np.zeros((2, 2), complex)
        a[0, 1] = 1.0
        expected = nr_grid_oracle(a)  # = 0.5: the range is a disc of radius 1/2
        assert abs(expected - 0.5) <= 1e-9
        assert abs(numerical_radius(a) - 0.5) <= 1e-9

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            numerical_radius(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerical_radius(np.array([[np.nan, 0], [0, 0]]))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = _rand(rng, n)
            u = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(numerical_radius(u * a) - numerical_radius(a)) <= 1e-9

    def test_sandwiched_by_operator_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            a = _rand(rng, n)
            w = numerical_radius(a)
            nrm = operator_norm(a)
            assert w <= nrm * (1 + 1e-9) + 1e-12
            assert nrm <= 2 * w * (1 + 1e-9) + 1e-12

    def test_doubles_the_symbol_norm_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            n = int(rng.integers(1, 5))
            a = _rand(rng, n)
            a = a / max(operator_norm(a), 1.0)
            assert abs(norm_sweep_oracle(a) - 2.0 * numerical_radius(a)) <= 1e-8

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = _rand(rng, int(rng.integers(1, 6)))
            for b in (a, a.real, a + a.conj().T):
                assert numerical_radius(b) >= nr_grid_oracle(b, m=20000) - 1e-10

    @pytest.mark.parametrize("a, want", [pytest.param(a, w, id=k) for k, a, w in _closed_forms()])
    def test_closed_form(self, a, want):
        assert abs(numerical_radius(a) - want) <= 8 * np.finfo(float).eps * want


def _zggev_corpus():
    """Seeded matrices for the direct zggev path against scipy's wrapper."""
    rng = np.random.default_rng(21)
    mats = []
    for n in range(1, 9):
        for _ in range(6):
            a = _rand(rng, n)
            mats += [a, a.real.copy(), a + a.conj().T]
            # rescaled to radius exactly one, as variety_classify builds them
            mats.append(a * (1.0 / numerical_radius(a)))
            for scale in (1e-100, 1e100):
                mats.append(scale * a)
        mats.append(np.eye(n, k=1))  # nilpotent Jordan block
        mats.append(0.5j * np.eye(n) + np.eye(n, k=1))
    mats.append(np.diag([0.0, 0.5j]))
    return mats


def test_direct_zggev_matches_scipy_eigvals_bit_for_bit():
    for a in _zggev_corpus():
        assert repr(numerical_radius(a)) == repr(numerical_radius_scipy_oracle(a)), a


def test_within_8_eps_of_the_level_set_iteration():
    # the Newton start moves the level the loop begins at, not the
    # maximum that it certifies
    for a in _zggev_corpus():
        want = numerical_radius_level_set_oracle(a)
        assert abs(numerical_radius(a) - want) <= 8 * EPS * want, a


class TestNewtonStart:
    def test_start_holds_the_exact_quarter_turns(self):
        phases = symbidisc.numerics._START_PHASES
        assert phases[::4].tolist() == [1, 1j, -1, -1j]
        assert np.allclose(phases, np.exp(1j * math.pi * np.arange(16) / 8), rtol=0, atol=4 * EPS)

    def test_zero_eigengap_takes_no_step(self):
        b = (0.3 + 0.4j) * np.eye(3)
        assert symbidisc.numerics._lambda_max(b, cmath.exp(0.2j))[1] == 0.0

    def test_local_minimum_takes_no_step(self):
        # theta = 0 is a local minimum of lambda_max for this matrix; at
        # theta = 0.05 the slope is about 0.01 and the curvature about 0.2
        b = np.array([[2.0, 3.0], [-1.0, 0.0]], dtype=complex) / 4
        assert symbidisc.numerics._lambda_max(b, cmath.exp(0.05j))[1] == 0.0

    def test_step_is_cut_to_the_start_spacing(self):
        # lambda_max = 2 cos(theta) for B = 1; Newton steps by -tan(theta)
        _lambda_max = symbidisc.numerics._lambda_max
        b = np.ones((1, 1), dtype=complex)
        assert _lambda_max(b, cmath.exp(1.2j))[1] == -math.pi / 8
        assert abs(_lambda_max(b, cmath.exp(0.1j))[1] + math.tan(0.1)) <= 4 * EPS

    def test_step_matches_finite_differences(self):
        # -g'/g'' with g' and g'' from central differences of lambda_max,
        # where lambda_max is well separated and g'' well away from 0
        rng = np.random.default_rng(24)
        h = 1e-4
        checked = 0
        for n in range(1, 6):
            for _ in range(20):
                b = _rand(rng, n) / 4
                theta = rng.uniform(0.0, 2.0 * math.pi)
                g = np.linalg.eigvalsh(circle_pencils(b, np.exp(1j * (theta + h * np.arange(-1, 2)))))
                if n > 1 and g[1, -1] - g[1, -2] < 0.1:
                    continue
                slope = (g[2, -1] - g[0, -1]) / (2 * h)
                curv = (g[2, -1] - 2 * g[1, -1] + g[0, -1]) / h**2
                if abs(curv) < 0.1:
                    continue
                step = symbidisc.numerics._lambda_max(b, cmath.exp(1j * theta))[1]
                want = min(max(-slope / curv, -math.pi / 8), math.pi / 8) if curv < 0 else 0.0
                assert abs(step - want) <= 1e-5 * (1 + abs(want)), (n, theta)
                checked += 1
        assert checked >= 40

    def test_median_of_at_most_two_solves_and_never_more_than_the_level_set(self, monkeypatch):
        solve = symbidisc.numerics._pencil_eigvals
        calls = [0]

        def counting(left, right):
            calls[0] += 1
            return solve(left, right)

        monkeypatch.setattr(symbidisc.numerics, "_pencil_eigvals", counting)

        def solves(radius, a):
            calls[0] = 0
            radius(a)
            return calls[0]

        corpus = _zggev_corpus()
        new = np.array([solves(numerical_radius, a) for a in corpus])
        old = np.array([solves(numerical_radius_level_set_oracle, a) for a in corpus])
        assert np.median(new) <= 2
        assert (new <= old).all(), [corpus[i] for i in np.flatnonzero(new > old)]


class TestFloatRange:
    """Every solve runs on A scaled by a power of two, so no A + A*
    overflows; only a radius beyond the float range is refused."""

    def test_largest_scalar(self):
        assert numerical_radius(np.array([[1e308]])) == 1e308

    def test_diagonal_near_the_top(self):
        # on the unscaled A, A + A* overflowed to inf and zggev failed
        assert numerical_radius(np.diag([9e307, 0.0])) == 9e307

    def test_radius_beyond_the_range_raises(self):
        # omega = 2e308 although every entry is finite
        with pytest.raises(ValueError, match="overflows"):
            numerical_radius(np.full((2, 2), 1e308))


_NUMPY_ZGGEV = symbidisc.numerics._numpy_lapack_zggev()
needs_numpy_zggev = pytest.mark.skipif(
    _NUMPY_ZGGEV is None, reason="numpy's LAPACK exports no ILP64 zggev"
)
# INFO's place among zggev's arguments
_ZGGEV_INFO = 16


@needs_numpy_zggev
def test_zggev_failure_raises(monkeypatch):
    def failing(*args):
        _NUMPY_ZGGEV(*args)
        if args[0].value == b"N":  # the solve, not the workspace query
            ctypes.c_int64.from_address(args[_ZGGEV_INFO].value).value = 1

    monkeypatch.setattr(symbidisc.numerics, "_zggev", symbidisc.numerics._NumpyZggev(failing))
    with pytest.raises(np.linalg.LinAlgError, match="zggev"):
        numerical_radius(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _fresh_interpreter(code: str) -> None:
    """Run ``code`` in a new interpreter that imports this symbidisc, with
    every warning an error."""
    path = str(Path(symbidisc.numerics.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import sys; sys.path.insert(0, {path!r}); {code}"],
        check=True,
    )


class TestZggevLoad:
    """``_zggev`` calls the zggev of numpy's own LAPACK; scipy's wrapper
    only where numpy's LAPACK exports none."""

    @needs_numpy_zggev
    def test_import_leaves_scipy_linalg_out(self):
        # one radius runs zggev, and scipy is never loaded
        _fresh_interpreter(
            "import symbidisc.cli; from symbidisc.numerics import numerical_radius; "
            "assert numerical_radius([[0, 1], [0, 0]]) == 0.5; "
            "assert 'scipy' not in sys.modules, sorted(sys.modules)"
        )

    @needs_numpy_zggev
    def test_forced_fallback_gives_the_same_radii(self, monkeypatch):
        corpus = _zggev_corpus()
        want = [repr(numerical_radius(a)) for a in corpus]
        monkeypatch.setattr(symbidisc.numerics, "_numpy_lapack_zggev", lambda: None)
        zggev = symbidisc.numerics._load_zggev()
        assert isinstance(zggev, symbidisc.numerics._ScipyZggev)
        monkeypatch.setattr(symbidisc.numerics, "_zggev", zggev)
        assert [repr(numerical_radius(a)) for a in corpus] == want

    def test_concurrent_threads_give_the_one_thread_radii(self):
        # each thread holds its own pencil buffers; more threads than
        # cores, switching often, and each in its own order
        corpus = _zggev_corpus()
        want = [repr(numerical_radius(a)) for a in corpus]
        got = {}

        def run(k):
            order = np.random.default_rng(k).permutation(len(corpus))
            got[k] = {int(i): repr(numerical_radius(corpus[i])) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == [0, 1, 2, 3]
        for radii in got.values():
            assert [radii[i] for i in range(len(corpus))] == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4096), st.integers(0, 4))
def test_phase_grid_nests_at_powers_of_two(m, j):
    # what lets a variety slice or extend the fiber grid it holds
    assert phase_grid(m * 2**j)[:: 2**j].tobytes() == phase_grid(m).tobytes()


def test_phase_grid_does_not_nest_at_three():
    assert any(
        phase_grid(3 * m)[::3].tobytes() != phase_grid(m).tobytes() for m in range(1, 64)
    )


class TestRotatedEigvalsh:
    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(18)
        for n in range(1, 7):
            a = _rand(rng, n)
            w = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
            got = np.linalg.eigvalsh(circle_pencils(a, w))
            want = [np.linalg.eigvalsh(x * a + np.conj(x) * a.conj().T) for x in w]
            assert got.shape == (5, n)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * operator_norm(a))

    def test_single_angle_rounds_as_the_scalar_product(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 3):
            for _ in range(50):
                a = _rand(rng, n)
                w = np.exp(1j * rng.uniform(0, 2 * np.pi))
                want = np.linalg.eigvalsh(w * a + np.conj(w) * a.conj().T)
                got = np.linalg.eigvalsh(circle_pencils(a, np.array([w])))[0]
                assert np.array_equal(got, want)


# numerical_radius of seeded matrices (dimensions 1-6, scales 1e-100 to
# 1e100, rescaled to radius one, and four structured cases), recorded by
# repr.  The bits of "nr" come from the Newton start and the level-set
# iteration: they pass through numpy's eigh and batched eigvalsh and
# the LAPACK generalized eigensolver zggev that numpy links.  Each stays
# at or above a 20000-angle grid value minus one ulp.
KERNEL_GOLDEN = json.loads((Path(__file__).parent / "data" / "kernel_golden.json").read_text())


@pytest.mark.parametrize("rec", KERNEL_GOLDEN["records"], ids=lambda r: r["name"])
def test_numerical_radius_golden_bits(rec):
    a = np.array([[complex(*z) for z in row] for row in rec["A"]], dtype=complex)
    assert repr(numerical_radius(a)) == rec["nr"]


def test_as_matrix_rejects_vector():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))


def test_spectral_radius_of_empty_is_zero():
    assert spectral_radius(np.zeros((0, 0))) == 0.0
