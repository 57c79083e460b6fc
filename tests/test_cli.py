import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symbidisc import cli
from symbidisc.geometry import GammaPoint
from symbidisc.numerics import DEFAULT_TOL, _count
from symbidisc.von_neumann import VNReport

from symbidisc.cli import (
    _tol_from_args,
    build_parser,
    main,
    matrix_from_doc,
    matrix_to_doc,
    read_matrix_file,
    write_matrix_file,
)

from _corpus import rotated_near_unitary_pairs


def _strict_json(text):
    """``json.loads`` that refuses NaN and +-Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


def _write(path, m):
    write_matrix_file(str(path), np.asarray(m, dtype=complex))
    return str(path)


@pytest.fixture
def scalar_pair_files(tmp_path):
    s = _write(tmp_path / "S.json", [[1.0]])
    p = _write(tmp_path / "P.json", [[0.25]])
    return s, p


class TestModuleRun:
    """``python -m symbidisc.cli`` runs the command line, as the console
    script does."""

    @staticmethod
    def _run(*argv):
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "symbidisc.cli", *argv],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})

    def test_member_pair_exits_zero_with_a_report(self, scalar_pair_files):
        run = self._run("check", *scalar_pair_files)
        assert run.returncode == 0, run.stderr
        assert _strict_json(run.stdout)["gamma_contraction"] is True

    def test_missing_file_exits_two(self, tmp_path):
        run = self._run("check", str(tmp_path / "S.json"), str(tmp_path / "P.json"))
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error:")


class TestMatrixIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(81)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = _write(tmp_path / "m.json", m)
        assert np.array_equal(read_matrix_file(path), m)

    def test_doc_shape_validation(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_doc({"rows": 2, "cols": 2, "data": [[0, 0]]})

    def test_doc_rejects_empty_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            matrix_from_doc({"rows": 0, "cols": 0, "data": []})

    def test_doc_roundtrip(self):
        m = np.array([[1 + 2j, 3]], dtype=complex)
        assert np.array_equal(matrix_from_doc(matrix_to_doc(m)), m)


class TestCheckCommand:
    def test_member_pair_exits_zero(self, tmp_path, capsys):
        s = _write(tmp_path / "S.json", np.zeros((2, 2)))
        p = _write(tmp_path / "P.json", np.zeros((2, 2)))
        code = main(["check", s, p, "--grid-angular", "64"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["gamma_contraction"] is True
        assert abs(report["margin"] - 2.0) <= 1e-12
        assert report["pure"] is True

    def test_non_member_exits_one(self, tmp_path):
        s = _write(tmp_path / "S.json", [[3.0]])
        p = _write(tmp_path / "P.json", [[0.0]])
        assert main(["check", s, p, "--grid-angular", "64"]) == 1

    def test_radius_above_two_exits_one(self, tmp_path, capsys):
        # s = conj(s) p with |p| = 1 passes the circle; r(S) = 2.0025 refutes it
        s = _write(tmp_path / "S.json", [[2.0025 * np.exp(0.35j)]])
        p = _write(tmp_path / "P.json", [[np.exp(0.7j)]])
        assert main(["check", s, p]) == 1
        assert json.loads(capsys.readouterr().out)["gamma_contraction"] is False

    @pytest.mark.parametrize("s, p, isometric", [
        (2.0, 1.0, True),
        # pi(1 - delta, 1 - delta) at delta = 1e-10: the defect 4 delta is kept
        (2.0 * (1.0 - 1e-10), (1.0 - 1e-10) ** 2, False),
    ], ids=["unitary", "pinched"])
    def test_isometric_or_pure_not_both(self, tmp_path, capsys, s, p, isometric):
        main(["check", _write(tmp_path / "S.json", [[s]]), _write(tmp_path / "P.json", [[p]])])
        report = json.loads(capsys.readouterr().out)
        assert (report["gamma_isometry"], report["pure"]) == (isometric, not isometric)

    def test_grid_radial_flag_is_gone(self, tmp_path):
        s = _write(tmp_path / "S.json", np.zeros((2, 2)))
        p = _write(tmp_path / "P.json", np.zeros((2, 2)))
        with pytest.raises(SystemExit) as exc:
            main(["check", s, p, "--grid-radial", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("scale, code", [(1e200, 2), (1e150, 1)], ids=["overflow", "1e150"])
    def test_large_pair_exit_code(self, tmp_path, capsys, scale, code):
        # S = P = [[0, scale], [0, 0]]: at 1e200, P*P overflows, and check
        # exits 2 with no report; at 1e150, P*P is finite, and the pair is
        # refused with a report in strict JSON
        m = _write(tmp_path / "M.json", [[0.0, scale], [0.0, 0.0]])
        assert main(["check", m, m]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and "overflows" in err
        else:
            assert _strict_json(out)["gamma_contraction"] is False

    def test_shape_mismatch_exits_two(self, tmp_path):
        s = _write(tmp_path / "S.json", np.zeros((2, 2)))
        p = _write(tmp_path / "P.json", [[0.0]])
        assert main(["check", s, p]) == 2

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        p = _write(tmp_path / "P.json", [[0.0]])
        assert main(["check", str(bad), p]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_exits_two(self, tmp_path, value):
        # margin -4: a tolerance that compares false must not accept it
        s = _write(tmp_path / "S.json", 3.0 * np.eye(2))
        p = _write(tmp_path / "P.json", np.zeros((2, 2)))
        assert main(["check", s, p, "--tol-psd", value]) == 2


# A subcommand rejects the tolerance flags it does not read; --grid-angular
# stands in for check --refine.
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "S.json", "P.json", "--refine"],
        ["variety", "A.json", "--tol-rank", "0.5"],
        ["variety", "A.json", "--tol-residual", "0.5"],
        ["variety", "A.json", "--grid-angular", "2"],
        ["vn", "--random", "1", "--grid-angular", "2"],
        ["model", "S.json", "P.json", "--grid-angular", "2"],
        ["gen", "fhat", "--prefix", "g", "--tol-rank", "0.5"],
    ],
    ids=["check --refine", "variety --tol-rank", "variety --tol-residual",
         "variety --grid-angular", "vn --grid-angular", "model --grid-angular",
         "gen --tol-rank"],
)
def test_removed_flag_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["check", "S", "P"], ["fundop", "S", "P"], ["variety", "A"], ["vn"],
     ["model", "S", "P"], ["gen", "fhat", "--prefix", "g"]],
    ids=lambda argv: argv[0],
)
def test_tolerance_defaults_are_default_tol(argv):
    assert _tol_from_args(build_parser().parse_args(argv)) == DEFAULT_TOL


_GOOD = {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}
_POLY = {"block_dim": 1, "terms": [{"i": 1, "j": 0, "matrix": _GOOD}]}
_EYE100 = {"rows": 100, "cols": 100,
           "data": [[float(a == b), 0.0] for a in range(100) for b in range(100)]}


@pytest.mark.parametrize(
    "matrix, poly, code",
    [
        (_GOOD, _POLY, 0),
        ({"rows": 1, "cols": 2, "data": [1, 2]}, _POLY, 2),
        ({"rows": 1, "cols": 1, "data": None}, _POLY, 2),
        ({"rows": 1, "cols": 1, "data": [[None, 0]]}, _POLY, 2),
        (_GOOD, {"block_dim": 1, "terms": [{"j": 0, "matrix": _GOOD}]}, 2),
        # a negative index would silently add to the highest-degree coefficient
        (_GOOD, {"block_dim": 1, "terms": _POLY["terms"] + [{"i": -1, "j": 0, "matrix": _GOOD}]}, 2),
        (_GOOD, {"terms": _POLY["terms"]}, 2),
        (_GOOD, {"block_dim": 0, "terms": _POLY["terms"]}, 2),
        (_GOOD, {"block_dim": 1, "terms": []}, 2),
        (_GOOD, {"block_dim": 2, "terms": _POLY["terms"]}, 2),
        # non-integral sizes and degrees were truncated: 1.9 rows read as 1
        ({"rows": 1.9, "cols": 1, "data": [[0.5, 0.0]]}, _POLY, 2),
        ({"rows": 1, "cols": 1.5, "data": [[0.5, 0.0]]}, _POLY, 2),
        (_GOOD, {"block_dim": 1.5, "terms": _POLY["terms"]}, 2),
        (_GOOD, {"block_dim": 1, "terms": [{"i": 1.7, "j": 0, "matrix": _GOOD}]}, 2),
        (_GOOD, {"block_dim": 1, "terms": [{"i": 1, "j": 0.5, "matrix": _GOOD}]}, 2),
        (_GOOD, {"block_dim": 1, "terms": [{"i": 0, "j": 1024, "matrix": _GOOD}]}, 0),
        (_GOOD, {"block_dim": 1, "terms": [{"i": 1025, "j": 0, "matrix": _GOOD}]}, 2),
        # raised before allocating: degree 1e10 asked for a 149 GiB array
        (_GOOD, {"block_dim": 1, "terms": [{"i": 10**10, "j": 0, "matrix": _GOOD}]}, 2),
        # raised before allocating: a 100 x 100 block at the degree cap asked
        # for a 168 GB array
        (_GOOD, {"block_dim": 100, "terms": [{"i": 1024, "j": 1024, "matrix": _EYE100}]}, 2),
        # JSON true is not the integer 1: it read as one row, column or degree
        ({"rows": True, "cols": True, "data": [[0.5, 0.0]]}, _POLY, 2),
        ({"rows": 1, "cols": True, "data": [[0.5, 0.0]]}, _POLY, 2),
        (_GOOD, {"block_dim": True, "terms": _POLY["terms"]}, 2),
        (_GOOD, {"block_dim": 1, "terms": [{"i": True, "j": 0, "matrix": _GOOD}]}, 2),
        (_GOOD, {"block_dim": 1, "terms": [{"i": 1, "j": True, "matrix": _GOOD}]}, 2),
        # entries went through float(): " 2 " read as 2, "1_0" as 10 and
        # true as 1, and a 401-digit integer raised OverflowError past main
        ({"rows": 1, "cols": 1, "data": [[" 2 ", 0]]}, _POLY, 2),
        ({"rows": 1, "cols": 1, "data": [["1_0", 0]]}, _POLY, 2),
        ({"rows": 1, "cols": 1, "data": [[True, False]]}, _POLY, 2),
        ({"rows": 1, "cols": 1, "data": [[10**400, 0]]}, _POLY, 2),
        (_GOOD, {"block_dim": 1, "terms": [{"i": 1, "j": 0, "matrix": {
            "rows": 1, "cols": 1, "data": [["1", 0]]}}]}, 2),
        (_GOOD, {"block_dim": 1, "terms": [{"i": 1, "j": 0, "matrix": {
            "rows": 1, "cols": 1, "data": [[True, 0]]}}]}, 2),
    ],
    ids=["well-formed", "data-not-pairs", "data-null", "entry-null", "term-without-i",
         "negative-degree", "no-block-dim", "zero-block-dim", "no-terms",
         "term-shape-mismatch", "fractional-rows", "fractional-cols",
         "fractional-block-dim", "fractional-i", "fractional-j", "degree-at-cap",
         "degree-above-cap", "huge-degree", "huge-block", "true-rows", "true-cols",
         "true-block-dim", "true-i", "true-j", "string-entry", "underscore-string-entry",
         "true-entry", "huge-integer-entry", "term-string-entry", "term-true-entry"],
)
def test_json_document_exit_code(tmp_path, capsys, monkeypatch, matrix, poly, code):
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        # an oversized document must be refused, not allocated
        if np.prod(shape, dtype=float) > 2**24:
            raise MemoryError(f"np.zeros{shape} in a test")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded)
    (tmp_path / "S.json").write_text(json.dumps(matrix))
    (tmp_path / "f.json").write_text(json.dumps(poly))
    p = _write(tmp_path / "P.json", [[0.0]])
    args = ["vn", str(tmp_path / "S.json"), p, "--poly", str(tmp_path / "f.json"), "--m", "8"]
    assert main(args) == code
    capsys.readouterr()


@pytest.mark.parametrize(
    "entry",
    ['[" 2 ", 0]', '["1_0", 0]', "[true, false]", "[0, null]", f"[1{'0' * 400}, 0]",
     "[0.5, 1e400]"],
    ids=["spaced-string", "underscore-string", "true", "null", "huge-integer",
         "float-overflow"],
)
def test_malformed_matrix_entry_message(tmp_path, capsys, entry):
    """Each entry part must be a JSON number, not a bool, with a finite
    float value."""
    path = tmp_path / "S.json"
    path.write_text(f'{{"rows": 1, "cols": 1, "data": [{entry}]}}')
    p = _write(tmp_path / "P.json", [[0.0]])
    assert main(["check", str(path), p]) == 2
    assert "malformed matrix entry" in capsys.readouterr().err


class TestFundopCommand:
    def test_scalar(self, scalar_pair_files, capsys):
        s, p = scalar_pair_files
        code = main(["fundop", s, p, "--grid-angular", "64"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["rank"] == 1
        assert abs(report["F"]["data"][0][0] - 0.8) <= 1e-10
        assert report["nr"] <= 1 + 1e-9

    def test_near_unitary_members_exit_zero(self, tmp_path, capsys):
        # check accepts each pair, so fundop must too, though w(F) exceeds
        # 1 + psd_tol on three of them (the bound of solve_fundamental)
        for k, pair in enumerate(rotated_near_unitary_pairs(6)):
            s = _write(tmp_path / f"S{k}.json", pair.S)
            p = _write(tmp_path / f"P{k}.json", pair.P)
            assert main(["check", s, p]) == 0
            assert json.loads(capsys.readouterr().out)["gamma_contraction"] is True
            assert main(["fundop", s, p]) == 0
            assert json.loads(capsys.readouterr().out)["gamma_contraction"] is True

    def test_radius_above_one_exits_three(self, tmp_path, capsys):
        # the pencil is 2 at both phases +-1 of a two-phase grid and
        # r(S) = 1.9, so the pair passes; then w(F) = 1.9 breaks the bound
        s = _write(tmp_path / "S.json", [[1.9j]])
        p = _write(tmp_path / "P.json", [[0.0]])
        assert main(["fundop", s, p, "--grid-angular", "2"]) == 3
        assert "numerical radius 1.900000000000 exceeds 1" in capsys.readouterr().err
        assert main(["fundop", s, p]) == 0
        assert json.loads(capsys.readouterr().out)["gamma_contraction"] is False


class TestVarietyCommand:
    def test_example_one_empirical(self, tmp_path, capsys):
        a = np.zeros((3, 3), complex)
        a[0, 1] = 2.0
        path = _write(tmp_path / "A.json", a)
        code = main(["variety", path, "--angles", "64"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "DISTINGUISHED_EMPIRICAL"

    def test_example_two_not_distinguished(self, tmp_path, capsys):
        a = np.zeros((3, 3), complex)
        a[0, 1] = 2.0
        a[2, 2] = 1.0
        path = _write(tmp_path / "A.json", a)
        code = main(["variety", path, "--angles", "64"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "NOT_DISTINGUISHED_CERTIFIED"
        assert abs(report["witness"][0][0] - 1.0) <= 1e-9

    def test_csv_export(self, tmp_path, capsys):
        path = _write(tmp_path / "A.json", [[0.5]])
        out_csv = tmp_path / "b.csv"
        code = main(["variety", path, "--sample", "16", "--csv", str(out_csv)])
        capsys.readouterr()
        assert code == 0
        header = out_csv.read_text().splitlines()[0]
        assert header == "theta,re_s,im_s,re_p,im_p,region_tag"

    def test_sample_without_csv_is_an_error(self, tmp_path):
        path = _write(tmp_path / "A.json", [[0.5]])
        assert main(["variety", path, "--sample", "16"]) == 2

    def test_csv_without_sample_is_an_error(self, tmp_path, capsys):
        path = _write(tmp_path / "A.json", [[0.5]])
        out_csv = tmp_path / "b.csv"
        assert main(["variety", path, "--csv", str(out_csv)]) == 2
        assert "--csv requires --sample N" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_non_positive_sample_is_an_error(self, tmp_path, count):
        path = _write(tmp_path / "A.json", [[0.5]])
        out_csv = tmp_path / "b.csv"
        assert main(["variety", path, "--sample", count, "--csv", str(out_csv)]) == 2
        assert not out_csv.exists()

    def test_zero_angles_is_an_error(self, tmp_path):
        a = np.zeros((3, 3), complex)
        a[0, 1] = 2.0
        path = _write(tmp_path / "A.json", a)
        assert main(["variety", path, "--angles", "0"]) == 2

    def test_golden_report_and_csv(self, tmp_path):
        # a radius-one matrix: report and CSV recorded with the per-point
        # implementation must come out byte for byte
        data = Path(__file__).parent / "data"
        rep, out_csv = tmp_path / "report.json", tmp_path / "b.csv"
        code = main(["variety", str(data / "variety_A.json"), "--angles", "256",
                     "--sample", "64", "--csv", str(out_csv), "--out", str(rep)])
        assert code == 0
        assert rep.read_bytes() == (data / "variety_report.json").read_bytes()
        assert out_csv.read_bytes() == (data / "variety_boundary.csv").read_bytes()

    def test_coarser_sample_solves_its_own_grid(self, tmp_path, fiber_solves):
        data = Path(__file__).parent / "data"
        code = main(["variety", str(data / "variety_A.json"), "--angles", "256",
                     "--sample", "64", "--csv", str(tmp_path / "b.csv"),
                     "--out", str(tmp_path / "report.json")])
        assert code == 0
        assert sum(fiber_solves) == 256 + 64


class TestSampleBound:
    """Every count a command reads is checked against its upper bound
    before anything of that size is allocated or run: above it, the
    command exits 2 with one message and writes no report, CSV or
    generated pair."""

    # case -> (bound, the start of the message above it)
    BOUNDS = {
        "--angles": (2**16, "sample count must be positive"),
        "--sample": (2**16, "sample count must be positive"),
        "--m": (2**16, "sample count must be positive"),
        "--grid-angular": (2**16, "sample count must be positive"),
        "gen --grid-angular": (2**16, "sample count must be positive"),
        "model --mmax": (64, "power bound must be nonnegative"),
        "model --nmax": (64, "power bound must be nonnegative"),
        "model --level": (4096, "block count must be positive"),
        "gen --dim": (128, "--dim must be positive"),
        "vn --random": (2**16, "--random must be positive"),
    }
    # running K = 2^16 random reports is not cheap: see test_random_bound
    CHEAP = [case for case in BOUNDS if case != "vn --random"]

    @staticmethod
    def _argv(case, count, tmp_path, pair):
        a = _write(tmp_path / "A.json", [[0.5]])
        s, p = pair
        poly = tmp_path / "f.json"
        poly.write_text(json.dumps({"block_dim": 1, "terms": [
            {"i": 1, "j": 0, "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}]}))
        prefix = str(tmp_path / "g")
        return {
            "--angles": ["variety", a, "--angles", count],
            "--sample": ["variety", a, "--sample", count, "--csv", str(tmp_path / "b.csv")],
            "--m": ["vn", s, p, "--poly", str(poly), "--m", count],
            "--grid-angular": ["check", s, p, "--grid-angular", count],
            "gen --grid-angular": ["gen", "strict", "--prefix", prefix, "--grid-angular", count],
            # the level the scalar pair reaches by itself, 16, is too short for
            # T^64: its residual then exceeds the bound, and the command exits 3
            "model --mmax": ["model", s, p, "--level", "64", "--mmax", count],
            "model --nmax": ["model", s, p, "--nmax", count],
            "model --level": ["model", s, p, "--level", count],
            "gen --dim": ["gen", "symmetrized", "--prefix", prefix, "--dim", count],
            "vn --random": ["vn", "--random", count, "--m", "8"],
        }[case]

    ABOVE = [(case, str(n)) for case, (bound, _) in BOUNDS.items() for n in (bound + 1, 10**12)]

    @pytest.mark.parametrize("case, count", ABOVE, ids=[f"{c}-{n}" for c, n in ABOVE])
    def test_count_above_the_bound_exits_two(self, case, count, tmp_path, scalar_pair_files,
                                             capsys):
        bound, message = self.BOUNDS[case]
        assert main(self._argv(case, count, tmp_path, scalar_pair_files)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message} and at most {bound}, got {count}\n"
        assert not (tmp_path / "b.csv").exists() and not list(tmp_path.glob("g-*"))

    @pytest.mark.parametrize("case", CHEAP)
    def test_the_bound_itself_is_accepted(self, case, tmp_path, scalar_pair_files, capsys):
        bound = str(self.BOUNDS[case][0])
        assert main(self._argv(case, bound, tmp_path, scalar_pair_files)) == 0
        assert _strict_json(capsys.readouterr().out)

    def test_random_bound(self):
        assert cli._MAX_RANDOM == 2**16
        assert _count(2**16, "--random", 1, cli._MAX_RANDOM) == 2**16

    def test_numpy_integer_is_a_count(self):
        got = _count(np.int64(7), "count", 1, 8)
        assert got == 7 and type(got) is int

    @pytest.mark.parametrize("x, message", [
        (True, "count must be an integer, got True"),
        (np.bool_(True), f"count must be an integer, got {np.bool_(True)!r}"),
        (2.0, "count must be an integer, got 2.0"),
        (10**30, f"count must be positive and at most 8, got {10**30}"),
        (0, "count must be positive and at most 8, got 0"),
    ], ids=["true", "numpy-bool", "float", "10^30", "zero"])
    def test_helper_rejects(self, x, message):
        with pytest.raises(ValueError) as exc:
            _count(x, "count", 1, 8)
        assert str(exc.value) == message

    def test_nonnegative_form(self):
        assert _count(0, "count", 0, 8) == 0
        with pytest.raises(ValueError, match=r"^count must be nonnegative and at most 8, got -1$"):
            _count(-1, "count", 0, 8)


class TestVnCommand:
    def test_single_report(self, scalar_pair_files, tmp_path, capsys):
        s, p = scalar_pair_files
        poly = tmp_path / "f.json"
        poly.write_text(
            json.dumps(
                {
                    "block_dim": 1,
                    "terms": [
                        {"i": 1, "j": 0,
                         "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}
                    ],
                }
            )
        )
        code = main(["vn", s, p, "--poly", str(poly), "--m", "256"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["holds"] is True
        assert abs(report["lhs"] - 1.0) <= 1e-10
        assert abs(report["rhs"] - 1.6) <= 1e-6

    def test_zero_boundary_maximum_writes_null_ratio(self):
        # no member pair reaches rhs = 0, so the report is built by hand
        rep = VNReport(lhs=2.0, rhs=0.0, ratio=math.inf, holds=False, m=65536,
                       sample_count=65536, argmax=GammaPoint(0j, 1 + 0j), argmax_theta=0.0)
        report = _strict_json(cli.dumps(cli._vn_single_report(rep)))
        assert report["ratio"] is None
        assert report["rhs"] == 0.0
        assert report["holds"] is False

    def test_unitary_pair_holds_with_equality(self, tmp_path, capsys):
        # P unitary: the representation S / 2 carries the point (2, 1), where
        # f = s / 2 has modulus 1 = ||f(S, P)||
        s = _write(tmp_path / "S.json", [[2.0]])
        p = _write(tmp_path / "P.json", [[1.0]])
        poly = tmp_path / "f.json"
        poly.write_text(json.dumps(_POLY))
        assert main(["vn", s, p, "--poly", str(poly)]) == 0
        report = _strict_json(capsys.readouterr().out)
        assert report["ratio"] == 1.0
        assert report["rhs"] == 1.0
        assert report["holds"] is True
        assert "degenerate" not in report

    def test_random_batch_writes_null_for_infinite_ratios(self, monkeypatch, capsys):
        real = cli.vn_report

        def unbounded(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), ratio=math.inf, holds=False)

        monkeypatch.setattr(cli, "vn_report", unbounded)
        assert main(["vn", "--random", "2", "--m", "64"]) == 3
        report = _strict_json(capsys.readouterr().out)
        assert report["min_ratio"] is None and report["max_ratio"] is None

    @pytest.mark.parametrize("given", [["S", "P"], ["S", "P", "--poly"], ["--poly"], ["S"]],
                             ids=["pair", "pair-and-poly", "poly", "S"])
    def test_random_with_files_exits_two(self, scalar_pair_files, tmp_path, capsys, given):
        # K random reports would say nothing about the files given
        s, p = scalar_pair_files
        poly = tmp_path / "f.json"
        poly.write_text(json.dumps(_POLY))
        files = {"S": [s], "P": [p], "--poly": ["--poly", str(poly)]}
        argv = ["vn", *[a for g in given for a in files[g]], "--random", "3", "--m", "8"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --random K reads no S-file, P-file or --poly\n"

    def test_random_batch_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["vn", "--random", "3", "--seed", "7", "--m", "128"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["all_hold"] is True
        assert report["count"] == 3

    @pytest.mark.parametrize("primed", [False, True], ids=["whole-grid", "pruned"])
    def test_overflowing_boundary_exits_two(self, scalar_pair_files, tmp_path, capsys, primed):
        # 1e308 s^3 on a strict pair: ||f(S, P)|| is finite, but f overflows
        # on the boundary, so no maximum holds: exit 2, no report, no doubled
        # grid.  After a report on another pair, the pruned path falls back
        # to the whole grid first.
        prefix = str(tmp_path / "x")
        assert main(["gen", "strict", "--seed", "7", "--dim", "3", "--prefix", prefix]) == 0
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"block_dim": 1, "terms": [
            {"i": 3, "j": 0, "matrix": {"rows": 1, "cols": 1, "data": [[1e308, 0.0]]}}]}))
        if primed:
            poly = tmp_path / "f.json"
            poly.write_text(json.dumps(_POLY))
            assert main(["vn", *scalar_pair_files, "--poly", str(poly)]) == 0
        capsys.readouterr()
        assert main(["vn", f"{prefix}-S.json", f"{prefix}-P.json", "--poly", str(big)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflows" in err

    def test_overflowing_value_exits_two(self, tmp_path, capsys):
        # 1e308 s^3 on S = 2, P = 1: f(S, P) = 8e308 overflows, so there is
        # no left-hand side: exit 2 and no report
        pair = _write(tmp_path / "S.json", [[2.0]]), _write(tmp_path / "P.json", [[1.0]])
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"block_dim": 1, "terms": [
            {"i": 3, "j": 0, "matrix": {"rows": 1, "cols": 1, "data": [[1e308, 0.0]]}}]}))
        assert main(["vn", *pair, "--poly", str(big)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "f(S, P) overflows" in err

    def test_missing_inputs_is_an_error(self):
        assert main(["vn"]) == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_random_batch_is_an_error(self, count, capsys):
        assert main(["vn", "--random", count]) == 2
        assert capsys.readouterr().out == ""


class TestModelCommand:
    def test_scalar_model(self, scalar_pair_files, capsys):
        s, p = scalar_pair_files
        code = main(["model", s, p, "--level", "16"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["tail"] <= 1e-8
        assert report["max_residual"] <= report["bound"] + 1e-10

    def test_powers_past_the_level(self, scalar_pair_files, capsys):
        # N = 16 < n_max: the compressions of V^n with n >= N are 0
        s, p = scalar_pair_files
        code = main(["model", s, p, "--level", "16", "--nmax", "20"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["N"] == 16
        assert report["max_residual"] <= report["bound"] + 1e-10

    def test_non_pure_pair_exits_two(self, tmp_path):
        s = _write(tmp_path / "S.json", [[2.0]])
        p = _write(tmp_path / "P.json", [[1.0]])
        assert main(["model", s, p]) == 2

    def test_level_above_the_cap_exits_two(self, scalar_pair_files, capsys):
        s, p = scalar_pair_files
        assert main(["model", s, p, "--level", "4097"]) == 2
        assert "block count must be positive and at most 4096, got 4097" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mmax", "--nmax"])
    def test_negative_power_bound_exits_two(self, scalar_pair_files, capsys, flag):
        s, p = scalar_pair_files
        assert main(["model", s, p, flag, "-1"]) == 2
        assert capsys.readouterr().out == ""


class TestGenCommand:
    def test_strict_generation_certifies(self, tmp_path, capsys):
        code = main(
            ["gen", "strict", "--seed", "3", "--dim", "3", "--r", "0.9",
             "--prefix", str(tmp_path / "pair"),
             "--grid-angular", "128"]
        )
        manifest = json.loads(capsys.readouterr().out)
        assert code == 0
        assert manifest["strictness"] > 0
        s = read_matrix_file(str(tmp_path / "pair-S.json"))
        assert s.shape == (3, 3)

    def test_non_strict_generation_exits_three(self, tmp_path, capsys):
        # a positivity tolerance above every margin makes no pair strict
        code = main(["gen", "strict", "--seed", "7", "--prefix", str(tmp_path / "x"),
                     "--tol-psd", "10"])
        out, err = capsys.readouterr()
        assert code == 3
        assert (out, err) == ("", "error: generated pair is not strict\n")
        assert list(tmp_path.iterdir()) == []

    def test_generated_pair_passes_check(self, tmp_path, capsys):
        code = main(
            ["gen", "symmetrized", "--seed", "5", "--dim", "3",
             "--prefix", str(tmp_path / "g")]
        )
        capsys.readouterr()
        assert code == 0
        code = main(
            ["check", str(tmp_path / "g-S.json"), str(tmp_path / "g-P.json"),
             "--grid-angular", "128"]
        )
        capsys.readouterr()
        assert code == 0

    def test_fhat_generation(self, tmp_path, capsys):
        code = main(
            ["gen", "fhat", "--seed", "9", "--dim", "2",
             "--prefix", str(tmp_path / "f")]
        )
        capsys.readouterr()
        assert code == 0
        f = read_matrix_file(str(tmp_path / "f-F.json"))
        assert f.shape == (2, 2)

    @pytest.mark.parametrize("kind", ["fhat", "symmetrized", "strict"])
    def test_non_positive_dim_is_an_error(self, tmp_path, capsys, kind):
        code = main(["gen", kind, "--dim", "0", "--prefix", str(tmp_path / "g")])
        assert code == 2
        assert "--dim" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
