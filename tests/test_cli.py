import json
from pathlib import Path

import numpy as np
import pytest

from symbidisc.cli import (
    main,
    matrix_from_doc,
    matrix_to_doc,
    read_matrix_file,
    write_matrix_file,
)


def _write(path, m):
    write_matrix_file(str(path), np.asarray(m, dtype=complex))
    return str(path)


@pytest.fixture
def scalar_pair_files(tmp_path):
    s = _write(tmp_path / "S.json", [[1.0]])
    p = _write(tmp_path / "P.json", [[0.25]])
    return s, p


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
        code = main(["check", s, p, "--grid-angular", "64", "--grid-radial", "5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["gamma_contraction"] is True
        assert abs(report["margin"] - 2.0) <= 1e-12
        assert report["pure"] is True

    def test_non_member_exits_one(self, tmp_path):
        s = _write(tmp_path / "S.json", [[3.0]])
        p = _write(tmp_path / "P.json", [[0.0]])
        assert main(["check", s, p, "--grid-angular", "64", "--grid-radial", "5"]) == 1

    def test_refine_doubles_grid(self, tmp_path, capsys):
        s = _write(tmp_path / "S.json", np.zeros((2, 2)))
        p = _write(tmp_path / "P.json", np.zeros((2, 2)))
        code = main(["check", s, p, "--grid-angular", "32", "--grid-radial", "3",
                     "--refine", "--refine"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["gamma_contraction"] is True

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


_GOOD = {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}
_POLY = {"block_dim": 1, "terms": [{"i": 1, "j": 0, "matrix": _GOOD}]}


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
    ],
    ids=["well-formed", "data-not-pairs", "data-null", "entry-null", "term-without-i",
         "negative-degree"],
)
def test_json_document_exit_code(tmp_path, capsys, matrix, poly, code):
    (tmp_path / "S.json").write_text(json.dumps(matrix))
    (tmp_path / "f.json").write_text(json.dumps(poly))
    p = _write(tmp_path / "P.json", [[0.0]])
    args = ["vn", str(tmp_path / "S.json"), p, "--poly", str(tmp_path / "f.json"), "--m", "8"]
    assert main(args) == code
    capsys.readouterr()


class TestFundopCommand:
    def test_scalar(self, scalar_pair_files, capsys):
        s, p = scalar_pair_files
        code = main(["fundop", s, p, "--grid-angular", "64", "--grid-radial", "5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["rank"] == 1
        assert abs(report["F"]["data"][0][0] - 0.8) <= 1e-10
        assert report["nr"] <= 1 + 1e-9


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

    def test_random_batch_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["vn", "--random", "3", "--seed", "7", "--m", "128",
                "--grid-angular", "64", "--grid-radial", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["all_hold"] is True
        assert report["count"] == 3

    def test_missing_inputs_is_an_error(self):
        assert main(["vn"]) == 2


class TestModelCommand:
    def test_scalar_model(self, scalar_pair_files, capsys):
        s, p = scalar_pair_files
        code = main(["model", s, p, "--level", "16"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["tail"] <= 1e-8
        assert report["max_residual"] <= report["bound"] + 1e-10

    def test_non_pure_pair_exits_two(self, tmp_path):
        s = _write(tmp_path / "S.json", [[2.0]])
        p = _write(tmp_path / "P.json", [[1.0]])
        assert main(["model", s, p]) == 2


class TestGenCommand:
    def test_strict_generation_certifies(self, tmp_path, capsys):
        code = main(
            ["gen", "strict", "--seed", "3", "--dim", "3", "--r", "0.9",
             "--prefix", str(tmp_path / "pair"),
             "--grid-angular", "128", "--grid-radial", "5"]
        )
        manifest = json.loads(capsys.readouterr().out)
        assert code == 0
        assert manifest["strictness"] > 0
        s = read_matrix_file(str(tmp_path / "pair-S.json"))
        assert s.shape == (3, 3)

    def test_generated_pair_passes_check(self, tmp_path, capsys):
        code = main(
            ["gen", "symmetrized", "--seed", "5", "--dim", "3",
             "--prefix", str(tmp_path / "g")]
        )
        capsys.readouterr()
        assert code == 0
        code = main(
            ["check", str(tmp_path / "g-S.json"), str(tmp_path / "g-P.json"),
             "--grid-angular", "128", "--grid-radial", "5"]
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
