"""Command-line front end with JSON matrix I/O and seeded batch runs.

Matrix files are JSON documents
``{"rows": R, "cols": C, "data": [[re, im], ...]}`` with row-major data.
Reports are emitted as sorted-key JSON so that identical seeds and
configurations produce byte-identical output.

Exit codes: 0 success (and positive verdicts), 1 negative verdict,
2 input/validation error, 3 violated invariant of a wrapped operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .fundamental import FundamentalBoundError, solve_fundamental
from .gamma_pairs import (
    OperatorPair,
    check_gamma_contraction,
    check_gamma_isometry,
    check_pure,
    make_operator_pair,
    strictness_constant,
)
from .generators import (
    random_fhat,
    random_matrix_polynomial,
    random_model_pair,
    random_strict_pair,
    random_symmetrized_pair,
    rng_from_seed,
)
from .model_theory import build_model, dilation_check
from .numerics import Tolerances, as_matrix
from .varieties import DeterminantalVariety, classify_distinguished, write_boundary_csv
from .von_neumann import MatrixPolynomial, vn_report

__all__ = ["main", "entrypoint", "read_matrix_file", "write_matrix_file"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------


def matrix_to_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in m.ravel()],
    }


def matrix_from_doc(doc: dict) -> np.ndarray:
    """Matrix of a JSON document; ``ValueError`` for any malformed document."""
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
        data = list(doc["data"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(data) != rows * cols:
        raise ValueError(
            f"matrix document has {len(data)} entries, expected {rows * cols}"
        )
    try:
        flat = np.array(
            [complex(float(re), float(im)) for re, im in data], dtype=complex
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    return as_matrix(flat.reshape(rows, cols))


def read_matrix_file(path: str) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_doc(json.load(fh))


def write_matrix_file(path: str, m: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(matrix_to_doc(m)))


def poly_from_doc(doc: dict) -> MatrixPolynomial:
    """Polynomial document: {"block_dim": k, "terms": [{"i", "j", "matrix"}]}."""
    try:
        k = int(doc["block_dim"])
        terms = doc["terms"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed polynomial document: {exc}") from exc
    if k < 1 or not terms:
        raise ValueError("polynomial needs block_dim >= 1 and at least one term")
    try:
        parsed = [(int(t["i"]), int(t["j"]), matrix_from_doc(t["matrix"])) for t in terms]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed polynomial term: {exc!r}") from exc
    for i, j, m in parsed:
        if min(i, j) < 0:
            raise ValueError("term degrees must be nonnegative")
        if m.shape != (k, k):
            raise ValueError(f"term matrix shape {m.shape} does not match block_dim")
    deg_s = max(i for i, _, _ in parsed)
    deg_p = max(j for _, j, _ in parsed)
    coeffs = np.zeros((deg_s + 1, deg_p + 1, k, k), dtype=complex)
    for i, j, m in parsed:
        coeffs[i, j] += m
    return MatrixPolynomial.from_coeffs(coeffs)


def read_poly_file(path: str) -> MatrixPolynomial:
    with open(path) as fh:
        return poly_from_doc(json.load(fh))


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return _jsonable(list(x))
    return x


def dumps(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


def _emit(report: dict, out_path: str | None) -> None:
    text = dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _tol_from_args(args) -> Tolerances:
    return Tolerances(
        psd_tol=args.tol_psd,
        rank_tol=args.tol_rank,
        residual_tol=args.tol_residual,
        grid_angular=args.grid_angular,
        grid_radial=args.grid_radial,
    )


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol-psd", type=float, default=1e-9)
    sub.add_argument("--tol-rank", type=float, default=1e-10)
    sub.add_argument("--tol-residual", type=float, default=1e-8)
    sub.add_argument("--grid-angular", type=int, default=1024)
    sub.add_argument("--grid-radial", type=int, default=21)
    sub.add_argument("--out", default=None, help="write the JSON report here")


def _load_pair(args, tol: Tolerances) -> OperatorPair:
    s = read_matrix_file(args.s_file)
    p = read_matrix_file(args.p_file)
    return make_operator_pair(s, p, tol)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symbidisc",
        description="operator-pair certificates and varieties in the symmetrized bidisc",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="membership, strictness, purity, isometry")
    p.add_argument("s_file")
    p.add_argument("p_file")
    p.add_argument("--refine", action="count", default=0,
                   help="double the certification grid (repeatable)")
    _common_flags(p)

    p = subs.add_parser("fundop", help="solve the fundamental equation")
    p.add_argument("s_file")
    p.add_argument("p_file")
    _common_flags(p)

    p = subs.add_parser("variety", help="classify a determinantal variety")
    p.add_argument("a_file")
    p.add_argument("--angles", type=int, default=256, help="fiber angles for the verdict")
    p.add_argument("--sample", type=int, default=None, help="boundary samples for CSV export")
    p.add_argument("--csv", default=None, help="CSV output path (with --sample)")
    _common_flags(p)

    p = subs.add_parser("vn", help="von Neumann inequality report")
    p.add_argument("s_file", nargs="?")
    p.add_argument("p_file", nargs="?")
    p.add_argument("--poly", default=None, help="matrix-polynomial JSON file")
    p.add_argument("--random", type=int, default=None, metavar="K",
                   help="run K seeded random instances instead of files")
    p.add_argument("--m", type=int, default=2048, help="boundary sample count")
    p.add_argument("--seed", type=int, default=0)
    _common_flags(p)

    p = subs.add_parser("model", help="truncated dilation model and residuals")
    p.add_argument("s_file")
    p.add_argument("p_file")
    p.add_argument("--level", type=int, default=None, help="initial truncation level")
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--nmax", type=int, default=3)
    _common_flags(p)

    p = subs.add_parser("gen", help="seeded pair generators")
    p.add_argument("kind", choices=["symmetrized", "model", "strict", "fhat"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--r", type=float, default=0.9, help="scale for strict pairs")
    p.add_argument("--prefix", required=True, help="output file prefix")
    _common_flags(p)

    return ap


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    tol = _tol_from_args(args)
    for _ in range(args.refine):
        tol = replace(
            tol,
            grid_angular=2 * tol.grid_angular,
            grid_radial=2 * tol.grid_radial,
        )
    pair = _load_pair(args, tol)
    verdict = check_gamma_contraction(pair, tol)
    c = verdict.margin  # the sweep minimum doubles as the strictness constant
    iso = check_gamma_isometry(pair, tol)
    pure = check_pure(pair.P, tol) if pair.p_norm <= 1.0 + tol.psd_tol else False
    report = {
        "dim": pair.dim,
        "commutator_defect": pair.commutator_defect,
        "gamma_contraction": verdict.is_member,
        "margin": verdict.margin,
        "witness_alpha": complex(verdict.witness.alpha) if verdict.witness else None,
        "strictness": c,
        "strict": c > tol.psd_tol,
        "pure": pure,
        "gamma_isometry": iso.is_member,
        "isometry_margin": iso.margin,
    }
    _emit(report, args.out)
    return EXIT_OK if verdict.is_member else EXIT_FALSE


def _cmd_fundop(args) -> int:
    tol = _tol_from_args(args)
    pair = _load_pair(args, tol)
    member = check_gamma_contraction(pair, tol).is_member
    try:
        fund = solve_fundamental(pair, tol, contraction_verified=member)
    except FundamentalBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    report = {
        "gamma_contraction": member,
        "rank": fund.defect.rank,
        "residual": fund.residual,
        "nr": fund.nr,
        "F": matrix_to_doc(fund.F),
    }
    _emit(report, args.out)
    return EXIT_OK


def _cmd_variety(args) -> int:
    tol = _tol_from_args(args)
    a = read_matrix_file(args.a_file)
    variety = DeterminantalVariety.from_matrix(a, tol)
    verdict = classify_distinguished(variety, tol, m=args.angles)
    if args.sample is not None:
        if not args.csv:
            raise ValueError("--sample requires --csv PATH")
        write_boundary_csv(variety, args.sample, args.csv, tol)
    report = {
        "dim": variety.dim,
        "nr": variety.nr,
        "status": verdict.status.value,
        "criterion": verdict.criterion,
        "witness": [complex(verdict.witness.s), complex(verdict.witness.p)]
        if verdict.witness
        else None,
        "s_margin": verdict.s_margin,
        "track_gap": verdict.track_gap,
    }
    _emit(report, args.out)
    return EXIT_OK


def _vn_single_report(rep) -> dict:
    return {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "ratio": rep.ratio,
        "holds": rep.holds,
        "m": rep.m,
        "degenerate": rep.degenerate,
        "argmax": {
            "theta": rep.argmax_theta,
            "s": complex(rep.argmax.s) if rep.argmax else None,
            "p": complex(rep.argmax.p) if rep.argmax else None,
        },
    }


def _cmd_vn(args) -> int:
    tol = _tol_from_args(args)
    if args.random is not None:
        rng = rng_from_seed(args.seed)
        reports = []
        for idx in range(args.random):
            family = idx % 3
            if family == 0:
                pair = random_symmetrized_pair(rng, int(rng.integers(2, 6)), tol)
            elif family == 1:
                pair = random_model_pair(rng, tol)
            else:
                pair = random_strict_pair(rng, int(rng.integers(2, 6)), 0.9, tol)
            poly = random_matrix_polynomial(rng)
            reports.append(vn_report(poly, pair, m=args.m, tol=tol))
        ratios = [r.ratio for r in reports]
        all_hold = all(r.holds for r in reports)
        report = {
            "seed": args.seed,
            "count": len(reports),
            "all_hold": all_hold,
            "min_ratio": min(ratios) if ratios else None,
            "max_ratio": max(ratios) if ratios else None,
        }
        _emit(report, args.out)
        return EXIT_OK if all_hold else EXIT_INVARIANT
    if not (args.s_file and args.p_file and args.poly):
        raise ValueError("vn needs S-file, P-file and --poly (or --random K)")
    pair = _load_pair(args, tol)
    poly = read_poly_file(args.poly)
    rep = vn_report(poly, pair, m=args.m, tol=tol)
    _emit(_vn_single_report(rep), args.out)
    return EXIT_OK if rep.holds else EXIT_INVARIANT


def _cmd_model(args) -> int:
    tol = _tol_from_args(args)
    pair = _load_pair(args, tol)
    model = build_model(pair, args.level, tol)
    rep = dilation_check(model, pair, args.mmax, args.nmax)
    report = {
        "N": model.N,
        "block_dim": model.block_dim,
        "tail": model.tail,
        "embed_defect": rep.embed_defect,
        "max_residual": rep.max_residual,
        "shift_intertwine": rep.shift_intertwine,
        "symbol_intertwine": rep.symbol_intertwine,
        "bound": rep.bound,
    }
    _emit(report, args.out)
    ok = rep.max_residual <= rep.bound + 1e-10
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_gen(args) -> int:
    tol = _tol_from_args(args)
    rng = rng_from_seed(args.seed)
    manifest = {"kind": args.kind, "seed": args.seed}
    if args.kind == "fhat":
        f = random_fhat(rng, args.dim)
        path = f"{args.prefix}-F.json"
        write_matrix_file(path, f)
        manifest["files"] = [path]
    else:
        if args.kind == "symmetrized":
            pair = random_symmetrized_pair(rng, args.dim, tol)
        elif args.kind == "model":
            pair = random_model_pair(rng, tol)
        else:
            pair = random_strict_pair(rng, args.dim, args.r, tol)
            c = strictness_constant(pair, tol)
            manifest["strictness"] = c
            if c <= tol.psd_tol:
                print("error: generated pair is not strict", file=sys.stderr)
                return EXIT_INVARIANT
        s_path, p_path = f"{args.prefix}-S.json", f"{args.prefix}-P.json"
        write_matrix_file(s_path, pair.S)
        write_matrix_file(p_path, pair.P)
        manifest["files"] = [s_path, p_path]
        manifest["dim"] = pair.dim
    _emit(manifest, args.out)
    return EXIT_OK


_DISPATCH = {
    "check": _cmd_check,
    "fundop": _cmd_fundop,
    "variety": _cmd_variety,
    "vn": _cmd_vn,
    "model": _cmd_model,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
