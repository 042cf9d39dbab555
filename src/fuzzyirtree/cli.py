"""Command-line front end: validate trees, fit models, convert ratings to
fuzzy numbers, run simulation studies, and evaluate memberships.

Exit codes: 0 success, 1 domain/validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings

import numpy as np

from . import fuzzy, simulation, tree
from .estimation import (
    EstimationError,
    FitOptions,
    ModelSpec,
    RatingMatrix,
    fit,
    fit_from_json,
    fit_to_json,
)
from .simulation import _g6

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _load_tree(args) -> tree.ResponseTree:
    if getattr(args, "preset", None):
        return tree.preset_tree(args.preset)
    path = getattr(args, "tree", None)
    if not path:
        raise ValueError("a tree is required: pass --preset or --tree")
    with open(path, encoding="utf-8") as fh:
        return tree.parse_tree_spec(fh.read())


def _read_ratings(path: str, M: int) -> RatingMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as e:
            raise ValueError(f"{path}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: empty ratings file")
    start = 0
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        start = 1  # header row auto-detected
    if start >= len(rows):
        raise ValueError(f"{path}: no data rows")
    data = []
    for rix, row in enumerate(rows[start:], start=start + 1):
        vals = []
        for cix, cell in enumerate(row, start=1):
            text = cell.strip()
            if not text:
                raise ValueError(f"{path}: missing value at row {rix}, column {cix}")
            try:
                v = float(text)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {text!r} at row {rix}, column {cix}"
                ) from None
            # the range test comes first: it also rejects nan and +-inf,
            # which int() cannot convert
            if not (1 <= v <= M and v == int(v)):
                raise ValueError(
                    f"{path}: rating must be an integer in 1..{M} "
                    f"(row {rix}, column {cix}, got {text})"
                )
            vals.append(int(v))
        data.append(vals)
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise ValueError(f"{path}: rows have unequal lengths")
    return RatingMatrix(np.array(data, dtype=int), M)


def cmd_validate_tree(args) -> int:
    t = _load_tree(args)
    report = tree.validate_tree(t)
    print(report)
    return EXIT_OK if report.valid else EXIT_DOMAIN


def cmd_fit(args) -> int:
    t = _load_tree(args)
    data = _read_ratings(args.data, t.M)
    spec = ModelSpec(
        t,
        trait_design="common" if args.model == "common" else "per-node",
        item_design="common" if args.items == "common" else "per-node",
        covariance={"scalar": "scalar", "diag": "diagonal", "unstructured": "unstructured"}[
            args.cov
        ],
    )
    opts = FitOptions(max_iter=args.max_iter, tol=args.tol, compute_se=not args.no_se)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit(data, spec, opts)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(fit_to_json(result) + "\n")
    print(f"log-marginal-likelihood: {_g6(result.log_marginal_lik)}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {str(result.converged).lower()}")
    print(f"artifact written to {args.out}")
    return EXIT_OK


def _fuzzy_csv(fz: fuzzy.FuzzyRatingMatrix) -> str:
    out = io.StringIO()
    out.write("rater,item,y,c,l,r,omega,clamped\n")
    n_raters, n_items = fz.shape
    for i in range(n_raters):
        for j in range(n_items):
            y = "" if fz.y is None else str(int(fz.y[i, j]))
            out.write(
                f"{i + 1},{j + 1},{y},{_g6(fz.c[i, j])},{_g6(fz.l[i, j])},"
                f"{_g6(fz.r[i, j])},{_g6(fz.omega[i, j])},{int(fz.clamped[i, j])}\n"
            )
    return out.getvalue()


def cmd_convert(args) -> int:
    t = _load_tree(args)
    with open(args.fit, encoding="utf-8") as fh:
        fitres = fit_from_json(fh.read(), t)
    ratings = _read_ratings(args.data, t.M) if args.data else None
    fz = fuzzy.convert_all(fitres, t, ratings)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fuzzy_csv(fz))
    print(f"wrote {fz.shape[0] * fz.shape[1]} fuzzy ratings to {args.out}")
    return EXIT_OK


def _design_from_json(doc: dict) -> simulation.SimDesign:
    for key in ("I", "J", "pi", "B", "tree", "seed"):
        if key not in doc:
            raise ValueError(f"design missing field '{key}'")
    spec = doc["tree"]
    if isinstance(spec, str):
        t = tree.preset_tree(spec)
    elif isinstance(spec, dict):
        t = tree.parse_tree_spec(json.dumps(spec))
    else:
        raise ValueError("'tree' must be a preset name or an inline tree spec")
    # optional fields keep SimDesign's defaults when the file leaves them out
    optional = {k: float(doc[k]) for k in ("alpha0", "sigma_alpha", "gamma", "delta")
                if k in doc}
    if "direction" in doc:
        optional["direction"] = doc["direction"]
    return simulation.SimDesign(
        I_levels=tuple(doc["I"]),
        J_levels=tuple(doc["J"]),
        pi_levels=tuple(doc["pi"]),
        B=int(doc["B"]),
        tree=t,
        seed=int(doc["seed"]),
        **optional,
    )


def _print_study_tables(result: simulation.SimResult) -> None:
    print("recovery (PA index, mean and sd over replications):")
    print(f"{'I':>6} {'J':>4} {'pi':>5}  {'C':>16} {'R-L':>16} {'W':>16}")
    for r in result.rows:
        print(
            f"{r.I:>6} {r.J:>4} {_g6(r.pi):>5}  "
            f"{_g6(r.pa_c):>8} ({_g6(r.pa_c_sd)}) "
            f"{_g6(r.pa_spread):>8} ({_g6(r.pa_spread_sd)}) "
            f"{_g6(r.pa_omega):>8} ({_g6(r.pa_omega_sd)})"
        )
    print("fuzziness (Kaufmann index, mean and sd over replications):")
    print(f"{'I':>6} {'J':>4} {'pi':>5}  {'K':>16} {'done':>6} {'failed':>7}")
    for r in result.rows:
        print(
            f"{r.I:>6} {r.J:>4} {_g6(r.pi):>5}  "
            f"{_g6(r.k):>8} ({_g6(r.k_sd)}) {r.n_completed:>6} {r.n_failed:>7}"
        )


def cmd_simulate(args) -> int:
    with open(args.design, encoding="utf-8") as fh:
        doc = json.load(fh)
    design = _design_from_json(doc)
    result = simulation.run_study(design, threads=args.threads)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.to_csv())
    _print_study_tables(result)
    print(f"results written to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    f = fuzzy.Tfn4(c=args.c, l=args.l, r=args.r, omega=args.omega)
    if args.grid:
        grid = np.linspace(1.0, float(args.m), args.points)
        vals = fuzzy.membership(f, grid)
        for y, a in zip(grid, vals):
            print(f"{_g6(y)} {_g6(a)}")
        return EXIT_OK
    if args.y is None:
        raise ValueError("pass --y VALUE or --grid")
    print(_g6(fuzzy.membership(f, args.y)))
    return EXIT_OK


def _add_tree_args(p):
    p.add_argument("--preset", help="built-in tree name (fig1-5cat, fig2-6cat)")
    p.add_argument("--tree", help="path to a JSON tree-spec file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyirtree",
        description="Convert crisp rating data into triangular fuzzy numbers "
        "via response-tree models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-tree", help="check a tree spec or preset")
    _add_tree_args(p)
    p.set_defaults(func=cmd_validate_tree)

    p = sub.add_parser("fit", help="fit a tree model to a ratings CSV")
    _add_tree_args(p)
    p.add_argument("--data", required=True, help="ratings CSV (entries in 1..M)")
    p.add_argument("--out", required=True, help="output fit artifact (JSON)")
    p.add_argument("--model", choices=["common", "pernode"], default="common")
    p.add_argument("--items", choices=["common", "pernode"], default="common")
    p.add_argument("--cov", choices=["scalar", "diag", "unstructured"], default="scalar")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--no-se", action="store_true", help="skip standard errors")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("convert", help="convert a fit artifact to fuzzy ratings CSV")
    _add_tree_args(p)
    p.add_argument("--fit", required=True, help="fit artifact JSON")
    p.add_argument("--data", help="original ratings CSV for the y column")
    p.add_argument("--out", required=True, help="output fuzzy CSV")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("simulate", help="run a Monte-Carlo study from a design file")
    p.add_argument("--design", required=True, help="design JSON file")
    p.add_argument("--out", required=True, help="output results CSV")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="evaluate a fuzzy membership function")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--y", type=float)
    p.add_argument("--grid", action="store_true", help="print a (y, membership) grid")
    p.add_argument("--m", type=int, default=5, help="grid upper bound")
    p.add_argument("--points", type=int, default=fuzzy.DEFAULT_GRID_POINTS)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, EstimationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
