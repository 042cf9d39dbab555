"""Command-line front end: validate trees, fit models, convert ratings to
fuzzy numbers, run simulation studies, and evaluate memberships.

Exit codes: 0 success, 1 domain/validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import fuzzy, simulation, tree
from .estimation import (
    EstimationError,
    FitOptions,
    ModelSpec,
    RatingMatrix,
    _int_field,
    _json_field,
    _json_float,
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


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _read_ratings(path: str, M: int) -> RatingMatrix:
    """Read a ratings CSV, one row per rater, cells in 1..M; a UTF-8 BOM is dropped.

    Row 1 is a header when none of its cells is a number, and blank lines at
    the end are skipped. Each distinct cell text is parsed once. Rows are
    checked in order, each row's width before its cells, so an error names
    the first faulty cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as e:
            raise ValueError(f"{path}: {e}") from None
    while rows and not rows[-1]:  # blank lines at the end, which np.loadtxt skips too
        rows.pop()
    if not rows:
        raise ValueError(f"{path}: empty ratings file")
    start = 0 if any(_float_or_none(v) is not None for v in rows[0]) else 1
    if start >= len(rows):
        raise ValueError(f"{path}: no data rows")
    data, width = rows[start:], len(rows[start])

    def judge(cell):  # the cell's rating, or its fault as a function of the position
        text = cell.strip()
        v = _float_or_none(text)
        if not text:
            return lambda at: f"missing value at {at}"
        if v is None:
            return lambda at: f"non-numeric value {text!r} at {at}"
        if not (1 <= v <= M and v == int(v)):  # first: int() cannot convert nan and +-inf
            return lambda at: f"rating must be an integer in 1..{M} ({at}, got {text})"
        return int(v)

    value = {cell: judge(cell) for cell in set().union(*data)}
    faulty = {cell for cell, v in value.items() if callable(v)}
    for rix, row in enumerate(data, start=start + 1):
        if len(row) != width:
            raise ValueError(f"{path}: rows have unequal lengths: row {rix} has width "
                             f"{len(row)}, row {start + 1} has width {width}")
        if not faulty.isdisjoint(row):
            cix, cell = next((cix, c) for cix, c in enumerate(row, start=1) if c in faulty)
            raise ValueError(f"{path}: " + value[cell](f"row {rix}, column {cix}"))
    return RatingMatrix(np.array([list(map(value.__getitem__, row)) for row in data], int), M)


def _write_output(path: str, text: str) -> None:
    """Write --out text rendered beforehand: a render error then leaves the old file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
        covariance="diagonal" if args.cov == "diag" else args.cov,
    )
    opts = FitOptions(max_iter=args.max_iter, tol=args.tol, compute_se=not args.no_se)
    result = fit(data, spec, opts)
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    _write_output(args.out, fit_to_json(result) + "\n")
    print(f"log-marginal-likelihood: {_g6(result.log_marginal_lik)}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {str(result.converged).lower()}")
    print(f"artifact written to {args.out}")
    return EXIT_OK


_POW10 = 10 ** np.arange(11)
# k = 0..999 as NUL-padded 4-byte words: "%03d"; "%d"; "%03d" less trailing zeros;
# and "." before the first and the third ("" for k = 0); NULs are dropped at the end
_D3, _S3, _T3, _PD3, _PT3 = (
    np.array([fmt(b"%03d" % k) for k in range(1000)], "S4").view(np.uint32) for fmt in (
        bytes, lambda d: d.lstrip(b"0") or b"0", lambda d: d.rstrip(b"0"),
        lambda d: b"." + d, lambda d: (b"." + d).rstrip(b"0").rstrip(b".")))


def _g6_words(x: np.ndarray) -> np.ndarray:
    """(x.size, width) uint8 rows whose bytes, without NULs, are '%.6g' % v of 1-D x.

    In fixed notation v is n * 10**(e - 5), n = rint(v * 10**(5 - e)), e its exponent:
    one rounding, as the powers of ten are exact. Python formats the other v, and
    those within 1e-6 of a rounding tie, which that one rounding could have moved.
    """
    ok = (x >= 1e-5) & (x < 1e6)  # nan and +-inf fail both
    xs = np.where(ok, x, 1.0)
    e = np.minimum(np.floor(np.log10(xs)), 5).astype(np.intp)  # within 1 of the exponent
    s = xs * _POW10[5 - e]
    e += (s >= 1e6).astype(np.intp) - (s < 1e5)
    s = xs * _POW10[5 - e]
    n = np.rint(s)  # 1e6 at e = 5 is "1e+06"
    fast = ok & (e >= -4) & ((e < 5) | (n < 1e6)) & (np.abs(s - n) < 0.5 - 1e-6)
    ip, fr = np.divmod(np.where(fast, n, 0).astype(np.int64), _POW10[5 - e])
    fr *= _POW10[4 + e]  # the 9 fraction digits (0, like ip, where Python formats)
    hi, lo, f0, f1, f2 = ip // 1000, ip % 1000, fr // 10**6, fr // 1000 % 1000, fr % 1000
    words = np.stack([np.where(hi > 0, _S3[hi], 0), np.where(hi > 0, _D3[lo], _S3[lo]),
                      np.where((f1 | f2) > 0, _PD3[f0], _PT3[f0]),
                      np.where(f2 > 0, _D3[f1], _T3[f1]), _T3[f2]], axis=1)
    bad = np.flatnonzero(~fast)
    text = np.array(["%.6g" % v for v in x[bad].tolist()], "S20")
    words[bad] = text.view(np.uint32).reshape(-1, 5)
    return np.ascontiguousarray(words[:, words.any(axis=0)]).view(np.uint8)


def _label_rows(values, fmt: str) -> np.ndarray:
    """(values.size, width) uint8 rows of fmt % v, NUL-padded; each distinct v formatted once."""
    uniq, inverse = np.unique(values, return_inverse=True)
    labels = np.array([fmt % v for v in uniq.tolist()], "S")
    return labels.view(np.uint8).reshape(uniq.size, labels.itemsize)[inverse.ravel()]


def _fuzzy_csv(fz: fuzzy.FuzzyRatingMatrix) -> str:
    """The convert CSV, one row per cell in rater-major order; each real v as '%.6g' % v.

    Each block of `fuzzy.rater_blocks` is one byte table of NUL-padded fields,
    NULs then dropped.
    """
    n_items = fz.shape[1]
    raters, items = (_label_rows(np.arange(1, k + 1), "%d") for k in fz.shape)
    text = ["rater,item,y,c,l,r,omega,clamped\n"]
    for block in fuzzy.rater_blocks(*fz.shape):
        cells = fz.c[block].size
        fields = [np.repeat(raters[block], n_items, 0), np.tile(items, (len(raters[block]), 1)),
                  np.zeros((cells, 0), np.uint8) if fz.y is None
                  else _label_rows(fz.y[block], "%s"),
                  *(_g6_words(a[block].ravel()) for a in (fz.c, fz.l, fz.r, fz.omega)),
                  _label_rows(fz.clamped[block], "%d")]
        comma = np.full((cells, 1), ord(","), np.uint8)
        table = np.hstack([part for field in fields for part in (field, comma)])
        table[:, -1] = ord("\n")
        text.append(table.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


def cmd_convert(args) -> int:
    t = _load_tree(args)
    with open(args.fit, encoding="utf-8") as fh:
        fitres = fit_from_json(fh.read(), t)
    ratings = _read_ratings(args.data, t.M) if args.data else None
    fz = fuzzy.convert_all(fitres, ratings)
    _write_output(args.out, _fuzzy_csv(fz))
    print(f"wrote {fz.shape[0] * fz.shape[1]} fuzzy ratings to {args.out}")
    return EXIT_OK


_design_value = functools.partial(_json_field, owner="design")


def _design_from_json(doc: dict) -> simulation.SimDesign:
    if not isinstance(doc, dict):
        raise ValueError("design must be a JSON object")
    # the tree readers raise their own messages, so they run outside the field reader
    spec = _design_value(doc, "tree", lambda v: v, "a preset name or an inline tree spec",
                         (str, dict))
    t = tree.preset_tree(spec) if isinstance(spec, str) else tree.parse_tree_spec(json.dumps(spec))
    # optional fields keep SimDesign's defaults when the file leaves them out
    optional = {k: _design_value(doc, k, _json_float, "a number")
                for k in ("alpha0", "sigma_alpha", "gamma", "delta") if k in doc}
    if "direction" in doc:
        optional["direction"] = doc["direction"]

    def levels(key, convert, what):
        return _design_value(doc, key, lambda v: tuple(map(convert, v)), what, list)

    return simulation.SimDesign(
        I_levels=levels("I", functools.partial(_int_field, "I"), "a list of integers"),
        J_levels=levels("J", functools.partial(_int_field, "J"), "a list of integers"),
        pi_levels=levels("pi", _json_float, "a list of numbers"),
        B=_design_value(doc, "B", functools.partial(_int_field, "B"), "an integer"),
        tree=t,
        seed=_design_value(doc, "seed", functools.partial(_int_field, "seed"), "an integer"),
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
    _write_output(args.out, result.to_csv())
    _print_study_tables(result)
    print(f"results written to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    f = fuzzy.Tfn4(c=args.c, l=args.l, r=args.r, omega=args.omega)
    if args.grid:
        if args.points < 1:
            raise ValueError(f"--points must be >= 1, got {args.points}")
        if args.m < 2:
            raise ValueError(f"--m must be >= 2, got {args.m}")
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
    p.add_argument("--tol", type=float, default=FitOptions.tol)
    p.add_argument("--max-iter", type=int, default=FitOptions.max_iter)
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
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (fork) for the replications; default 1")
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
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, EstimationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
