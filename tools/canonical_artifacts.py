"""Write the package's canonical CLI outputs to a directory.

Usage:

    PYTHONPATH=src python3 tools/canonical_artifacts.py OUTDIR

Runs `fuzzyirtree.cli.main` in-process with whichever `fuzzyirtree` is first
on the path, so two checkouts are compared by running each into its own
directory and then `diff -r DIR_A DIR_B`. Every command's stdout and stderr
are kept, with OUTDIR written as `OUTDIR`, and `exit-codes.txt` lists each
command's exit code. The outputs:

- fit JSON, stdout, stderr and the convert CSV of 150 x 20 seed-2024
  ratings from the generating model, for fig1-5cat and fig2-6cat under five
  designs and two fit options (`FIT_DESIGNS`): `--max-iter 3`, a fit that
  stops at its iteration limit, and `--tol 1e-3`;
- fit JSON, stdout, stderr and the convert CSV of 150 x 5 seed-2024
  fig2-6cat ratings from a correlated 4-D trait (sd 0.89, correlation 0.5)
  and the published case-study easiness (`correlated_ratings`), under
  `--model pernode --cov unstructured` with common and with per-node items
  (`UNSTRUCTURED_DESIGNS`): the covariance chain and the `curvature` terms
  of the b_ij in the standard errors;
- the fit of two raters who both answer 3, 3, 3 (separation notes);
- fit JSON, stdout, stderr and the convert CSV of 150 x 10 fig1-5cat
  ratings with no trait (`traitless_ratings`), whose fit ends with sigma
  at its bound e^-8: the bound of the Newton loop and the information there;
- the fit and convert of the fig1-5cat ratings rewritten with a header row,
  padded cells and cells written as `3.0`;
- a 2000 x 40 convert of an artifact written from the generating
  parameters, with and without `--data`, and a 12000 x 2 one with
  `--data`, whose rater labels reach five digits;
- the `simulate` CSV and stdout of three designs (`DESIGNS`), one of them
  on `fig2-6cat`, at `--threads` 1 and 2;
- `validate-tree` of both presets;
- `eval` of one membership function at its endpoints, its mode and a point
  on each side, and on the `--grid` of three curvatures and of numbers
  whose mode is an endpoint or that are degenerate (`EVALS`).

BLAS runs on one thread whatever the shell says: the tool sets
`OPENBLAS_NUM_THREADS` and `OMP_NUM_THREADS` to 1 before numpy loads, as the
count moves bits (one `se` of fit-fig1-5cat-pernode-pernode-diag by 1.4e-16
relative at 2 threads) and more threads only spin on these small matrices.
The package itself sets no environment variable.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

# BLAS reads these once, when numpy loads it
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np

from fuzzyirtree import estimation, generate_true_data, preset_tree
from fuzzyirtree.cli import main
from fuzzyirtree.simulation import _draw_categories
from fuzzyirtree.tree import category_probability_table

SEED = 2024
ALPHA0, SIGMA_ALPHA = -1.75, 0.25
PRESETS = ("fig1-5cat", "fig2-6cat")
FIT_DESIGNS = {
    "default": [],
    "items-pernode": ["--items", "pernode"],
    "model-pernode": ["--model", "pernode"],
    "model-pernode-diag": ["--model", "pernode", "--cov", "diag"],
    "pernode-pernode-diag": ["--model", "pernode", "--items", "pernode", "--cov", "diag"],
    "pernode-pernode-diag-max-iter3": ["--model", "pernode", "--items", "pernode", "--cov",
                                       "diag", "--no-se", "--max-iter", "3"],
    "tol1e-3": ["--tol", "1e-3"],
}
# the published per-item easiness of the paper's empirical application,
# items 1..5 by node (M, A_w, A_s, E) of fig2-6cat
CASE_STUDY_ALPHA = np.array([
    [-1.19, -0.40, -1.04, 0.33],
    [-0.88, 0.53, 0.79, 0.05],
    [-0.56, 0.25, -0.18, 0.47],
    [-1.50, 0.46, 0.51, 0.06],
    [-0.71, 0.05, -0.28, 0.04],
])
UNSTRUCTURED_DESIGNS = {
    "pernode-unstructured": ["--model", "pernode", "--cov", "unstructured"],
    "pernode-pernode-unstructured": ["--model", "pernode", "--items", "pernode", "--cov",
                                     "unstructured"],
}
DESIGNS = {
    # the design of acceptance criterion 9
    "criterion9": {"I": [25], "J": [5], "pi": [0.0, 0.5], "B": 3,
                   "tree": "fig1-5cat", "seed": 31},
    # the README's example factorial at B = 2
    "readme-factorial": {"I": [50, 150], "J": [10, 20], "pi": [0, 0.25, 0.5, 0.75],
                         "B": 2, "tree": "fig1-5cat", "seed": 2024},
    # six categories: M - 1 = 5 is not a power of two, so the map back to
    # 1..M rounds the endpoints
    "fig2-6cat": {"I": [60, 150], "J": [10, 20], "pi": [0.0, 0.5], "B": 2,
                  "tree": "fig2-6cat", "seed": 7},
}

TFN = ["--c", "3", "--l", "2", "--r", "4.5"]
EVALS = {
    **{f"y{y}": [*TFN, "--omega", "0.6", "--y", y] for y in ("2", "2.4", "3", "3.7", "4.5")},
    **{f"grid-omega{w}": [*TFN, "--omega", w, "--grid"] for w in ("0.3", "1", "3")},
    "grid-l-is-c": ["--c", "3", "--l", "3", "--r", "4.5", "--omega", "0.6", "--grid"],
    "grid-c-is-r": ["--c", "3", "--l", "2", "--r", "3", "--omega", "0.6", "--grid"],
    "grid-degenerate": ["--c", "3", "--l", "3", "--r", "3", "--grid"],
}


def write_ratings(path, y):
    np.savetxt(path, y, fmt="%d", delimiter=",")


def write_untidy_ratings(path, y):
    """y under an item header, every third cell padded and every third as `3.0`."""
    forms = ("{}", " {} ", "{}.0")
    lines = [",".join(f"item{j + 1}" for j in range(y.shape[1]))]
    lines += [",".join(forms[(i + j) % 3].format(v) for j, v in enumerate(row))
              for i, row in enumerate(y.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def correlated_ratings(I, rng):
    """fig2-6cat ratings of I raters from CASE_STUDY_ALPHA and a 4-D trait
    with sd 0.89 and correlation 0.5: every node's trait has variance 0.8."""
    tree = preset_tree("fig2-6cat")
    cov = 0.8 * (0.5 * np.eye(tree.N) + 0.5)
    eta = rng.standard_normal((I, tree.N)) @ np.linalg.cholesky(cov).T
    return _draw_categories(
        category_probability_table(tree, eta[:, None, :], CASE_STUDY_ALPHA[None]), rng)


def traitless_ratings(I, J, rng):
    """fig1-5cat ratings of I raters with no trait (eta = 0 for every rater)
    on J items of easiness -1 + 0.5 N(0, 1)."""
    tree = preset_tree("fig1-5cat")
    alpha = -1.0 + 0.5 * rng.standard_normal((J, 1))
    return _draw_categories(
        category_probability_table(tree, np.zeros((I, 1, tree.N)), alpha[None]), rng)


def write_generating_artifact(path, tree, gen):
    truth = estimation.FitResult(
        alpha_hat=gen.alpha[:, :1], sigma_hat=np.eye(1), eta_hat=gen.eta,
        log_marginal_lik=0.0, se_alpha=None, converged=True, iterations=0,
        model=estimation.ModelSpec(tree), tree_digest=tree.digest(),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(estimation.fit_to_json(truth) + "\n")


def write_all(outdir):
    outdir = os.path.abspath(outdir)
    os.makedirs(outdir, exist_ok=True)
    codes = []

    def path(name):
        return os.path.join(outdir, name)

    def run(name, argv):
        """Run one CLI command; keep its stdout and stderr with OUTDIR masked."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for suffix, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
            with open(path(f"{name}.{suffix}"), "w", encoding="utf-8") as fh:
                fh.write(text.replace(outdir, "OUTDIR"))
        codes.append(f"{name} {code}")

    def fit_and_convert(label, preset, ratings, extra):
        """Fit `ratings` under `extra` as fit-{label}, then convert that fit."""
        fit = path(f"fit-{label}.json")
        run(f"fit-{label}", ["fit", "--preset", preset, "--data", ratings, "--out", fit, *extra])
        run(f"convert-{label}", ["convert", "--preset", preset, "--fit", fit, "--data", ratings,
                                 "--out", path(f"convert-{label}.csv")])

    generated = {}
    for preset in PRESETS:
        tree = preset_tree(preset)
        gen = generate_true_data(150, 20, tree, ALPHA0, SIGMA_ALPHA, np.random.default_rng(SEED))
        ratings = path(f"ratings-{preset}.csv")
        write_ratings(ratings, gen.ratings.values)
        generated[preset] = gen.ratings.values
        for label, extra in FIT_DESIGNS.items():
            fit_and_convert(f"{preset}-{label}", preset, ratings, extra)

    correlated = path("ratings-correlated.csv")
    write_ratings(correlated, correlated_ratings(150, np.random.default_rng(SEED)))
    for label, extra in UNSTRUCTURED_DESIGNS.items():
        fit_and_convert(f"correlated-{label}", "fig2-6cat", correlated, extra)

    traitless = path("ratings-traitless.csv")
    write_ratings(traitless, traitless_ratings(150, 10, np.random.default_rng([SEED, 1])))
    fit_and_convert("traitless", "fig1-5cat", traitless, [])

    separated = path("ratings-separated.csv")
    write_ratings(separated, np.full((2, 3), 3))
    run("fit-separated", ["fit", "--preset", "fig1-5cat", "--data", separated,
                          "--out", path("fit-separated.json")])

    write_untidy_ratings(path("ratings-untidy.csv"), generated["fig1-5cat"])
    fit_and_convert("untidy", "fig1-5cat", path("ratings-untidy.csv"), [])

    tree = preset_tree("fig1-5cat")
    for I, J, runs in ((2000, 40, ("data", "no-data")), (12000, 2, ("data",))):
        size = f"{I}x{J}"
        gen = generate_true_data(I, J, tree, ALPHA0, SIGMA_ALPHA, np.random.default_rng(SEED))
        write_generating_artifact(path(f"generating-{size}.json"), tree, gen)
        write_ratings(path(f"ratings-{size}.csv"), gen.ratings.values)
        for label in runs:
            extra = ["--data", path(f"ratings-{size}.csv")] if label == "data" else []
            run(f"convert-{size}-{label}",
                ["convert", "--preset", "fig1-5cat", "--fit", path(f"generating-{size}.json"),
                 "--out", path(f"convert-{size}-{label}.csv"), *extra])

    for label, doc in DESIGNS.items():
        with open(path(f"design-{label}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for threads in ("1", "2"):
            name = f"simulate-{label}-threads{threads}"
            run(name, ["simulate", "--design", path(f"design-{label}.json"),
                       "--out", path(f"{name}.csv"), "--threads", threads])

    for preset in PRESETS:
        run(f"validate-tree-{preset}", ["validate-tree", "--preset", preset])
    for label, argv in EVALS.items():
        run(f"eval-{label}", ["eval", *argv])

    with open(path("exit-codes.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(codes) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_all(sys.argv[1])
