"""Derive the output-check tolerances in tolerances.json from the current code.

    python3 perfbench/calibrate.py > perfbench/tolerances.json

Fits each workload's generated inputs for seeds 0..SEEDS-1 through the Python
API (the same code path as the CLI) and runs the simulate design with one
thread. A bound is the observed range widened on both sides:
  alpha_mae_max  = 2 x the largest alpha MAE seen for that fit;
  simulate[pi]   = [min - w, min(max + w, 1)] per column of the per-pi
                   means that check_study tests, w = max(max - min, 0.02);
                   PA and K cannot exceed 1;
  simulate_reps_failed_max = 2 x the most replications one study lost.
The simulate bounds are widened by the whole range because a run makes 16
such checks and a stability pass makes dozens of runs; a narrower widening
would fail correct runs. Run it at the commit whose outputs the checks
should hold to, and say so when tolerances.json changes.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import CHECKED, FitCommon, FitPernode, Simulate, study_summary  # noqa: E402  (puts src/ on the path)

import numpy as np  # noqa: E402

from fuzzyirtree import estimation, simulation  # noqa: E402
from fuzzyirtree.tree import preset_tree  # noqa: E402

SEEDS = 16


def fit_mae(path, alpha_true, spec):
    y = np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)
    res = estimation.fit(estimation.RatingMatrix(y, spec.tree.M), spec,
                         estimation.FitOptions(compute_se=False))
    return float(np.mean(np.abs(res.alpha_hat - alpha_true))) if res.converged else None


def main():
    warnings.simplefilter("ignore")
    mae = {}
    sim = {}
    reps_failed = []
    common = estimation.ModelSpec(preset_tree("fig1-5cat"))
    pernode = {
        d: estimation.ModelSpec(preset_tree("fig2-6cat"), "per-node", "per-node", cov)
        for d, cov in (("diag", "diagonal"), ("unstructured", "unstructured"))
    }
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(SEEDS):
            wl = FitCommon(seed, tmp)
            wl.make_inputs()
            for label, alpha in wl.truth.items():
                mae.setdefault(label, []).append(
                    fit_mae(wl.path(f"ratings-{label}.csv"), alpha, common))
            wl = FitPernode(seed, tmp)
            wl.make_inputs()
            for d, spec in pernode.items():
                try:
                    mae.setdefault(d, []).append(fit_mae(wl.path("ratings-0.csv"), wl.alpha[0], spec))
                except (ValueError, estimation.EstimationError):
                    mae.setdefault(d, []).append(None)
            doc = Simulate(seed, tmp).design()
            design = simulation.SimDesign(
                I_levels=doc["I"], J_levels=doc["J"], pi_levels=doc["pi"], B=doc["B"],
                tree=preset_tree(doc["tree"]), seed=doc["seed"])
            means, failed, _ = study_summary(simulation.run_study(design).to_csv().encode())
            reps_failed.append(failed)
            for pi, cols in means.items():
                level = sim.setdefault(pi, {c: [] for c in CHECKED})
                for c in CHECKED:
                    level[c].append(cols[c])
            print(f"seed {seed} done", file=sys.stderr)
    seen = {k: [v for v in vs if v is not None] for k, vs in mae.items()}
    print(json.dumps({"observed_alpha_mae": mae, "observed_simulate": sim,
                      "observed_reps_failed": reps_failed}), file=sys.stderr)
    # a design that never converged gets the bound of the diagonal design
    bounds = {k: float(f"{2 * max(v):.2g}") for k, v in seen.items() if v}
    bounds.setdefault("unstructured", bounds["diag"])
    simulate = {}
    for pi, cols in sim.items():
        simulate[pi] = {}
        for c, vs in cols.items():
            lo, hi = min(vs), max(vs)
            w = max(hi - lo, 0.02)
            simulate[pi][c] = [round(lo - w, 4), min(round(hi + w, 4), 1.0)]
    print(json.dumps({"alpha_mae_max": bounds, "simulate": simulate,
                      "simulate_reps_failed_max": 2 * max(reps_failed)}, indent=2))


if __name__ == "__main__":
    main()
