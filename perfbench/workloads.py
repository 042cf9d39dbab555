"""One benchmark workload in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR [--setup-only]

Imports the package from `src/`, writes the workload's inputs into DIR,
runs one untimed warm-up op and prints `READY`; that is the end of set-up.
Then it runs rounds of ops through the in-process CLI
(`fuzzyirtree.cli.main`), one op at a time, as many rounds as end within
S seconds (at least one), checks every output, and prints one JSON line
with the per-op records, failures, checks and, with --trace 1, the per-layer
numbers. `run.py` starts this script and turns its output into metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from fuzzyirtree import cli, estimation, simulation  # noqa: E402
from fuzzyirtree.tree import category_probability_table, preset_tree  # noqa: E402
from tracing import Tracer, self_time  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "tolerances.json")) as _fh:
    TOLERANCES = json.load(_fh)

# generating parameters of the common design (README defaults)
ALPHA0, SIGMA_ALPHA = -1.75, 0.25
SIM_THREADS = 2
# Fits draw one data set per size from this fixed seed and the run's --seed
# permutes its raters and items: every seed poses the same estimation
# problem, so one alpha-MAE tolerance holds for all seeds, while the order
# still changes the optimizer's path. Warm-up inputs are fixed too, so that
# set-up does the same work every run.
DATA_SEED = 2024


def _write_ratings(path, y):
    np.savetxt(path, y, fmt="%d", delimiter=",")


def _permuted(y, alpha, rng):
    """Ratings and item parameters with raters and items in a random order."""
    items = rng.permutation(y.shape[1])
    return y[rng.permutation(y.shape[0])][:, items], alpha[items]


def _median(xs):
    return statistics.median(xs) if xs else None


class OpErrors:
    """Exception class and message of the last failed CLI command.

    `cli.main` turns domain errors into exit codes; wrapping the `cmd_*`
    functions that `build_parser` looks up keeps the class for the record.
    """

    def __init__(self):
        self.last = None

    @contextlib.contextmanager
    def installed(self):
        names = ("cmd_fit", "cmd_convert", "cmd_simulate")
        saved = {n: getattr(cli, n) for n in names}

        def recorder(fn):
            def wrapper(args):
                try:
                    return fn(args)
                except Exception as e:
                    self.last = (type(e).__name__, str(e))
                    raise

            return wrapper

        try:
            for n in names:
                setattr(cli, n, recorder(saved[n]))
            yield self
        finally:
            for n, fn in saved.items():
                setattr(cli, n, fn)


def failure_cause(message):
    """Bucket a failure message into the per-cause counters."""
    if message is None:
        return "other"
    if "positive definite" in message:
        return "covariance_not_pd"
    if "inner Newton" in message:
        return "inner_newton"
    if message == "not converged":
        return "not_converged"
    return "other"


class Workload:
    """Inputs, one warm-up op, the ops of one round, and output checks."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        self.tracer = None  # set for the timed ops of a traced run
        self.errors = OpErrors()
        self.ops = []          # one record per op
        self.check_errors = []
        self.extra = {}

    def path(self, name):
        return os.path.join(self.dir, name)

    def run_cli(self, kind, argv, out_path, probe=False):
        """Run one CLI op; never raises. Returns the record."""
        self.errors.last = None
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = cli.main(argv)
        except SystemExit as e:  # argparse usage error
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash is recorded, not fatal to the run
            code = None
            self.errors.last = (type(e).__name__, str(e))
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        rec = {"kind": kind, "s": seconds, "cpu": cpu, "exit": code, "ok": code == 0,
               "probe": probe}
        if code != 0:
            cls, msg = self.errors.last or (None, err.getvalue().strip()[-300:])
            rec.update(exception=cls, message=msg)
        rec["bytes_out"] = len(out.getvalue().encode()) + (
            os.path.getsize(out_path) if code == 0 and os.path.exists(out_path) else 0
        )
        return rec

    def fail(self, msg):
        self.check_errors.append(msg)

    # subclasses define make_inputs(), warmup(), round(), named_metrics()
    # and op_seconds(); finish() runs once after the timed rounds

    def finish(self, traced):
        pass


# ----------------------------------------------------------------------------
# fit-common: CLI fit with SEs at three sizes


class FitCommon(Workload):
    SIZES = ((50, 10), (150, 20), (500, 20))

    def make_inputs(self):
        tree = preset_tree("fig1-5cat")
        self.truth = {}
        for k, (I, J) in enumerate(self.SIZES):
            gen = simulation.generate_true_data(
                I, J, tree, ALPHA0, SIGMA_ALPHA, np.random.default_rng([DATA_SEED, k])
            )
            label = f"{I}x{J}"
            if k == 0:
                _write_ratings(self.path("ratings-warmup.csv"), gen.ratings.values)
            y, self.truth[label] = _permuted(
                gen.ratings.values, gen.alpha[:, :1], np.random.default_rng([self.seed, k])
            )
            _write_ratings(self.path(f"ratings-{label}.csv"), y)

    def argv(self, label, out):
        return ["fit", "--preset", "fig1-5cat", "--data",
                self.path(f"ratings-{label}.csv"), "--out", out]

    def warmup(self):
        self.run_cli("warmup", self.argv("warmup", self.path("warmup.json")),
                     self.path("warmup.json"))

    def round(self):
        for label in self.truth:
            out = self.path(f"fit-{label}.json")
            rec = self.run_cli(label, self.argv(label, out), out)
            if rec["ok"]:
                check_fit(self, rec, out, self.truth[label], label, want_se=True)
            self.ops.append(rec)

    def named_metrics(self):
        return {f"fit_s.{label}": successful_median(self.ops, label) for label in self.truth}

    def op_seconds(self):
        # one op is the sweep over the three sizes; the 500x20 fit dominates
        return sum(timing_of(self.ops, label) for label in self.truth)


# ----------------------------------------------------------------------------
# fit-pernode: per-node traits and items, d=4 inner Newton, no SEs


class FitPernode(Workload):
    DESIGNS = ("diag", "unstructured")
    I, J = 150, 10
    # The d=4 fit takes 18 to 27 iterations depending on the order of raters
    # and items. Each round fits ORDERS seed-drawn orders of the data set and
    # its op time is their mean; with 3 orders the op time spread by
    # IQR/median 0.29 over ten seeds, with 5 by 0.15.
    ORDERS = 5
    # The unstructured design fails at the package's seed commit; it is
    # attempted once a round and counted in failed_frac and the per-cause
    # counters, but it is not a timed op, so fixing it moves no gated metric.
    PROBES = ("unstructured",)

    @staticmethod
    def generate(I, J, rng):
        tree = preset_tree("fig2-6cat")
        n = tree.N
        cov = 0.8 * (0.5 * np.eye(n) + 0.5)  # variance 0.8, correlation 0.5
        eta = rng.standard_normal((I, n)) @ np.linalg.cholesky(cov).T
        alpha = -0.5 + 0.5 * rng.standard_normal((J, n))
        probs = category_probability_table(tree, eta[:, None, :], alpha[None, :, :])
        cdf = np.cumsum(probs, axis=-1)
        cdf[..., -1] = 1.0
        y = (cdf < rng.random((I, J))[..., None]).sum(axis=-1) + 1
        return y, alpha

    def make_inputs(self):
        y, alpha = self.generate(self.I, self.J, np.random.default_rng([DATA_SEED, 0]))
        self.alpha = []
        for k in range(self.ORDERS):
            y_k, alpha_k = _permuted(y, alpha, np.random.default_rng([self.seed, k]))
            _write_ratings(self.path(f"ratings-{k}.csv"), y_k)
            self.alpha.append(alpha_k)
        y_small, _ = self.generate(40, 4, np.random.default_rng([DATA_SEED, 1]))
        _write_ratings(self.path("ratings-warmup.csv"), y_small)
        self.round_s = []

    def argv(self, design, data, out):
        return ["fit", "--preset", "fig2-6cat", "--data", data, "--out", out,
                "--model", "pernode", "--items", "pernode", "--cov", design, "--no-se"]

    def warmup(self):
        out = self.path("warmup.json")
        argv = self.argv("diag", self.path("ratings-warmup.csv"), out) + ["--max-iter", "3"]
        self.run_cli("warmup", argv, out)

    def fit(self, design, k):
        out = self.path(f"fit-{design}.json")
        rec = self.run_cli(design, self.argv(design, self.path(f"ratings-{k}.csv"), out), out,
                           probe=design in self.PROBES)
        if rec["ok"]:
            check_fit(self, rec, out, self.alpha[k], design, want_se=False)
        self.ops.append(rec)
        return rec

    def round(self):
        diag = [self.fit("diag", k)["s"] for k in range(self.ORDERS)]
        self.round_s.append(statistics.mean(diag))
        self.fit("unstructured", 0)

    def named_metrics(self):
        return {f"fit_s.{d}": successful_median(self.ops, d) for d in self.DESIGNS}

    def op_seconds(self):
        # a failed diag fit is counted in `failed`; its time stays in the mean
        return statistics.median(self.round_s)


# ----------------------------------------------------------------------------
# simulate: the README factorial with two threads


class Simulate(Workload):
    # B=2 is the smallest B at which the pool, which maps over the
    # replications of one cell, runs two at once. The study seed changes the
    # work (the Laplace evaluations of a study ranged over 12,300 to 16,600
    # across seeds); B=3 did not spread less over ten seeds and made every
    # run longer.
    B = 2
    # A --threads 1 study of the full design, to check byte identity at
    # benchmark scale, takes as long as the timed study. Untraced runs check
    # a small design of their own (I=50, J=10, pi 0 and 0.5) with both
    # thread counts instead, which saves one study's time per run; traced
    # runs, which need the serial rate anyway, check the full design.
    CHECK = {"I": [50], "J": [10], "pi": [0, 0.5]}

    def design(self, **over):
        doc = {"I": [50, 150], "J": [10, 20], "pi": [0, 0.25, 0.5, 0.75],
               "B": self.B, "tree": "fig1-5cat", "seed": self.seed}
        doc.update(over)
        return doc

    def make_inputs(self):
        for name, doc in (("design.json", self.design()),
                          ("design-check.json", self.design(**self.CHECK)),
                          ("design-warmup.json",
                           self.design(I=[50], J=[10], pi=[0.25], seed=DATA_SEED))):
            with open(self.path(name), "w") as fh:
                json.dump(doc, fh)
        self.reps_per_study = self.B * 2 * 2 * 4
        self.leaked = []
        self.first_csv = None

    def argv(self, design, out, threads):
        return ["simulate", "--design", self.path(design), "--out", out,
                "--threads", str(threads)]

    def study(self, kind, design, threads):
        """One CLI study; also counts the warnings filters it leaves behind,
        which catch_warnings then removes so one study cannot change the next."""
        out = self.path(f"{kind}.csv")
        with warnings.catch_warnings():
            before = len(warnings.filters)
            rec = self.run_cli(kind, self.argv(design, out, threads), out)
            if threads > 1:
                self.leaked.append(len(warnings.filters) - before)
        return rec, out

    def warmup(self):
        self.study("warmup", "design-warmup.json", SIM_THREADS)

    def round(self):
        rec, out = self.study("study", "design.json", SIM_THREADS)
        rec["reps"] = self.reps_per_study
        rec["reps_failed"] = self.reps_per_study
        if rec["ok"]:
            with open(out, "rb") as fh:
                csv_bytes = fh.read()
            rec["reps_failed"] = check_study(self, csv_bytes)
            limit = TOLERANCES["simulate_reps_failed_max"]
            if rec["reps_failed"] > limit:
                # failing fits end early; a study that loses more replications
                # than any study calibrate.py ran is a failed op, not a fast one
                rec.update(ok=False, exception=None,
                           message=f"{rec['reps_failed']} of {rec['reps']} replications "
                                   f"failed, more than {limit}")
            if self.first_csv is None:
                self.first_csv = csv_bytes
            elif csv_bytes != self.first_csv:
                self.fail("simulate: repeated --threads 2 studies differ")
        self.ops.append(rec)

    def finish(self, traced):
        # criterion 9: one thread gives the same bytes as two
        if traced:
            rec, serial = self.csv_of("serial", "design.json", 1)
            threaded = self.first_csv
        else:
            rec, serial = self.csv_of("serial-check", "design-check.json", 1)
            threaded = self.csv_of("threads-check", "design-check.json", SIM_THREADS)[1]
        if serial is None or threaded is None:
            return
        if serial != threaded:
            self.fail("simulate: --threads 1 and --threads 2 CSVs differ")
        if traced:
            self.extra["serial_s"] = rec["s"]
            done = self.reps_per_study - check_study(self, serial)
            self.extra["serial_reps_per_s"] = done / rec["s"]

    def csv_of(self, kind, design, threads):
        """An untimed study and its CSV bytes (None if it failed)."""
        rec, out = self.study(kind, design, threads)
        if not rec["ok"]:
            self.fail(f"simulate {kind} failed: {rec.get('message')}")
            return rec, None
        with open(out, "rb") as fh:
            return rec, fh.read()

    def named_metrics(self):
        ok = [r for r in self.ops if r["ok"]]
        done = sum(r["reps"] - r["reps_failed"] for r in ok)
        wall = sum(r["s"] for r in ok)
        return {"reps_per_s": {"value": done / wall if wall else None, "n": len(ok)}}

    def op_seconds(self):
        return timing_of(self.ops, "study")


CHECKED = ("pa_c", "pa_spread", "pa_omega", "k")


def study_summary(csv_bytes):
    """Per pi level, the mean of each checked column over the cells that
    completed a replication; the number of failed replications; the cells
    that completed none."""
    lines = csv_bytes.decode().strip().split("\n")
    header = lines[0].split(",")
    columns, failed, empty = {}, 0, []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        failed += int(row["n_failed"])
        if int(row["n_completed"]) == 0:
            empty.append(f"I={row['I']} J={row['J']} pi={row['pi']}")
            continue
        level = columns.setdefault(str(float(row["pi"])), {c: [] for c in CHECKED})
        for c in CHECKED:
            level[c].append(float(row[c]))
    means = {pi: {c: statistics.mean(v) for c, v in level.items()}
             for pi, level in columns.items()}
    return means, failed, empty


def check_study(wl, csv_bytes):
    """Every cell completed a replication, and the mean PA and K of each pi
    level are within the tolerances that calibrate.py recorded. Returns the
    number of failed replications."""
    means, failed, empty = study_summary(csv_bytes)
    for cell in empty:
        wl.fail(f"simulate: no replication completed at {cell}")
    for pi, bounds in TOLERANCES["simulate"].items():
        for col, (lo, hi) in bounds.items():
            v = means.get(pi, {}).get(col, math.nan)
            if not lo <= v <= hi:
                wl.fail(f"simulate: mean {col}={v} outside [{lo}, {hi}] at pi={pi}")
    return failed


# ----------------------------------------------------------------------------
# convert: artifact from the generating parameters, no estimation


class Convert(Workload):
    I, J = 5000, 40

    def artifact(self, I, J, rng):
        tree = preset_tree("fig1-5cat")
        gen = simulation.generate_true_data(I, J, tree, ALPHA0, SIGMA_ALPHA, rng)
        fitres = estimation.FitResult(
            alpha_hat=gen.alpha[:, :1], sigma_hat=np.eye(1), eta_hat=gen.eta,
            log_marginal_lik=0.0, se_alpha=None, converged=True, iterations=0,
            model=estimation.ModelSpec(tree), tree_digest=tree.digest(),
        )
        return gen, estimation.fit_to_json(fitres)

    def make_inputs(self):
        for tag, (I, J), key in (("", (self.I, self.J), [self.seed]),
                                 ("-warmup", (50, 10), [DATA_SEED, 1])):
            gen, doc = self.artifact(I, J, np.random.default_rng(key))
            with open(self.path(f"fit{tag}.json"), "w") as fh:
                fh.write(doc + "\n")
            _write_ratings(self.path(f"ratings{tag}.csv"), gen.ratings.values)
            if not tag:
                self.truth = gen.true_fuzzy
        self.first_csv = None

    def argv(self, tag, out):
        return ["convert", "--preset", "fig1-5cat", "--fit", self.path(f"fit{tag}.json"),
                "--data", self.path(f"ratings{tag}.csv"), "--out", out]

    def warmup(self):
        out = self.path("warmup.csv")
        self.run_cli("warmup", self.argv("-warmup", out), out)

    def round(self):
        out = self.path("fuzzy.csv")
        rec = self.run_cli("convert", self.argv("", out), out)
        if rec["ok"]:
            with open(out, "rb") as fh:
                data = fh.read()
            if self.first_csv is None:
                self.first_csv = data
                self.check(data)
            elif data != self.first_csv:
                self.fail("convert: repeated runs differ")
        self.ops.append(rec)

    def check(self, data):
        n = self.I * self.J
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (n, 8):
            self.fail(f"convert: expected {n} rows of 8 columns, got {table.shape}")
            return
        _, _, _, c, l, r, w, _ = table.T
        m = 5
        if not np.all((l <= c) & (c <= r)):
            self.fail("convert: a row violates l <= c <= r")
        if not np.all((1.0 / m <= w) & (w <= 1.0)):
            self.fail("convert: a row has omega outside [1/M, 1]")
        t = self.truth
        for name, got, want in (("c", c, t.c), ("l", l, t.l), ("r", r, t.r), ("omega", w, t.omega)):
            if not np.allclose(got, want.ravel(), rtol=1e-5, atol=1e-6):
                self.fail(f"convert: {name} differs from the generating fuzzy numbers")

    def named_metrics(self):
        return {"convert_s": successful_median(self.ops, "convert")}

    def op_seconds(self):
        return timing_of(self.ops, "convert")


# ----------------------------------------------------------------------------


def check_fit(wl, rec, out, alpha_true, label, want_se):
    """Artifact parses, converged, SEs finite and positive when requested,
    alpha MAE within the bound recorded at the seed commit."""
    try:
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        wl.fail(f"fit {label}: artifact does not parse: {e}")
        rec["ok"] = False
        return
    if not doc["converged"]:
        rec.update(ok=False, exception=None, message="not converged")
        return
    se = doc["se"]
    if want_se and (se is None or not all(s is not None and math.isfinite(s) and s > 0 for s in se)):
        wl.fail(f"fit {label}: SEs missing, non-finite or not positive")
    if not want_se and se is not None:
        wl.fail(f"fit {label}: SEs present under --no-se")
    alpha = np.array(doc["alpha"]).reshape(doc["alpha_shape"])
    mae = float(np.mean(np.abs(alpha - alpha_true)))
    rec["alpha_mae"] = mae
    bound = TOLERANCES["alpha_mae_max"][label]
    if not mae <= bound:
        wl.fail(f"fit {label}: alpha MAE {mae:.4g} above bound {bound}")


def successful_median(ops, kind):
    times = [r["s"] for r in ops if r["kind"] == kind and r["ok"]]
    return {"value": _median(times), "n": len(times)}


def timing_of(ops, kind):
    """Median wall time of one kind of op, over successful ops; over all
    attempts of that kind if none succeeded (the failure is then in `failed`)."""
    ok = [r["s"] for r in ops if r["kind"] == kind and r["ok"]]
    return _median(ok or [r["s"] for r in ops if r["kind"] == kind])


WORKLOADS = {
    "fit-common": FitCommon,
    "fit-pernode": FitPernode,
    "simulate": Simulate,
    "convert": Convert,
}


def failed_frac(ops):
    """Failed ÷ attempted over every op, probes too; a study counts as its
    replications and fails those it reports in n_failed."""
    attempted = sum(r.get("reps", 1) for r in ops)
    failed = sum(r["reps_failed"] if "reps" in r else int(not r["ok"]) for r in ops)
    return failed / attempted


def layer_metrics(wl, tracer, rounds):
    """Per-layer numbers of the traced run, per round of ops."""
    spans = tracer.spans
    names = {s[3]: s[0] for s in spans}
    total = {}
    calls = {}
    for s in spans:
        total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        calls[s[0]] = calls.get(s[0], 0) + 1

    def t(name):
        return total.get(name, 0.0) / rounds

    lap = [s for s in spans if s[0] == "estimation.laplace"]
    lap_se = sum(1 for s in lap if names.get(s[4]) == "estimation.se")
    n_lap = len(lap)
    stages = ("simulation.generate", "simulation.perturb", "simulation.fit",
              "simulation.convert", "fuzzy.kaufmann")
    busy = sum(t(n) for n in stages)
    study_wall = t("simulation.run_study")
    causes = {}
    for r in wl.ops:
        if not r["ok"]:
            key = failure_cause(r.get("message"))
            causes[key] = causes.get(key, 0) + 1
    counts = tracer.counts
    leaked = getattr(wl, "leaked", [])
    return {
        "estimation.laplace.calls": n_lap / rounds,
        "estimation.laplace.ms_per_call": 1e3 * total.get("estimation.laplace", 0.0) / n_lap if n_lap else 0.0,
        "estimation.optimize.s": t("estimation.fit") + t("simulation.fit") - t("estimation.se"),
        "estimation.optimize.laplace_calls": (n_lap - lap_se) / rounds,
        "estimation.se.s": t("estimation.se"),
        "estimation.se.laplace_calls": lap_se / rounds,
        "estimation.pseudo_data.s": t("estimation.pseudo_data"),
        "estimation.fit.iterations": counts["fit.iterations"] / rounds,
        "tree.prob_table.s": t("tree.prob_table"),
        "tree.prob_table.calls": calls.get("tree.prob_table", 0) / rounds,
        "fuzzy.convert_all.s": t("fuzzy.convert_all") + t("simulation.convert"),
        "fuzzy.kaufmann.s": t("fuzzy.kaufmann"),
        "simulation.generate.s": t("simulation.generate"),
        "simulation.perturb.s": t("simulation.perturb"),
        "simulation.fit.s": t("simulation.fit"),
        "simulation.busy_s": busy,
        "simulation.parallel_eff": busy / (study_wall * SIM_THREADS) if study_wall else 0.0,
        "simulation.serial_reps_per_s": wl.extra.get("serial_reps_per_s", 0.0),
        "simulation.failed.estimation_error": counts["simulation.failed.estimation_error"] / rounds,
        "simulation.failed.not_converged": counts["simulation.failed.not_converged"] / rounds,
        "simulation.warning_filters_leaked": statistics.mean(leaked) if leaked else 0.0,
        "cli.self_s": self_time(spans, "cli.main") / rounds,
        "cli.bytes_out": sum(r["bytes_out"] for r in wl.ops) / rounds,
        "failed_frac": failed_frac(wl.ops),
        "failed.covariance_not_pd": causes.get("covariance_not_pd", 0) / rounds,
        "failed.inner_newton": causes.get("inner_newton", 0) / rounds,
        "failed.not_converged": causes.get("not_converged", 0) / rounds,
        "failed.other": causes.get("other", 0) / rounds,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    with wl.errors.installed():
        wl.make_inputs()
        wl.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        wl.tracer = tracer
        rounds, last = 0, 0.0
        t0 = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            # a round starts only if it should end within S seconds, judged
            # by the last one; the first always runs
            while rounds == 0 or time.perf_counter() - t0 + last <= args.seconds:
                r0 = time.perf_counter()
                wl.round()
                last = time.perf_counter() - r0
                rounds += 1
        wl.tracer = None
        wl.finish(traced=bool(args.trace))

    # the result line counts timed CLI ops; replications that a successful
    # study reports as failed are in failed_frac and the per-cause counters
    timed = [r for r in wl.ops if not r["probe"]]
    attempted, failed = len(timed), sum(not r["ok"] for r in timed)
    result = {
        "workload": args.workload,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac(wl.ops),
        "op_s": wl.op_seconds(),
        "op_times": [[r["kind"], r["s"], r["cpu"]] for r in wl.ops],
        "named": wl.named_metrics(),
        "failures": [
            {k: r.get(k) for k in ("kind", "exit", "exception", "message")}
            for r in wl.ops if not r["ok"]
        ],
        "check_errors": wl.check_errors,
        "alpha_mae": {r["kind"]: r["alpha_mae"] for r in wl.ops if "alpha_mae" in r},
        "extra": wl.extra,
    }
    if tracer:
        result["layers"] = layer_metrics(wl, tracer, rounds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
