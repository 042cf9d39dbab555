"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/stability.py [--seeds 10] [--out FILE]

For each workload of BENCHMARK.json, runs `perfbench/run.py` once per seed
(1, 2, ...) with tracing off and prints, per end-to-end metric, the median,
the quartiles (`statistics.quantiles(n=4)`) and the spread
(q3 - q1) / median next to a third of the metric's bound. Then it makes
TRACED runs with tracing on (seed 1), checks that the exact counters
repeat, and estimates the tracing overhead as traced minus untraced median
`op_s`. --out writes every run's result and report plus the summary as
JSON (see baseline.json).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("estimation.laplace.calls", "estimation.se.laplace_calls", "estimation.fit.iterations")
FIRST_SEED = 1
TRACED = 2


def run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    report = json.loads(lines[-2])["report"]
    report["run_wall_s"] = wall
    return json.loads(lines[-1]), report


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    doc = {}
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            result, report = run(spec, wl, seed, 0)
            runs.append({"seed": seed, "result": result, "report": report})
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + f" wall={report['run_wall_s']:.1f}s steal={report['steal_frac'] or 0:.3f}",
                  flush=True)
            ok &= result["correct"]
        summary = {}
        if len(runs) >= 2:
            for m in spec["end_to_end"]:
                s = spread([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                s["steady"] = s["spread"] < m["bound"] / 3
                summary[m["name"]] = s
                print(f"  {m['name']}: median {s['median']:.4g} IQR/median {s['spread']:.4f} "
                      f"(a third of the bound: {m['bound'] / 3:.4f}) "
                      f"{'ok' if s['steady'] else 'NOT STEADY'}", flush=True)
            # the workload's own end-to-end metrics (fit_s.*, reps_per_s, ...)
            for name in runs[0]["report"]["metrics"]:
                vals = [r["report"]["metrics"][name]["value"] for r in runs]
                vals = [v for v in vals if v is not None]
                summary[name] = spread(vals) if len(vals) >= 2 else {"median": None, "n": 0}
                print(f"  {name}: median {summary[name]['median']} over {len(vals)} runs",
                      flush=True)
            summary["run_wall_s"] = spread([r["report"]["run_wall_s"] for r in runs])
            steal = [r["report"]["steal_frac"] for r in runs]
            if None not in steal:
                summary["steal_frac"] = {"median": statistics.median(steal), "max": max(steal)}
            ff = [r["report"]["failed_frac"] for r in runs]
            summary["failed_frac"] = {"median": statistics.median(ff), "max": max(ff)}
        traced = [run(spec, wl, FIRST_SEED, 1) for _ in range(TRACED)]
        for result, _ in traced:
            ok &= result["correct"]
        layers = [t[0]["metrics"] for t in traced]
        repeat = all(lay[k]["value"] == layers[0][k]["value"] for lay in layers for k in EXACT)
        print(f"  exact counters repeat across traced runs: {repeat}", flush=True)
        ok &= repeat
        untraced = statistics.median(r["report"]["op_s"] for r in runs)
        overhead = statistics.median(t[1]["op_s"] for t in traced) - untraced
        print(f"  tracing overhead on op_s: {overhead:+.4f} s", flush=True)
        doc[wl] = {"runs": runs, "summary": summary, "traced": [
            {"result": r, "report": rep} for r, rep in traced],
            "exact_counters_repeat": repeat, "tracing_overhead_op_s": overhead}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
