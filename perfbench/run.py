"""Benchmark entry point: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in fresh interpreters
(`perfbench/workloads.py`), which import the package from `src/`:
SETUP_RUNS - 1 of them only set up, and the last one sets up and then
measures for S seconds (default: run_seconds in BENCHMARK.json).
`setup_s` is the median time from starting an interpreter to its `READY`
line. The last line of standard output is the
result: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer ones, as named in BENCHMARK.json. The line before it is a report
with the environment, the per-workload metrics, failures by cause and the
output checks.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit-common", "fit-pernode", "simulate", "convert")
SETUP_RUNS = 3
# BLAS threads only spin on this package's small matrices (process CPU time
# was 1.5x wall time with the default), and the simulate workload brings its
# own two threads; one BLAS thread keeps every workload within nproc = 2.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
DEADLINE_S = 170.0


def environment():
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "fuzzyirtree")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        **CHILD_ENV,
        "inherited": {k: os.environ.get(k) for k in CHILD_ENV},
        "loadavg_start": list(os.getloadavg()),
    }


def cpu_ticks():
    """Stolen and total CPU ticks of the machine so far, from /proc/stat;
    None where that file does not exist."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def run_child(args, workdir, setup_only, deadline):
    """Start one interpreter; return (setup wall seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **CHILD_ENV})
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        setup_s = None
        lines = []
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"{args.workload}: benchmark interpreter exited with {code}")
    return setup_s, (json.loads(lines[-1]) if lines and not setup_only else None)


def main(argv=None):
    pkg_init = os.path.join(ROOT, "src", "fuzzyirtree", "__init__.py")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in (pkg_init, spec_path):
        if not os.path.exists(needed):
            print(f"error: {needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    ticks0 = cpu_ticks()
    work = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work, f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        for k in range(SETUP_RUNS):
            last = k == SETUP_RUNS - 1
            sub = "run" if last else f"setup{k}"
            setup_s, res = run_child(args, os.path.join(workdir, sub), not last, deadline)
            setups.append(setup_s)
    except (RuntimeError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:  # not empty: another run is using it
            pass

    setup_med = statistics.median(setups)
    # the share of the machine's CPU time a hypervisor gave to other guests
    # while this run went on: wall times grow with it
    ticks1 = cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    if args.trace:
        values = dict(res["layers"])
        wanted = spec["per_layer"]
    else:
        values = {"op_s": res["op_s"], "setup_s": setup_med}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "rounds": res["rounds"],
        "setup_s_samples": setups,
        "setup_s": setup_med,
        "steal_frac": steal,
        "op_s": res["op_s"],
        "op_times": res["op_times"],
        "metrics": res["named"],
        "failed_frac": res["failed_frac"],
        "failures": res["failures"],
        "check_errors": res["check_errors"],
        "alpha_mae": res["alpha_mae"],
        "extra": res["extra"],
        "layers": res.get("layers"),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not res["check_errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
