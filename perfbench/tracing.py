"""In-memory span recorder that wraps package functions from outside.

The package is not modified. Each wrapped function is replaced, for the
duration of a `Tracer.installed()` block, by a wrapper that records a span
(name, start, end, id, parent) and restores the original on exit. The
wrapper replaces the module attribute that the caller looks up at call
time, so `cli.fit` and `simulation.fit` are wrapped separately even though
they are the same function.

Spans from pool threads have no parent span. Replications moved into
other processes would not report spans through this mechanism.
"""
from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # (name, t0, t1, span_id, parent_id)
        self.counts = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((name, t0, t1, sid, parent))

    def wrap(self, name, fn, on_result=None, on_error=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as e:
                    if on_error is not None:
                        on_error(e)
                    raise
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, on_result=None, on_error=None):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, on_result, on_error))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries of the package; undo on exit."""
        from fuzzyirtree import cli, estimation, fuzzy, simulation, tree

        def fit_done(res):
            self.count("fit.iterations", res.iterations)

        def sim_fit_done(res):
            fit_done(res)
            if not res.converged:
                self.count("simulation.failed.not_converged")

        def sim_fit_error(e):
            # the replication swallows EstimationError and drops the result
            if isinstance(e, estimation.EstimationError):
                self.count("simulation.failed.estimation_error")

        try:
            self.patch(estimation, "laplace_marginal_loglik", "estimation.laplace")
            self.patch(estimation, "standard_errors", "estimation.se")
            pseudo = estimation.PseudoData
            self._saved.append((pseudo, "from_ratings", pseudo.__dict__["from_ratings"]))
            pseudo.from_ratings = classmethod(
                self.wrap("estimation.pseudo_data", pseudo.from_ratings.__func__)
            )
            self.patch(cli, "fit", "estimation.fit", fit_done)
            self.patch(simulation, "fit", "simulation.fit", sim_fit_done, sim_fit_error)
            self.patch(tree, "category_probability_table", "tree.prob_table")
            self.patch(simulation, "category_probability_table", "tree.prob_table")
            self.patch(fuzzy, "convert_all", "fuzzy.convert_all")
            self.patch(simulation, "convert_all", "simulation.convert")
            self.patch(simulation, "kaufmann_support_table", "fuzzy.kaufmann")
            self.patch(simulation, "generate_true_data", "simulation.generate")
            self.patch(simulation, "perturb", "simulation.perturb")
            self.patch(simulation, "run_study", "simulation.run_study")
            yield self
        finally:
            self.restore()


def self_time(spans, name):
    """Total duration of spans called `name` minus the part covered by their
    direct children (children of one span do not overlap: one thread)."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children[s[4]] = children.get(s[4], 0.0) + (s[2] - s[1])
    return sum((s[2] - s[1]) - children.get(s[3], 0.0) for s in spans if s[0] == name)
