"""Monte-Carlo harness: generate tree-model ratings, perturb them with a
faking-by-replacement model, refit, reconvert, and score recovery.

Every replication owns a counter-based RNG stream keyed by (master seed,
cell index, replication index), so results do not depend on execution
order or worker count.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import astuple, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .estimation import (
    EstimationError,
    FitOptions,
    ModelSpec,
    RatingMatrix,
    _int_field,
    fit,
)
from .fuzzy import (
    FuzzyRatingMatrix,
    convert_all,
    convert_table,
    kaufmann_support_table,
)
from .tree import ResponseTree, category_probability_table

FAKING_DIRECTIONS = ("faking-good", "faking-bad")


@dataclass(frozen=True)
class FakingModel:
    """Replacement model: with probability pi a response is replaced by a
    draw from a discretized Beta(gamma, delta) over the admissible
    categories (above the true one for faking-good, below for faking-bad)."""

    pi: float
    gamma: float = 1.0
    delta: float = 2.0
    direction: str = "faking-good"

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError("pi must lie in [0, 1]")
        if not (0 < self.gamma < np.inf and 0 < self.delta < np.inf):
            raise ValueError("gamma and delta must be positive and finite")
        if self.direction not in FAKING_DIRECTIONS:
            raise ValueError(f"direction must be one of {FAKING_DIRECTIONS}")


def replacement_distribution(h: int, M: int, model: FakingModel) -> np.ndarray:
    """Conditional distribution of the observed category given true category h."""
    if not 1 <= h <= M:
        raise ValueError(f"true category must lie in 1..{M}")
    sign = 1 if model.direction == "faking-good" else -1
    room = M - h if sign > 0 else h - 1
    out = np.zeros(M)
    if room == 0 or model.pi == 0.0:
        out[h - 1] = 1.0
        return out
    out[h - 1] = 1.0 - model.pi
    bins = np.diff([_betainc(model.gamma, model.delta, x)
                    for x in np.linspace(0.0, 1.0, room + 1).tolist()])
    if not (bins >= 0.0).all():  # NaN too
        raise ValueError(f"cannot bin the faking model's Beta({model.gamma:g}, {model.delta:g})")
    # the k-th category away from h in the faking direction gets the k-th bin
    out[h - 1 + sign * np.arange(1, room + 1)] = model.pi * bins
    return out


def _lgamma_rest(z):
    """lgamma(z) - (z - 1/2) log z + z, by Stirling's series from z = 15 (to 3e-14)."""
    if z < 15.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z
    r = 1.0 / (z * z)  # 0.918... is log(2 pi) / 2
    return 0.9189385332046727 + (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / z


def _betainc(a, b, x, swapped=False):
    """I_x(a, b) by the modified Lentz method on the continued fraction of Numerical
    Recipes 6.4 (1 - I_1-x(b, a) past x = (a+1)/(a+b+2)), the log of x^a (1-x)^b / B(a, b)
    expanded around a/(a+b); NaN past 2e4 terms (a, b ~ 1e10 near the mean) or outside [0, 1]."""
    if x <= 0.0 or x >= 1.0:
        return float(x >= 1.0)
    if not swapped and x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x, True)
    lam = (a + b) * x - a
    log_front = (a * math.log1p(lam / a) + b * math.log1p(-lam / b)
                 + 0.5 * (math.log(a / (a + b)) + math.log(b))
                 + _lgamma_rest(a + b) - _lgamma_rest(a) - _lgamma_rest(b))
    c, d, h = 1.0, 0.0, 1.0  # h -> 1 + t_1/(1 + t_2/(1 + ...)), and I = front / (a h)
    for k in range(1, 20_000):
        u, v = (k // 2, b - k // 2) if k % 2 == 0 else (-(a + k // 2), a + b + k // 2)
        t = u / (a + (k - 1)) * v * x / (a + k)
        d, c = 1.0 / ((1.0 + t * d) or 1e-300), (1.0 + t / c) or 1e-300
        h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            out = math.exp(log_front) / (a * h)
            return out if 0.0 <= out <= 1.0 else math.nan  # rounding at shapes near 1e-300
    return math.nan


def _draw_categories(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A category in 1..M per distribution on the last axis, by inverse CDF."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    u = rng.random(probs.shape[:-1])
    return (cdf < u[..., None]).sum(axis=-1) + 1


def perturb(Y: RatingMatrix, model: FakingModel, rng: np.random.Generator) -> RatingMatrix:
    """Independently resample each cell from its replacement distribution."""
    M = Y.M
    table = np.array([replacement_distribution(h, M, model) for h in range(1, M + 1)])
    return RatingMatrix(_draw_categories(table[Y.values - 1], rng), M)


class GeneratedData(NamedTuple):
    ratings: RatingMatrix
    eta: np.ndarray          # (I, N), common scalar repeated
    alpha: np.ndarray        # (J, N), common scalar repeated
    true_fuzzy: FuzzyRatingMatrix


def generate_true_data(I, J, tree: ResponseTree, alpha0, sigma_alpha,
                       rng: np.random.Generator) -> GeneratedData:
    """Draw common-design parameters and ratings, plus the implied true
    fuzzy numbers computed from the generating category distributions."""
    if I < 1 or J < 1:
        raise ValueError("I and J must be positive")
    eta_s = rng.standard_normal(I)
    alpha_s = alpha0 + sigma_alpha * rng.standard_normal(J)
    eta = np.repeat(eta_s[:, None], tree.N, axis=1)
    alpha = np.repeat(alpha_s[:, None], tree.N, axis=1)
    probs = category_probability_table(tree, eta[:, None, :], alpha[None, :, :])
    y = _draw_categories(probs, rng)
    true_fuzzy = FuzzyRatingMatrix(*convert_table(probs), y=y)
    return GeneratedData(RatingMatrix(y, tree.M), eta, alpha, true_fuzzy)


def pa_values(est, truth) -> np.ndarray:
    """Per-replication agreement: 1 - ||est - truth||^2 / ||truth||^2."""
    if len(est) != len(truth):
        raise ValueError("est and truth must have the same length")
    if len(est) == 0:
        raise ValueError("need at least one replication")
    out = np.empty(len(est))
    for b, (e, t) in enumerate(zip(est, truth)):
        e = np.asarray(e, float)
        t = np.asarray(t, float)
        if e.shape != t.shape:
            raise ValueError("est and truth entries must have matching shapes")
        denom = float(np.sum(t**2))
        if denom == 0.0:
            raise ValueError(f"zero-norm truth in replication {b}")
        out[b] = 1.0 - float(np.sum((e - t) ** 2)) / denom
    return out


def pa_index(est, truth) -> float:
    """Mean agreement over replications."""
    return float(np.mean(pa_values(est, truth)))


@dataclass(frozen=True)
class SimDesign:
    """Factorial design: rater counts x item counts x faking probabilities."""

    I_levels: tuple
    J_levels: tuple
    pi_levels: tuple
    B: int
    tree: ResponseTree
    alpha0: float = -1.75
    sigma_alpha: float = 0.25
    seed: int = 1
    gamma: float = 1.0
    delta: float = 2.0
    direction: str = "faking-good"

    def __post_init__(self):
        for name in ("B", "seed"):
            object.__setattr__(self, name, _int_field(name, getattr(self, name)))
        if self.B < 1:
            raise ValueError("B must be >= 1")
        for name in ("I_levels", "J_levels", "pi_levels"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            if name != "pi_levels":
                vals = tuple(_int_field(name, v) for v in vals)
            object.__setattr__(self, name, vals)
        if min(self.I_levels + self.J_levels) < 1:
            raise ValueError("I and J levels must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in 0..2**64 - 1")
        if not np.isfinite(self.alpha0):
            raise ValueError("alpha0 must be finite")
        if not 0 <= self.sigma_alpha < np.inf:
            raise ValueError("sigma_alpha must be finite and >= 0")
        for pi in self.pi_levels:  # FakingModel checks pi, gamma, delta, direction
            FakingModel(pi, self.gamma, self.delta, self.direction)

    def cells(self):
        return list(itertools.product(self.I_levels, self.J_levels, self.pi_levels))


@dataclass
class CellResult:
    I: int
    J: int
    pi: float
    pa_c: float
    pa_c_sd: float
    pa_spread: float
    pa_spread_sd: float
    pa_omega: float
    pa_omega_sd: float
    k: float
    k_sd: float
    n_completed: int
    n_failed: int


def _g6(x) -> str:
    return f"{x:.6g}"


@dataclass
class SimResult:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        """One line per CellResult, in field order: the counts I, J,
        n_completed and n_failed as integers, the rest to 6 digits."""
        lines = [",".join(f.name for f in fields(CellResult))]
        for v in map(astuple, self.rows):
            lines.append(",".join([*map(str, v[:2]), *map(_g6, v[2:-2]), *map(str, v[-2:])]))
        return "\n".join(lines) + "\n"


def _replication_rng(seed: int, cell_index: int, b: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64((cell_index << 32) + b)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_replication(I, J, pi, design: SimDesign, cell_index: int, b: int):
    """One replication of cell `cell_index`: a (pa_c, pa_spread, pa_omega, k)
    tuple, or None if the fit failed. Module-level so a worker process can
    run it."""
    rng = _replication_rng(design.seed, cell_index, b)
    tree = design.tree
    gen = generate_true_data(I, J, tree, design.alpha0, design.sigma_alpha, rng)
    y = gen.ratings
    if pi > 0:
        y = perturb(y, FakingModel(pi, design.gamma, design.delta, design.direction), rng)
    spec = ModelSpec(tree, trait_design="common", item_design="common", covariance="scalar")
    try:
        res = fit(y, spec, FitOptions(compute_se=False))
    except EstimationError:
        return None
    if not res.converged:
        return None
    est = convert_all(res)
    tf = gen.true_fuzzy
    pa = pa_values([est.c, est.spread, est.omega], [tf.c, tf.spread, tf.omega])
    # fuzziness is judged on each number's own support so that the score is
    # not diluted by the zero memberships elsewhere on the rating scale
    k_cells = kaufmann_support_table(est.c, est.l, est.r, est.omega)
    return (*pa, float(np.mean(k_cells)))


def _cell_result(I, J, pi, reps) -> CellResult:
    """Summarise one cell's replication tuples (None for a failed fit)."""
    done = [r for r in reps if r is not None]
    if done:
        arr = np.array(done)  # (n, 4): pa_c, pa_spread, pa_omega, k
        means = arr.mean(axis=0)
        sds = arr.std(axis=0, ddof=1) if len(done) > 1 else np.zeros(4)
    else:
        means = np.full(4, np.nan)
        sds = np.full(4, np.nan)
    # fields after I, J, pi: each of the four means followed by its sd
    return CellResult(I, J, pi, *np.column_stack([means, sds]).ravel(),
                      len(done), len(reps) - len(done))


def run_study(design: SimDesign, threads: int = 1) -> SimResult:
    """One CellResult per cell of the factorial design, in product order.

    `threads` is the worker count. Above 1, the replications of every cell
    run in forked worker processes, at most one per replication and per CPU.
    """
    threads = _int_field("threads", threads)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    cells = design.cells()
    B = design.B
    tasks = [(I, J, pi, design, idx, b)
             for idx, (I, J, pi) in enumerate(cells) for b in range(B)]
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures  # here: no serial study or other command forks
        import multiprocessing
        # fork, not the platform default: workers inherit the parent's loaded
        # modules, and callers need no __main__ guard. Fork copies only the
        # calling thread, so other threads of the caller must not hold locks
        # that a replication takes.
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
            reps = list(pool.map(_run_replication, *zip(*tasks), chunksize=1))
    else:
        reps = list(itertools.starmap(_run_replication, tasks))
    return SimResult(rows=[
        _cell_result(I, J, pi, reps[idx * B:(idx + 1) * B])
        for idx, (I, J, pi) in enumerate(cells)
    ])
