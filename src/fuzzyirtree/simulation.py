"""Monte-Carlo harness: generate tree-model ratings, perturb them with a
faking-by-replacement model, refit, reconvert, and score recovery.

Every replication owns a counter-based RNG stream keyed by (master seed,
cell index, replication index), so results do not depend on execution
order or thread count.
"""
from __future__ import annotations

import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from .estimation import (
    EstimationError,
    FitOptions,
    ModelSpec,
    RatingMatrix,
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
        if self.gamma <= 0 or self.delta <= 0:
            raise ValueError("gamma and delta must be positive")
        if self.direction not in FAKING_DIRECTIONS:
            raise ValueError(f"direction must be one of {FAKING_DIRECTIONS}")


def replacement_distribution(h: int, M: int, model: FakingModel) -> np.ndarray:
    """Conditional distribution of the observed category given true category h."""
    if not 1 <= h <= M:
        raise ValueError(f"true category must lie in 1..{M}")
    out = np.zeros(M)
    if model.direction == "faking-good":
        room = M - h
    else:
        room = h - 1
    if room == 0 or model.pi == 0.0:
        out[h - 1] = 1.0
        return out
    out[h - 1] = 1.0 - model.pi
    edges = np.linspace(0.0, 1.0, room + 1)
    mass = np.diff(betainc(model.gamma, model.delta, edges))
    for k in range(1, room + 1):
        cat = h + k if model.direction == "faking-good" else h - k
        out[cat - 1] = model.pi * mass[k - 1]
    return out


def perturb(Y: RatingMatrix, model: FakingModel, rng: np.random.Generator) -> RatingMatrix:
    """Independently resample each cell from its replacement distribution."""
    M = Y.M
    cdf = np.empty((M, M))
    for h in range(1, M + 1):
        cdf[h - 1] = np.cumsum(replacement_distribution(h, M, model))
    cdf[:, -1] = 1.0
    u = rng.random(Y.values.shape)
    new = (cdf[Y.values - 1] < u[..., None]).sum(axis=-1) + 1
    return RatingMatrix(new, M)


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
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    u = rng.random((I, J))
    y = (cdf < u[..., None]).sum(axis=-1) + 1
    c, l, r, w, clamped = convert_table(probs.reshape(-1, tree.M))
    true_fuzzy = FuzzyRatingMatrix(
        c=c.reshape(I, J),
        l=l.reshape(I, J),
        r=r.reshape(I, J),
        omega=w.reshape(I, J),
        clamped=clamped.reshape(I, J),
        tree_digest=tree.digest(),
        y=y,
    )
    return GeneratedData(RatingMatrix(y, tree.M), eta, alpha, true_fuzzy)


def pa_values(est, truth) -> np.ndarray:
    """Per-replication agreement: 1 - ||est - truth||^2 / ||truth||^2."""
    if len(est) != len(truth):
        raise ValueError("est and truth must have the same length")
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
        if self.B < 1:
            raise ValueError("B must be >= 1")
        for name in ("I_levels", "J_levels", "pi_levels"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, vals)
        if self.sigma_alpha < 0:
            raise ValueError("sigma_alpha must be >= 0")

    @property
    def M(self) -> int:
        return self.tree.M

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


CSV_HEADER = (
    "I,J,pi,pa_c,pa_c_sd,pa_spread,pa_spread_sd,"
    "pa_omega,pa_omega_sd,k,k_sd,n_completed,n_failed"
)


def _g6(x) -> str:
    return f"{x:.6g}"


@dataclass
class SimResult:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    [str(r.I), str(r.J), _g6(r.pi)]
                    + [
                        _g6(v)
                        for v in (
                            r.pa_c, r.pa_c_sd, r.pa_spread, r.pa_spread_sd,
                            r.pa_omega, r.pa_omega_sd, r.k, r.k_sd,
                        )
                    ]
                    + [str(r.n_completed), str(r.n_failed)]
                )
            )
        return "\n".join(lines) + "\n"


def _replication_rng(seed: int, cell_index: int, b: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64((cell_index << 32) + b)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_replication(I, J, pi, design: SimDesign, cell_index: int, b: int):
    rng = _replication_rng(design.seed, cell_index, b)
    tree = design.tree
    gen = generate_true_data(I, J, tree, design.alpha0, design.sigma_alpha, rng)
    y = gen.ratings
    if pi > 0:
        y = perturb(y, FakingModel(pi, design.gamma, design.delta, design.direction), rng)
    spec = ModelSpec(tree, trait_design="common", item_design="common", covariance="scalar")
    try:
        res = fit(y, spec, FitOptions(compute_se=False), warn=False)
    except EstimationError:
        return None
    if not res.converged:
        return None
    est = convert_all(res, tree)
    tf = gen.true_fuzzy
    pa = pa_values([est.c, est.spread, est.omega], [tf.c, tf.spread, tf.omega])
    # fuzziness is judged on each number's own support so that the score is
    # not diluted by the zero memberships elsewhere on the rating scale
    k_cells = kaufmann_support_table(est.c, est.l, est.r, est.omega)
    return (*pa, float(np.mean(k_cells)))


def run_cell(I, J, pi, B, design: SimDesign, cell_index: int = 0,
             executor_map=map) -> CellResult:
    """B replications of generate -> perturb -> fit -> convert -> score."""
    reps = list(
        executor_map(
            lambda b: _run_replication(I, J, pi, design, cell_index, b), range(B)
        )
    )
    done = [r for r in reps if r is not None]
    n_failed = B - len(done)
    if done:
        arr = np.array(done)  # (n, 4): pa_c, pa_spread, pa_omega, k
        means = arr.mean(axis=0)
        sds = arr.std(axis=0, ddof=1) if len(done) > 1 else np.zeros(4)
    else:
        means = np.full(4, np.nan)
        sds = np.full(4, np.nan)
    return CellResult(
        I=I, J=J, pi=pi,
        pa_c=means[0], pa_c_sd=sds[0],
        pa_spread=means[1], pa_spread_sd=sds[1],
        pa_omega=means[2], pa_omega_sd=sds[2],
        k=means[3], k_sd=sds[3],
        n_completed=len(done), n_failed=n_failed,
    )


def run_study(design: SimDesign, threads: int = 1) -> SimResult:
    """One CellResult per cell of the factorial design, in product order."""
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    with pool or contextlib.nullcontext():
        executor_map = pool.map if pool else map
        rows = [
            run_cell(I, J, pi, design.B, design, idx, executor_map)
            for idx, (I, J, pi) in enumerate(design.cells())
        ]
    return SimResult(rows=rows)
