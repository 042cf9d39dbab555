"""Conversion of category-probability distributions into triangular fuzzy numbers.

The pipeline per rater-item cell: take the model-implied distribution over
the M categories, compute its mean and variance, map the pair through the
Williams moment link (on the unit interval) to get the support endpoints,
and set the intensification parameter to the sum of squared probabilities.

Each computation has one kernel, vectorized over cells:
`_moments` and `_link` (joined by `convert_table`), `_membership_rows`, and
the Kaufmann reduction `kaufmann_index` (along the last axis, with
`kaufmann_support_table` scoring each number on its own support).
`multiverse_moments`, `williams_link`, `convert`, `membership`,
`kaufmann_of` and `kaufmann_support` are one-cell wrappers over them;
`convert_all` applies `convert_table` to a fitted model.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_GRID_POINTS = 201
DEGENERATE_VARIANCE = 1e-9


@dataclass(frozen=True)
class MultiverseDistribution:
    """Distribution over the M response categories for one rater-item pair."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("probs must be a vector of length >= 2")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("probs must lie in [0, 1]")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probs must sum to 1, got {p.sum()!r}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def M(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class Tfn4:
    """Triangular fuzzy number with mode c, support [l, r] and curvature omega.

    omega < 1 intensifies fuzziness, omega = 1 is the ordinary linear
    triangle. The clamped flag marks values produced through a clamp in
    the moment link.
    """

    c: float
    l: float
    r: float
    omega: float
    clamped: bool = False

    def __post_init__(self):
        if not all(np.isfinite([self.c, self.l, self.r, self.omega])):
            raise ValueError("Tfn4 parameters must be finite")
        if not (self.l <= self.c <= self.r):
            raise ValueError(f"need l <= c <= r, got ({self.l}, {self.c}, {self.r})")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    @property
    def degenerate(self) -> bool:
        return self.l == self.c == self.r

    @property
    def spread(self) -> float:
        return self.r - self.l


def _membership_rows(grid, c, l, r, w):
    """Membership at `grid` of the Tfn4s (c, l, r, w); all five broadcast.

    The left branch owns (l, c], the right branch (c, r); each is evaluated
    only where it applies. The mode evaluates to 1, also when it is an
    endpoint (l = c or c = r; a degenerate number is the crisp indicator of
    its mode), and the rest of the endpoints and the outside to 0.
    """
    grid, c, l, r, w = np.broadcast_arrays(grid, c, l, r, w)
    out = np.zeros(grid.shape)
    with np.errstate(over="ignore", divide="ignore"):
        left = (grid > l) & (grid <= c)
        y = grid[left]
        out[left] = 1.0 / (1.0 + ((c[left] - y) / (y - l[left])) ** w[left])
        right = (grid > c) & (grid < r)
        y = grid[right]
        out[right] = 1.0 / (1.0 + ((r[right] - y) / (y - c[right])) ** -w[right])
    out[grid == c] = 1.0
    return out


def membership(f: Tfn4, y):
    """Membership degree of y (scalar or array) in the fuzzy number f."""
    y = np.asarray(y, dtype=float)
    out = _membership_rows(y, f.c, f.l, f.r, f.omega)
    return float(out) if y.ndim == 0 else out


def _moments(p):
    """Mean and variance of distributions over 1..M along the last axis."""
    y = np.arange(1, p.shape[-1] + 1, dtype=float)
    c = p @ y
    return c, np.maximum(p @ y**2 - c**2, 0.0)


def _link(cn, sn):
    """Williams link of (mean, variance) pairs on [0, 1]: (l, r, clamped).

    Negative radicands and out-of-order endpoints are clamped and flagged;
    a near-zero variance collapses to the crisp singleton at the mean.
    """
    deg = sn < DEGENERATE_VARIANCE
    safe = np.where(deg, 1.0, sn)
    mu = (1.0 + cn / safe) / (2.0 + 1.0 / safe)
    rad = 3.5 * sn - 3.0 * (cn - mu) ** 2
    h1 = np.sqrt(np.maximum(rad, 0.0))
    h2 = 0.5 * (h1 + 3.0 * cn - 3.0 * mu)
    ln = cn - h2
    rn = ln + h1
    clamped = ((rad < 0.0) | (ln < 0.0) | (ln > cn) | (rn < cn) | (rn > 1.0)) & ~deg
    ln = np.where(deg, cn, np.clip(ln, 0.0, cn))
    rn = np.where(deg, cn, np.clip(rn, cn, 1.0))
    return ln, rn, clamped


def multiverse_moments(d: MultiverseDistribution):
    """Mean and variance of the category distribution on the 1..M scale."""
    c, s = _moments(d.probs)
    return float(c), float(s)


class LinkResult(NamedTuple):
    l: float
    r: float
    clamped: bool


def williams_link(c_norm: float, s_norm: float) -> LinkResult:
    """Map one (mean, variance) pair on [0, 1] to triangular endpoints."""
    if not 0.0 <= c_norm <= 1.0:
        raise ValueError("c_norm must lie in [0, 1]")
    l, r, clamped = _link(np.float64(c_norm), np.float64(s_norm))
    return LinkResult(float(l), float(r), bool(clamped))


def intensification(d: MultiverseDistribution) -> float:
    """Sum of squared category probabilities; 1/M when uniform, 1 when crisp."""
    return float(np.sum(d.probs**2))


def convert(d: MultiverseDistribution, M: int) -> Tfn4:
    """Full conversion of one category distribution into a Tfn4."""
    if M != d.M:
        raise ValueError(f"distribution has {d.M} categories, expected {M}")
    c, l, r, omega, clamped = convert_table(d.probs[None, :])
    return Tfn4(c=float(c[0]), l=float(l[0]), r=float(r[0]), omega=float(omega[0]),
                clamped=bool(clamped[0]))


def convert_table(probs: np.ndarray):
    """Convert each row of a (K, M) matrix of distributions into a Tfn4.

    Returns arrays (c, l, r, omega, clamped), each of length K, with
    l <= c <= r exactly in every row.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise ValueError("probs must be a (K, M) matrix")
    c, s = _moments(p)
    scale = p.shape[1] - 1.0
    ln, rn, clamped = _link((c - 1.0) / scale, s / scale**2)
    # mapping back to 1..M can move an endpoint past c by an ulp when M - 1
    # is not a power of two; a zero-width support is the crisp mode itself
    crisp = ln == rn
    l = np.where(crisp, c, np.minimum(1.0 + scale * ln, c))
    r = np.where(crisp, c, np.maximum(1.0 + scale * rn, c))
    return c, l, r, np.sum(p**2, axis=1), clamped


@dataclass(frozen=True)
class FuzzyRatingMatrix:
    """Per-cell fuzzy numbers for an I x J rating matrix, stored columnwise."""

    c: np.ndarray
    l: np.ndarray
    r: np.ndarray
    omega: np.ndarray
    clamped: np.ndarray
    tree_digest: str
    y: np.ndarray | None = None

    @property
    def shape(self):
        return self.c.shape

    @property
    def spread(self) -> np.ndarray:
        return self.r - self.l

    def entry(self, i: int, j: int):
        """The (crisp rating, Tfn4) pair of one cell; rating is None if absent."""
        f = Tfn4(
            c=float(self.c[i, j]),
            l=float(self.l[i, j]),
            r=float(self.r[i, j]),
            omega=float(self.omega[i, j]),
            clamped=bool(self.clamped[i, j]),
        )
        rating = None if self.y is None else int(self.y[i, j])
        return rating, f


def convert_all(fit, tree, ratings=None) -> FuzzyRatingMatrix:
    """Convert every rater-item cell of a fitted model.

    `fit` needs eta_hat (I x N), alpha_hat (J x N or J x 1, which broadcasts
    over the nodes) and tree_digest; the digest must match `tree` so the
    conversion uses the same structure the model was fit with.
    """
    from .tree import category_probability_table

    if fit.tree_digest != tree.digest():
        raise ValueError("tree digest mismatch: fit was produced with a different tree")
    eta = np.asarray(fit.eta_hat, dtype=float)
    alpha = np.asarray(fit.alpha_hat, dtype=float)
    n_raters, n_items = eta.shape[0], alpha.shape[0]
    probs = category_probability_table(tree, eta[:, None, :], alpha[None, :, :])
    c, l, r, omega, clamped = convert_table(probs.reshape(-1, tree.M))
    shape = (n_raters, n_items)
    y = None
    if ratings is not None:
        y = np.asarray(ratings.values if hasattr(ratings, "values") else ratings)
        if y.shape != shape:
            raise ValueError(f"ratings must be {shape}, got {y.shape}")
    return FuzzyRatingMatrix(
        c=c.reshape(shape),
        l=l.reshape(shape),
        r=r.reshape(shape),
        omega=omega.reshape(shape),
        clamped=clamped.reshape(shape),
        tree_digest=fit.tree_digest,
        y=y,
    )


def kaufmann_index(memberships):
    """Normalized distance to the nearest crisp set over the sampled points.

    Reduces along the last axis: a float for a vector, an array otherwise.
    """
    a = np.atleast_1d(np.asarray(memberships, dtype=float))
    if a.shape[-1] == 0:
        raise ValueError("kaufmann_index needs a non-empty vector")
    k = 2.0 * np.mean(np.abs(a - (a >= 0.5)), axis=-1)
    return float(k) if k.ndim == 0 else k


def kaufmann_of(f: Tfn4, M: int, points: int = DEFAULT_GRID_POINTS) -> float:
    """Kaufmann index of a Tfn4 sampled on an even grid over [1, M]."""
    return kaufmann_index(membership(f, np.linspace(1.0, float(M), points)))


def kaufmann_support_table(c, l, r, omega, points: int = DEFAULT_GRID_POINTS):
    """Kaufmann index of each Tfn4 sampled on an even grid over its support.

    Unlike kaufmann_of, the evaluation universe is the fuzzy number's own
    support [l, r], so the index does not get diluted by the zero
    memberships outside it; a degenerate number scores 0.
    """
    c, l, r, w = (np.asarray(v, float).reshape(-1, 1) for v in (c, l, r, omega))
    grid = l + (r - l) * np.linspace(0.0, 1.0, points)
    k = kaufmann_index(_membership_rows(grid, c, l, r, w))
    k[l[:, 0] == r[:, 0]] = 0.0
    return k


def kaufmann_support(f: Tfn4, points: int = DEFAULT_GRID_POINTS) -> float:
    """kaufmann_support_table of one Tfn4."""
    return float(kaufmann_support_table(f.c, f.l, f.r, f.omega, points)[0])
