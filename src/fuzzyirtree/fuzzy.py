"""Conversion of category-probability distributions into triangular fuzzy numbers.

The pipeline per rater-item cell: take the model-implied distribution over
the M categories, compute its mean and variance, map the pair through the
Williams moment link (on the unit interval) to get the support endpoints,
and set the intensification parameter to the sum of squared probabilities.

Each computation has one kernel and one code path, vectorized over cells
of any leading shape: `_moments` and `_link` (joined by `convert_table`,
which converts each distribution on the last axis), `_membership_rows`
(one expression for both sides of the triangle) and
`kaufmann_support_table`, which scores each number on its own support, where
the score is a function of omega alone.
`multiverse_moments`, `williams_link`, `convert`, `intensification`,
`membership` and `kaufmann_support` are one-cell wrappers over them;
`convert_all` applies `convert_table` to the I x J x M table of a
`FitResult`, with the tree the model was fit with, one block of
raters (`rater_blocks`) at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimation import RatingMatrix
from .tree import category_probability_table

DEFAULT_GRID_POINTS = 201
DEGENERATE_VARIANCE = 1e-9
BLOCK_CELLS = 2 ** 14


def _tanh_sinh_rule():
    """(log((1 - u)/u), weight) at the nodes of a tanh-sinh rule (Takahasi &
    Mori 1974) for 4 times an integral over [0, 1/2]: step 1/8, 49 nodes at
    x = -3..3, u = 1/(2(1 + q)) with q = exp(-pi sinh x), so that
    log((1 - u)/u) = log1p(2q) keeps its digits at both ends."""
    x = np.arange(-24, 25) / 8.0
    q = np.exp(-np.pi * np.sinh(x))
    return np.log1p(2.0 * q), 4.0 / 8.0 * (np.pi / 2.0) * np.cosh(x) * q / (1.0 + q) ** 2


_KAUFMANN_LOG_ODDS, _KAUFMANN_WEIGHTS = _tanh_sinh_rule()


def rater_blocks(n_raters: int, n_items: int) -> list[slice]:
    """Slices of whole raters of an I x J table, about BLOCK_CELLS cells each.

    A block's temporaries are small enough for the allocator to reuse, where
    each fresh multi-megabyte array of a whole table pays a page fault per page.
    """
    step = BLOCK_CELLS // max(n_items, 1) or 1
    return [slice(i, i + step) for i in range(0, n_raters, step)]


@dataclass(frozen=True)
class MultiverseDistribution:
    """Distribution over the M response categories for one rater-item pair."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("probs must be a vector of length >= 2")
        if not np.all((p >= -1e-12) & (p <= 1 + 1e-12)):  # NaN fails too
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


def _membership_rows(grid, c, l, r, w):
    """Membership at `grid` of the Tfn4s (c, l, r, w); all five broadcast.

    One expression 1/(1 + ratio**e) serves both sides: ratio (c-y)/(y-l) and
    e = w up to the mode, (r-y)/(y-c) and e = -w past it. Points outside the
    open support (l, r), NaN included, get 0 and the mode gets 1, also as an
    endpoint (a degenerate number is the crisp indicator of its mode).
    """
    grid = np.asarray(grid, dtype=float)
    left = grid <= c
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        ratio = np.where(left, (c - grid) / (grid - l), (r - grid) / (grid - c))
        out = np.asarray(1.0 / (1.0 + ratio ** np.where(left, w, -w)))
    np.copyto(out, 0.0, where=~((grid > l) & (grid < r)))
    np.copyto(out, 1.0, where=grid == c)
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
    # c * c is what an array's c**2 computes; a numpy scalar's c**2 calls pow,
    # which can be an ulp off, and one cell must convert as it does in a table
    return c, np.maximum(p @ y**2 - c * c, 0.0)


def _link(cn, sn):
    """Williams link of (mean, variance) pairs on [0, 1]: (l, r, clamped).

    Negative radicands and out-of-order endpoints are clamped and flagged;
    a near-zero variance collapses to the crisp singleton at the mean.
    """
    deg = sn < DEGENERATE_VARIANCE
    safe = np.where(deg, 1.0, sn)
    mu = (1.0 + cn / safe) / (2.0 + 1.0 / safe)
    dev = cn - mu
    rad = 3.5 * sn - 3.0 * (dev * dev)  # not dev**2: see _moments
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
    return float(convert_table(d.probs)[3])


def convert(d: MultiverseDistribution, M: int) -> Tfn4:
    """Full conversion of one category distribution into a Tfn4."""
    if M != d.M:
        raise ValueError(f"distribution has {d.M} categories, expected {M}")
    c, l, r, omega, clamped = convert_table(d.probs)
    return Tfn4(c=float(c), l=float(l), r=float(r), omega=float(omega), clamped=bool(clamped))


def convert_table(probs: np.ndarray):
    """Convert each distribution on the last axis of `probs` into a Tfn4.

    Returns (c, l, r, omega, clamped), each shaped like `probs` without its
    last axis, with l <= c <= r exactly in every cell.
    """
    p = np.asarray(probs, dtype=float)
    c, s = _moments(p)
    scale = p.shape[-1] - 1.0
    ln, rn, clamped = _link((c - 1.0) / scale, s / scale**2)
    # mapping back to 1..M can move an endpoint past c by an ulp when M - 1
    # is not a power of two; a zero-width support is the crisp mode itself
    crisp = ln == rn
    l = np.where(crisp, c, np.minimum(1.0 + scale * ln, c))
    r = np.where(crisp, c, np.maximum(1.0 + scale * rn, c))
    return c, l, r, np.sum(p**2, axis=-1), clamped


@dataclass(frozen=True)
class FuzzyRatingMatrix:
    """Per-cell fuzzy numbers for an I x J rating matrix, stored columnwise."""

    c: np.ndarray
    l: np.ndarray
    r: np.ndarray
    omega: np.ndarray
    clamped: np.ndarray
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


def convert_all(fit, ratings=None) -> FuzzyRatingMatrix:
    """Convert every rater-item cell of a `FitResult` with `fit.model.tree`.

    eta_hat is I x N and alpha_hat J x N or J x 1 (broadcast over the nodes);
    `ratings`, a `RatingMatrix` of the same I x J, fills the crisp `y` column.
    """
    if ratings is not None and not isinstance(ratings, RatingMatrix):
        raise TypeError(f"ratings must be a RatingMatrix or None, got {type(ratings).__name__}")
    shape = (fit.eta_hat.shape[0], fit.alpha_hat.shape[0])
    y = None if ratings is None else ratings.values
    if y is not None and y.shape != shape:
        raise ValueError(f"ratings must be {shape}, got {y.shape}")
    c, l, r, omega = (np.empty(shape) for _ in range(4))
    clamped = np.empty(shape, bool)
    for block in rater_blocks(*shape):
        probs = category_probability_table(fit.model.tree, fit.eta_hat[block, None, :],
                                           fit.alpha_hat[None, :, :])
        c[block], l[block], r[block], omega[block], clamped[block] = convert_table(probs)
    return FuzzyRatingMatrix(c, l, r, omega, clamped, y=y)


def kaufmann_support_table(c, l, r, omega):
    """Kaufmann index of each Tfn4 on its own support [l, r], not on the rating
    scale, so zero memberships outside the support do not dilute it. The
    result has the shape the four inputs broadcast to (a float for scalars).
    A cell that is not a valid Tfn4 is a ValueError; l = r scores 0.

    The index is 2/(r - l) times the integral of min(mu, 1 - mu) over [l, r].
    With y = l + (c - l)v up to the mode and y = c + (r - c)v past it, both
    sides become one integral in v, whatever c, l and r are:

        K(omega) = 4 * integral over [0, 1/2] of du / (1 + ((1 - u)/u)**omega),

    with K(1) = 1/2 and K(1/2) = ln 2. `_tanh_sinh_rule` computes it for
    omega <= 1; mu for 1/omega is the inverse of mu for omega, so
    K(omega) = 1 - K(1/omega) above 1.
    """
    c, l, r, w = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (c, l, r, omega)))
    valid = np.isfinite(l) & np.isfinite(r) & (l <= c) & (c <= r) & np.isfinite(w) & (w > 0)
    if not valid.all():
        at = tuple(int(i) for i in np.unravel_index(np.argmin(valid), valid.shape))
        raise ValueError(f"need finite l <= c <= r and finite omega > 0, got (c, l, r, omega) = "
                         f"({c[at]}, {l[at]}, {r[at]}, {w[at]})"
                         + (f" at cell {at}" if at else ""))
    v = np.minimum(w, 1.0 / w)
    # one node at a time: every temporary is the size of the table
    k = sum(wt / (1.0 + np.exp(lo * v)) for lo, wt in zip(_KAUFMANN_LOG_ODDS, _KAUFMANN_WEIGHTS))
    k = np.where(l == r, 0.0, np.where(w > 1.0, 1.0 - k, k))
    return float(k) if k.ndim == 0 else k


def kaufmann_support(f: Tfn4) -> float:
    """kaufmann_support_table of one Tfn4."""
    return kaufmann_support_table(f.c, f.l, f.r, f.omega)
