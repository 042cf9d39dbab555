"""Marginal maximum-likelihood fitting of response-tree models.

Ratings are expanded into node-wise Bernoulli pseudo-observations; the
Gaussian random effect per rater is integrated out with a Laplace
approximation around the per-rater joint-likelihood mode, and the fixed
effects plus covariance parameters are maximized over the resulting
marginal log-likelihood. One Laplace evaluation (`_laplace`) gives the
value, its exact gradient and the per-rater state at the modes, as in TMB
(Kristensen et al. 2016). The gradient follows the implicit-function rule
of automatic Laplace approximation (Skaug & Fournier 2006): the envelope
term at the modes plus the derivative of -1/2 log det(-Hessian), with the
modes moving as dη̂ = H⁻¹ ∂g. The exact observed information, that
gradient's derivative in forward mode along every parameter from the same
state (`_observed_information`), is the Hessian of the standard errors and
of the fit's projected trust-region Newton loop (Conn, Gould & Toint 2000),
whose standard deviations stop at their bound e^-8 (sigma = 0, as lme4
treats theta >= 0; Bates et al. 2015). A fresh fit takes its SEs from its
last accepted evaluation; `standard_errors` evaluates a loaded fit once.

The trait covariance of every design is Sigma = S R S: S = diag(s) holds
the standard deviations and R = L L' a correlation matrix whose Cholesky
factor L has unit-norm rows (identity unless unstructured), so Sigma is
positive definite for every nonzero s. The inner Newton
stops at gradient INNER_TOL or, failing that within INNER_MAX_ITER steps,
where half the Newton decrement is below INNER_DECREMENT_TOL. It makes one
value pass per iterate, and takes a common trait's (d = 1) step by division.

A fit reports only through its `FitResult`, which holds its `ModelSpec`
and its notes; `fit_from_json` reads a `fit_to_json` artifact back as the
same object. Only `ModelSpec` reads the design names. The kernels read the
layout from their arrays: the easiness `alpha` is (J, 1) or (J, N) and the
I x d modes follow Sigma's d of 1 or N, and `PseudoData.cell_index` places
each record in either matrix.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import json
import math
import numbers
import operator
import reprlib
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tree import ResponseTree, expit

LOG_2PI = float(np.log(2.0 * np.pi))
INNER_TOL = 1e-8
INNER_DECREMENT_TOL = 1e-12
INNER_MAX_ITER = 100
ALPHA_BOUND = 15.0
FIRST_RADIUS = 1.0  # trust radius of the first outer step, in sigma and easiness units

TRAIT_DESIGNS = ("common", "per-node")
ITEM_DESIGNS = ("common", "per-node")
COVARIANCES = ("scalar", "diagonal", "unstructured")


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class RatingMatrix:
    """I x J matrix of crisp ratings with categories 1..M."""

    values: np.ndarray
    M: int

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.size == 0:
            raise ValueError("ratings must be a non-empty I x J matrix")
        if not np.issubdtype(v.dtype, np.integer):
            # only finite whole floats convert: a cast of inf warns, and a
            # string or object array has no np.round
            if v.dtype.kind != "f" or not np.all(np.isfinite(v) & (v == np.round(v))):
                raise ValueError("ratings must be integers")
            v = v.astype(int)
        if v.min() < 1 or v.max() > self.M:
            raise ValueError(f"ratings must lie in 1..{self.M}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def I(self) -> int:
        return self.values.shape[0]

    @property
    def J(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """What to estimate: tree plus trait/item designs and covariance shape."""

    tree: ResponseTree
    trait_design: str = "common"
    item_design: str = "common"
    covariance: str = "scalar"

    def __post_init__(self):
        if self.trait_design not in TRAIT_DESIGNS:
            raise ValueError(f"trait_design must be one of {TRAIT_DESIGNS}")
        if self.item_design not in ITEM_DESIGNS:
            raise ValueError(f"item_design must be one of {ITEM_DESIGNS}")
        if self.covariance not in COVARIANCES:
            raise ValueError(f"covariance must be one of {COVARIANCES}")
        if self.trait_design == "common" and self.covariance != "scalar":
            raise ValueError("a common trait design forces the scalar covariance")

    @property
    def re_dim(self) -> int:
        """Dimension of the per-rater random effect."""
        return 1 if self.trait_design == "common" else self.tree.N

    @property
    def item_cols(self) -> int:
        """Easiness columns per item: 1 for common items, N for per-node."""
        return 1 if self.item_design == "common" else self.tree.N

    @cached_property
    def cov_layout(self) -> tuple:
        """(sd, low, size): where `_cov_map` reads its `size` parameters,
        extended by a fixed 0 at index size and a fixed 1 at size + 1. sd[i]
        is the index of sd s_i and low[i, j] that of b_ij. Scalar ties
        every s_i to one parameter; diagonal and unstructured give each its
        own, and unstructured adds b_ij (j < i) in row-major order."""
        d = self.re_dim
        n_sd = 1 if self.covariance == "scalar" else d
        n_b = d * (d - 1) // 2 if self.covariance == "unstructured" else 0
        low = np.full((d, d), n_sd + n_b)
        rows, cols = np.tril_indices(d, -1)
        low[rows[:n_b], cols[:n_b]] = n_sd + np.arange(n_b)
        np.fill_diagonal(low, n_sd + n_b + 1)
        return np.arange(d) % n_sd, low, n_sd + n_b


@dataclass(frozen=True)
class PseudoData:
    """Array-of-columns form of the expanded Bernoulli pseudo-observations."""

    rater: np.ndarray
    item: np.ndarray
    node: np.ndarray
    z: np.ndarray
    I: int
    J: int
    N: int

    @classmethod
    def from_ratings(cls, data: RatingMatrix, tree: ResponseTree) -> "PseudoData":
        if data.M > tree.M:
            raise ValueError(
                f"data has {data.M} categories but the tree supports {tree.M}"
            )
        rows = tree.map[data.values - 1]  # (I, J, N)
        mask = ~np.isnan(rows)
        return cls(*np.nonzero(mask), z=rows[mask], I=data.I, J=data.J, N=tree.N)

    def cell_index(self, owner: np.ndarray, cols: int) -> np.ndarray:
        """Flat index of each record's cell in a matrix with one row per
        owner (`item` for the easiness, `rater` for the modes): column 0 when
        cols is 1, the record's node when cols is N."""
        if cols == 1:
            return owner
        if cols != self.N:
            raise ValueError(f"the easiness and the trait covariance need 1 or N = {self.N} "
                             f"columns, got {cols}")
        return owner * cols + self.node


def _cov_inverse(sigma):
    """Inverse and log-determinant of a positive definite covariance."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as e:
        raise ValueError("covariance must be positive definite") from e
    return np.linalg.inv(sigma), 2.0 * float(np.sum(np.log(np.diag(chol))))


def _solve_modes(alpha, sigma, pseudo: PseudoData, eta0=None):
    """Vectorized per-rater Newton maximization of the joint log-likelihood.

    Returns (sinv, flat, eta (I,d), neg_hess (I,d,d), per-rater joint values,
    p): the covariance inverse and each record's cell in eta that the modes
    were solved on, the solution, and each record's probability there. A
    rater has converged when its gradient is below INNER_TOL or, after
    INNER_MAX_ITER steps, half its Newton decrement is below
    INNER_DECREMENT_TOL; if any rater has not, raises EstimationError.

    There is one value pass per iterate: the candidate that the line search
    accepts is the next iterate, with its joint values and its linear
    predictor, from which p is taken; after 50 halvings, the 51st candidate
    is taken whatever its value. At d = 1 the Newton step is the gradient
    over the one-entry Hessian instead of a batched 1 x 1 solve; with numpy
    2.4.6 and its bundled OpenBLAS 0.3.31 the two have the same bits.
    """
    sinv, logdet_sigma = _cov_inverse(sigma)
    alpha_rec = alpha.ravel()[pseudo.cell_index(pseudo.item, alpha.shape[1])]
    d = sinv.shape[0]
    n_raters = pseudo.I
    z, rater = pseudo.z, pseudo.rater
    flat = pseudo.cell_index(rater, d)
    size = n_raters * d
    eta = np.zeros((n_raters, d)) if eta0 is None else eta0.copy()
    prior_const = -0.5 * d * LOG_2PI - 0.5 * logdet_sigma
    idx = np.arange(d)

    def per_rater_value(e):
        """Per-rater joint values at e, and each record's linear predictor."""
        lp = e.ravel()[flat] + alpha_rec
        ll = np.bincount(rater, weights=z * lp - np.logaddexp(0.0, lp), minlength=n_raters)
        quad = np.einsum("id,de,ie->i", e, sinv, e)
        return ll - 0.5 * quad + prior_const, lp

    f_cur, lp = per_rater_value(eta)
    for it in range(INNER_MAX_ITER + 1):
        p = expit(lp)
        grad = np.bincount(flat, weights=z - p, minlength=size).reshape(n_raters, d)
        grad -= eta @ sinv
        gmax = np.abs(grad).max(axis=1)
        w = np.bincount(flat, weights=p * (1.0 - p), minlength=size).reshape(n_raters, d)
        neg_hess = np.broadcast_to(sinv, (n_raters, d, d)).copy()
        neg_hess[:, idx, idx] += w
        if gmax.max() < INNER_TOL:
            return sinv, flat, eta, neg_hess, f_cur, p
        step = (grad / neg_hess[:, 0] if d == 1
                else np.linalg.solve(neg_hess, grad[..., None])[..., 0])
        if it == INNER_MAX_ITER:
            # half of g'H^-1 g is the gain in f that the Newton step promises;
            # below the line search's 1e-12 resolution in f, the mode is found
            if 0.5 * np.einsum("id,id->i", grad, step).max() < INNER_DECREMENT_TOL:
                return sinv, flat, eta, neg_hess, f_cur, p
            break
        scale = np.ones(n_raters)
        for halvings in range(51):
            cand = eta + scale[:, None] * step
            f_new, lp_new = per_rater_value(cand)
            worse = f_new < f_cur - INNER_DECREMENT_TOL
            if halvings == 50 or not worse.any():
                break
            scale[worse] *= 0.5
        eta, f_cur, lp = cand, f_new, lp_new
    bad = int(gmax.argmax())
    raise EstimationError(
        f"inner Newton failed to converge for rater {bad} "
        f"(gradient norm {gmax[bad]:.3g})"
    )


def _expand_modes(eta, N: int) -> np.ndarray:
    """I x d modes as the I x N eta of a fit (a common trait on every node)."""
    return np.broadcast_to(eta, (len(eta), N)).copy()


_Laplace = collections.namedtuple(
    "_Laplace", "value d_alpha g_sigma inner sinv flat eta a_inv a_diag s u t v")


def _laplace(alpha, sigma, pseudo: PseudoData, eta0=None) -> _Laplace:
    """One Laplace evaluation at the modes that the inner Newton solves from
    `eta0`, for a (J, 1) or (J, N) `alpha`.

    The record holds L, dL/dalpha as a flat easiness vector, G and `inner`
    (below), and the per-rater state that `_observed_information`
    differentiates: `sinv`, `flat` and `eta` of `_solve_modes`; per record k
    of rater i, s = p(1-p) and u = ds/dlp = s(1-2p) of its p = expit(lp); per
    rater, A_i = H_i^-1 (`a_inv`, with its diagonal `a_diag`), t_i[n] = the
    sum of u over i's records in mode cell n (I x d) and
    v_i = A_i (diag(A_i) * t_i).

    The derivative of -1/2 log det H_i through W_i and through the moving
    mode is -1/2 A_i[r,r] u + 1/2 v_i[r] s per record at mode cell r, and
    G = 1/2 (Q inner Q - I Q) with inner = sum_i [eta eta' + A_i
    - 1/2 (v eta' + eta v')].
    """
    sinv, flat, eta, neg_hess, values, p = _solve_modes(alpha, sigma, pseudo, eta0)
    n_raters, d = eta.shape
    _, logdet_h = np.linalg.slogdet(neg_hess)
    value = float(np.sum(values + 0.5 * d * LOG_2PI - 0.5 * logdet_h))
    s = p * (1.0 - p)
    u = s * (1.0 - 2.0 * p)
    a_inv = np.linalg.inv(neg_hess)
    a_diag = np.diagonal(a_inv, axis1=1, axis2=2)
    t = np.bincount(flat, weights=u, minlength=n_raters * d).reshape(n_raters, d)
    v = np.einsum("ide,ie->id", a_inv, a_diag * t)
    per_rec = ((pseudo.z - p) - 0.5 * a_diag.ravel()[flat] * u + 0.5 * v.ravel()[flat] * s)
    alpha_cols = alpha.shape[1]
    d_alpha = np.bincount(pseudo.cell_index(pseudo.item, alpha_cols), weights=per_rec,
                          minlength=pseudo.J * alpha_cols)
    vt_eta = v.T @ eta
    inner = eta.T @ eta + a_inv.sum(axis=0) - 0.5 * (vt_eta + vt_eta.T)
    g_sigma = 0.5 * (sinv @ inner @ sinv - pseudo.I * sinv)
    return _Laplace(value, d_alpha, 0.5 * (g_sigma + g_sigma.T), inner,
                    sinv, flat, eta, a_inv, a_diag, s, u, t, v)


def laplace_marginal_loglik(alpha, sigma, pseudo, *, eta0=None):
    """Laplace-approximated marginal log-likelihood L, summed over raters,
    with its gradient: returns (L, dL/dalpha shaped like alpha, G, modes).

    For each rater: joint value at the mode + (d/2) log(2 pi)
    - 1/2 log det(-Hessian at the mode). The layouts come from the array
    shapes: `alpha` is the (J, 1) easiness of common items or the (J, N) of
    per-node items, a (J,) vector read as (J, 1); the d x d `sigma` has d = 1
    for one trait shared by all nodes or d = N for a trait per node. Any
    other shape is a ValueError. `eta0` (I x d) starts the inner Newton from
    given modes instead of zero. G is the symmetric d x d matrix with
    dL = tr(G dSigma) and modes the I x d array of per-rater
    joint-likelihood maximizers.
    """
    if not isinstance(pseudo, PseudoData):
        raise TypeError("pseudo must be a PseudoData (see PseudoData.from_ratings)")
    shape = np.shape(alpha)
    lap = _laplace(np.asarray(alpha, dtype=float).reshape(pseudo.J, -1), sigma, pseudo, eta0)
    return lap.value, lap.d_alpha.reshape(shape), lap.g_sigma, lap.eta


@dataclass
class FitOptions:
    max_iter: int = 500
    tol: float = 1e-5
    compute_se: bool = True

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"tol: expected a real number, got {self.tol!r}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        self.max_iter = _int_field("max_iter", self.max_iter)
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass
class FitResult:
    alpha_hat: np.ndarray          # (J, 1) common items, (J, N) per-node
    sigma_hat: np.ndarray          # (d, d) random-effect covariance
    eta_hat: np.ndarray            # (I, N) posterior modes, expanded
    log_marginal_lik: float
    se_alpha: np.ndarray | None
    converged: bool
    iterations: int
    model: ModelSpec
    tree_digest: str
    warnings: list = field(default_factory=list)
    x: np.ndarray | None = None    # packed optimum (alpha params + cov params)
    # how the fit got its answer; not part of the JSON artifact. `stop` is
    # "gradient" (projected gradient below tol) or None (not converged, and
    # `message` says why); the *_s entries are perf_counter seconds,
    # `optimize_s` the Newton loop and `se_s` None when no SEs were computed
    diagnostics: dict = field(default_factory=dict)


def _cov_map(theta, spec: ModelSpec):
    """Sigma = S R S at theta, with the chain rule G -> dL/dtheta of
    dL = tr(G dSigma) and its `curvature`, the second-order terms of the
    Hessian in theta (see `_observed_information`).

    S = diag(s); R = L L' with row i of L the vector (b_i1, ..., b_i,i-1, 1)
    scaled to unit norm. R is a correlation matrix and Sigma positive
    definite for every theta with no s_i = 0 (Pinheiro & Bates 1996).
    `ModelSpec.cov_layout` says which entry of theta each s_i and b_ij is.
    """
    sd, low_index, size = spec.cov_layout
    ext = np.concatenate((theta, (0.0, 1.0)))
    s, b = ext[sd], ext[low_index]
    norm = np.sqrt((b * b).sum(axis=1))[:, None]
    low = b / norm
    scale = s[:, None] * s
    sigma = scale * (low @ low.T)

    def chain(g_sigma):
        # dL = sum_i 2 (G Sigma)_ii ds_i / s_i + tr(2 L' (G * scale) dL), and
        # the row normalization gives dL_i = (I - L_i L_i') db_i / |b_i|
        g_low = 2.0 * (g_sigma * scale) @ low
        g_b = (g_low - (g_low * low).sum(axis=1)[:, None] * low) / norm
        grad = np.concatenate((g_b.ravel(), 2.0 * (g_sigma * sigma).sum(axis=1) / s))
        return np.bincount(np.concatenate((low_index.ravel(), sd)), weights=grad,
                           minlength=size + 2)[:size]

    def curvature(g_sigma):
        # forward mode of the lines above along each parameter: dSigma/dtheta_l
        # (size, d, d), and the derivative of chain(g_sigma) in theta at fixed
        # g_sigma, whose [l, m] entry is tr(G d2Sigma / dtheta_l dtheta_m)
        basis = np.eye(size, size + 2)
        ds, db = basis[:, sd], basis[:, low_index]
        d_norm = (low * db).sum(axis=-1, keepdims=True)
        d_low = (db - low * d_norm) / norm
        d_scale = ds[:, :, None] * s + s[:, None] * ds[:, None, :]
        d_rr = d_low @ low.T
        d_sigma = d_scale * (low @ low.T) + scale * (d_rr + d_rr.transpose(0, 2, 1))
        g_low = 2.0 * (g_sigma * scale) @ low
        k = (g_low * low).sum(axis=1)[:, None]
        d_g_low = 2.0 * (g_sigma * d_scale) @ low + 2.0 * (g_sigma * scale) @ d_low
        d_k = (d_g_low * low + g_low * d_low).sum(axis=-1, keepdims=True)
        d_g_b = (d_g_low - d_k * low - k * d_low - (g_low - k * low) * d_norm / norm) / norm
        g_s = 2.0 * (g_sigma * sigma).sum(axis=1) / s
        d_g_s = (2.0 * (g_sigma * d_sigma).sum(axis=-1) - g_s * ds) / s
        d_grad = np.concatenate((d_g_b.reshape(size, -1), d_g_s), axis=1)
        place = np.eye(size + 2)[np.concatenate((low_index.ravel(), sd)), :size]
        return d_sigma, d_grad @ place

    return sigma, chain, curvature


def _cov_params(chol, spec: ModelSpec) -> np.ndarray:
    """The theta at which `_cov_map` gives the covariance whose Cholesky
    factor is `chol`: s_i is the norm of its row i and b_ij = chol_ij / chol_ii."""
    sd, low_index, size = spec.cov_layout
    theta = np.zeros(size + 2)
    theta[low_index] = chol / np.diag(chol)[:, None]
    theta[sd] = np.linalg.norm(chol, axis=1)
    return theta[:size]


def _box(n_alpha: int, spec: ModelSpec) -> np.ndarray:
    """(lo, hi) of packed x: +-ALPHA_BOUND, then [e^-8, e^5] on sds and [-20, 20] on b_ij."""
    sd, _, size = spec.cov_layout
    return np.array([(-ALPHA_BOUND, ALPHA_BOUND)] * n_alpha + [
        (math.exp(-8.0), math.exp(5.0)) if k in sd else (-20.0, 20.0) for k in range(size)]).T


def _free(x, g, lo, hi) -> np.ndarray:
    """Mask of x off the bounds of [lo, hi] that the gradient g of -L points out of."""
    return ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))


def _pack(alpha_params, cov_params):
    return np.concatenate([np.ravel(alpha_params), np.ravel(cov_params)])


def _start_values(pseudo: PseudoData, spec: ModelSpec) -> np.ndarray:
    """Empirical-logit starting values for the fixed effects, identity cov."""
    flat = pseudo.cell_index(pseudo.item, spec.item_cols)
    size = pseudo.J * spec.item_cols
    num = np.bincount(flat, weights=pseudo.z, minlength=size)
    den = np.bincount(flat, minlength=size)
    p = np.where(den > 0, num / np.maximum(den, 1), 0.5)
    p = np.clip(p, 1e-6, 1 - 1e-6)
    logit = np.clip(np.log(p / (1.0 - p)), -3.0, 3.0)
    return _pack(logit, _cov_params(np.eye(spec.re_dim), spec))


def _separation_warnings(pseudo: PseudoData, tree: ResponseTree) -> list:
    out = []
    for n in range(pseudo.N):
        zs = pseudo.z[pseudo.node == n]
        label = tree.node_labels[n]
        if zs.size == 0:
            out.append(f"separation: node {label} has no pseudo-responses")
        elif zs.min() == zs.max():
            out.append(
                f"separation: node {label} has all-{int(zs[0])} pseudo-responses; "
                f"estimates clamped to |linear predictor| <= {ALPHA_BOUND:g}"
            )
    return out


def _evaluate(x, pseudo: PseudoData, spec: ModelSpec, eta0=None):
    """The Laplace objective of a fit at packed x: (-L, -dL/dx, the `_Laplace`
    record), with the inner Newton started from `eta0` (zero when None)."""
    n_alpha = pseudo.J * spec.item_cols
    sigma, chain, _ = _cov_map(x[n_alpha:], spec)
    lap = _laplace(x[:n_alpha].reshape(pseudo.J, spec.item_cols), sigma, pseudo, eta0)
    return -lap.value, -_pack(lap.d_alpha, chain(lap.g_sigma)), lap


def _trust_step(h, g, radius):
    """The p of least g'p + p'hp/2 with |p| <= radius (Moré & Sorensen 1983):
    -h^-1 g where h has a Cholesky factor and that fits, else -(h + mu I)^-1 g
    at the mu >= max(0, -lambda_min) where |p| = radius, or -lambda_min if none."""
    with contextlib.suppress(np.linalg.LinAlgError):
        np.linalg.cholesky(h)
        step = -np.linalg.solve(h, g)
        if np.linalg.norm(step) <= radius:
            return step
    lam, vec = np.linalg.eigh(h)
    c = vec.T @ g
    mu = max(0.0, abs(c[0]) / radius - lam[0])  # |p(mu)| >= radius here
    while True:  # Newton's method on 1/|p(mu)|, concave in mu, rises to the root
        inv = np.divide(1.0, lam + mu, out=np.zeros_like(lam), where=lam + mu > 0)
        q = c * inv
        norm = np.linalg.norm(q)
        next_mu = mu + (norm / radius - 1.0) * norm**2 / ((q * q) @ inv)
        if not next_mu > mu:  # converged, or the hard case
            return -vec @ q
        mu = next_mu


def fit(data: RatingMatrix, spec: ModelSpec, options: FitOptions | None = None) -> FitResult:
    """Maximize the Laplace marginal likelihood over fixed effects and covariance.

    A projected trust-region Newton loop on the gradient g and exact Hessian
    of -L in the packed parameters x, whose sds are sigma itself. It has
    converged when g is below `tol` off the bounds that g points out of. A
    trial, the free block's `_trust_step` clipped to the box, is taken when
    the ratio rho of the fall in -L to the model's (each plus 1e-14 |L|; -inf
    where the inner Newton fails) is above 1e-4. rho < 1/4 cuts the radius to
    a quarter of the step, rho > 3/4 at the radius doubles it, and a trial
    that rounds to the current point ends the loop.

    Separation, non-convergence and NaN-SE notes go to `FitResult.warnings`;
    nothing is issued as a `UserWarning`.
    """
    options = options or FitOptions()
    tree = spec.tree
    t0 = time.perf_counter()
    pseudo = PseudoData.from_ratings(data, tree)
    pseudo_data_s = time.perf_counter() - t0
    notes = _separation_warnings(pseudo, tree)
    n_alpha = data.J * spec.item_cols
    lo, hi = _box(n_alpha, spec)
    t0 = time.perf_counter()
    x = _start_values(pseudo, spec)
    nll, g, lap = _evaluate(x, pseudo, spec)
    evaluations, iterations, message = 1, 0, "projected gradient below tol"
    radius, accepted = FIRST_RADIUS, True
    while True:
        if accepted:
            free = _free(x, g, lo, hi)
            pg_max = float(np.abs(g)[free].max(initial=0.0))
            if pg_max < options.tol:
                break
            if iterations == options.max_iter:
                message = f"stopped at the iteration limit of {options.max_iter}"
                break
            h = _observed_information(x, lap, pseudo, spec)[0][np.ix_(free, free)]
        step = np.zeros_like(x)
        step[free] = _trust_step(h, g[free], radius)
        x_t = (x + step).clip(lo, hi)
        s = (x_t - x)[free]
        if not (np.abs(s) > 0).any():
            message = "the trust-region step rounds to the current point"
            break
        evaluations += 1
        try:
            nll_t, g_t, lap_t = _evaluate(x_t, pseudo, spec, lap.eta)
        except EstimationError:
            nll_t = np.inf
        slack = 1e-14 * abs(nll)  # rounding noise of -L, so steps at the optimum pass
        predicted = slack - g[free] @ s - 0.5 * s @ h @ s
        rho = (nll - nll_t + slack) / predicted if predicted > 0 else -np.inf
        if rho < 0.25:
            radius = 0.25 * np.linalg.norm(s)
        elif rho > 0.75 and np.isclose(np.linalg.norm(s), radius):
            radius *= 2.0
        accepted = rho > 1e-4
        if accepted:
            x, nll, g, lap, iterations = x_t, nll_t, g_t, lap_t, iterations + 1
    optimize_s = time.perf_counter() - t0
    stop = "gradient" if pg_max < options.tol else None
    converged = stop is not None
    if not converged:
        notes = notes + [f"did not converge after {iterations} iterations"]

    result = FitResult(
        alpha_hat=x[:n_alpha].reshape(data.J, spec.item_cols),
        sigma_hat=_cov_map(x[n_alpha:], spec)[0],
        eta_hat=_expand_modes(lap.eta, tree.N),
        log_marginal_lik=-nll,
        se_alpha=None,
        converged=converged,
        iterations=iterations,
        model=spec,
        tree_digest=tree.digest(),
        warnings=notes,
        x=x,
        diagnostics={
            "objective_evaluations": evaluations,
            "projected_gradient_max": pg_max,
            "message": message,
            "stop": stop,
            "pseudo_data_s": pseudo_data_s,
            "optimize_s": optimize_s,
            "se_s": None,
        },
    )
    if options.compute_se and converged:
        t0 = time.perf_counter()
        result.se_alpha = _information_se(x, g, lap, pseudo, spec)
        result.diagnostics["se_s"] = time.perf_counter() - t0
        if np.isnan(result.se_alpha.ravel()[free[:n_alpha]]).any():
            result.warnings.append("observed information is not invertible; SEs set to NaN")
        if not free[:n_alpha].all():
            result.warnings.append(f"SEs of easiness held at +-{ALPHA_BOUND:g} set to NaN")
    return result


def posterior_modes(fitres: FitResult, data: RatingMatrix) -> np.ndarray:
    """Per-rater joint-likelihood maximizers at the fitted parameters, I x N."""
    spec = fitres.model
    if data.J != fitres.alpha_hat.shape[0]:
        raise ValueError(f"ratings must be I x {fitres.alpha_hat.shape[0]} as in the fit, "
                         f"got {data.values.shape}")
    pseudo = PseudoData.from_ratings(data, spec.tree)
    eta = _solve_modes(fitres.alpha_hat, fitres.sigma_hat, pseudo)[2]
    return _expand_modes(eta, spec.tree.N)


def _observed_information(x, lap: _Laplace, pseudo: PseudoData, spec: ModelSpec):
    """Exact Hessian of the objective -L at packed x, and the tangent of
    the modes, (I, d, n) for the n parameters.

    `lap` is the `_Laplace` record of the evaluation at x; all n unit
    directions dx go through its per-rater state at once (forward mode of
    its gradient). With dlp = deta[c] + dalpha[a] per record at
    mode cell c and easiness cell a, and dQ = -Q dSigma Q:
      deta_i = -A_i (sum_k s_k dalpha_a e_c + dQ eta_i)   (implicit function)
      dH_i = dQ + diag(sum_k u_k dlp_k),  dA_i = -A_i dH_i A_i
      dt_i = sum_k w_k dlp_k with w = du/dlp = s(1 - 6s),
      dv_i = dA_i (diag A_i * t_i) + A_i (diag dA_i * t_i + diag A_i * dt_i).
    The records are first summed into (mode cell, easiness cell) cells of s,
    u, w and f = -s - 1/2 A_cc w + 1/2 v_c u, the factor of dlp in the
    derivative of the gradient's per-record term, so that no records x n
    array is formed. The theta rows are tr(dG dSigma/dtheta_l), which is
    chain(dG), plus `curvature`'s second-order term.
    """
    n_alpha = pseudo.J * spec.item_cols
    _, _, g_sigma, inner, sinv, flat, eta, a_inv, a_diag, s, u, t, v = lap
    d_sigma, d_chain = _cov_map(x[n_alpha:], spec)[2](g_sigma)
    n_raters, d = eta.shape
    n = x.size

    w = s * (1.0 - 6.0 * s)
    f = -s - 0.5 * a_diag.ravel()[flat] * w + 0.5 * v.ravel()[flat] * u
    cells = flat * n_alpha + pseudo.cell_index(pseudo.item, spec.item_cols)
    sc, uc, wc, fc = (np.bincount(cells, weights=q, minlength=eta.size * n_alpha)
                      .reshape(n_raters, d, n_alpha) for q in (s, u, w, f))
    dq = -sinv @ d_sigma @ sinv
    d_eta = -a_inv @ np.concatenate((sc, np.einsum("lde,ie->idl", dq, eta)), axis=2)
    d_w = t[..., None] * d_eta
    d_w[..., :n_alpha] += uc
    d_t = wc.sum(axis=2)[..., None] * d_eta
    d_t[..., :n_alpha] += wc
    d_a = -np.einsum("idc,icn,ice->iden", a_inv, d_w, a_inv)
    d_a[..., n_alpha:] -= np.einsum("idc,lcf,ife->idel", a_inv, dq, a_inv)
    d_a_diag = np.einsum("iddn->idn", d_a)
    d_v = (np.einsum("iden,ie->idn", d_a, a_diag * t)
           + np.einsum("ide,ien->idn", a_inv, d_a_diag * t[..., None] + a_diag[..., None] * d_t))

    cell_rows = eta.size, n_alpha
    h_alpha = (fc.reshape(cell_rows).T @ d_eta.reshape(-1, n)
               - 0.5 * uc.reshape(cell_rows).T @ d_a_diag.reshape(-1, n)
               + 0.5 * sc.reshape(cell_rows).T @ d_v.reshape(-1, n))
    h_alpha[:, :n_alpha] += np.diag(fc.sum(axis=(0, 1)))
    b = (np.einsum("idn,ie->den", d_eta, eta - 0.5 * v)
         - 0.5 * np.einsum("idn,ie->den", d_v, eta))
    d_inner = b + b.transpose(1, 0, 2) + d_a.sum(axis=0)
    d_g = 0.5 * np.einsum("de,efn,fg->dgn", sinv, d_inner, sinv)
    d_g[..., n_alpha:] += 0.5 * (dq @ inner @ sinv + sinv @ inner @ dq
                                 - n_raters * dq).transpose(1, 2, 0)
    h_theta = np.einsum("den,lde->ln", d_g, d_sigma)
    h_theta[:, n_alpha:] += d_chain.T
    hess = -np.concatenate((h_alpha, h_theta))
    return 0.5 * (hess + hess.T), d_eta


def _information_se(x, g, lap: _Laplace, pseudo: PseudoData, spec: ModelSpec) -> np.ndarray:
    """Easiness SEs, shaped like alpha, from the information at x on its record `lap`, inverted
    on the `_free` block of g: NaN where held, all NaN where singular or a variance is negative."""
    n_alpha = pseudo.J * spec.item_cols
    free = _free(x, g, *_box(n_alpha, spec))
    var = np.full(x.size, np.nan)
    with contextlib.suppress(np.linalg.LinAlgError):  # singular: every SE stays NaN
        var[free] = np.diag(np.linalg.inv(
            _observed_information(x, lap, pseudo, spec)[0][np.ix_(free, free)]))
    if np.any(var[:n_alpha] < 0):
        var[:] = np.nan
    return np.sqrt(var[:n_alpha]).reshape(pseudo.J, spec.item_cols)


def standard_errors(fitres: FitResult, data: RatingMatrix) -> np.ndarray:
    """Square roots of the inverse observed information, for the easiness part.

    The information is the exact Hessian of the Laplace objective at the
    optimum (`_observed_information`): one Laplace evaluation at `fitres.x`
    from the fit's modes (a fresh fit reuses its last one), then one
    forward-mode pass of the analytic gradient along every parameter, inverted
    over the coordinates `fit` leaves free. Where that is singular or gives a
    negative variance, every SE is NaN, and `fit` says so in `FitResult.warnings`.
    """
    spec = fitres.model
    if fitres.x is None:
        raise ValueError("standard errors need the packed optimum of a fit")
    shape = (fitres.eta_hat.shape[0], fitres.alpha_hat.shape[0])
    if data.values.shape != shape:
        raise ValueError(f"ratings must be {shape} as in the fit, got {data.values.shape}")
    pseudo = PseudoData.from_ratings(data, spec.tree)
    _, g, lap = _evaluate(fitres.x, pseudo, spec, fitres.eta_hat[:, : spec.re_dim])
    return _information_se(fitres.x, g, lap, pseudo, spec)


def fit_to_json(fitres: FitResult) -> str:
    """Canonical JSON fit artifact; byte-identical for identical fits."""
    spec = fitres.model
    chol = np.linalg.cholesky(fitres.sigma_hat)
    doc = {
        "alpha": fitres.alpha_hat.ravel().tolist(),
        "alpha_shape": list(fitres.alpha_hat.shape),
        "sigma_cholesky": chol[np.tril_indices(len(chol))].tolist(),
        "eta": fitres.eta_hat.tolist(),
        "loglik": float(fitres.log_marginal_lik),
        "converged": bool(fitres.converged),
        "iterations": int(fitres.iterations),
        "se": None
        if fitres.se_alpha is None
        else [None if np.isnan(s) else float(s) for s in fitres.se_alpha.ravel()],
        "model": {
            "trait_design": spec.trait_design,
            "item_design": spec.item_design,
            "covariance": spec.covariance,
            "M": spec.tree.M,
            "N": spec.tree.N,
        },
        "tree_digest": fitres.tree_digest,
        "warnings": list(fitres.warnings),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _json_field(doc: dict, key: str, convert, what: str, kind=object,
                owner: str = "fit artifact"):
    """`convert(doc[key])` of a value of Python type `kind`; a missing key,
    another type or a TypeError or ValueError of `convert` names the field."""
    if key not in doc:
        raise ValueError(f"{owner} is missing field '{key}'")
    value = doc[key]
    try:
        if not isinstance(value, kind):
            raise TypeError
        return convert(value)
    except (TypeError, ValueError):
        msg = f"{owner} field '{key}' must be {what}, got {reprlib.repr(value)}"
        raise ValueError(msg) from None


def _int_field(name, value) -> int:
    """An option's integer value by operator.index: numpy integers pass, and a
    bool, a float or a string is a ValueError that names the option."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name}: expected an integer, got {value!r}")


def _json_float(value) -> float:
    """A JSON number as a float: an int or a float, except that true and false are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError from None


def fit_from_json(text: str, tree: ResponseTree) -> FitResult:
    """Read a `fit_to_json` artifact back as the FitResult of its fit.

    `tree` must be the tree the fit was made with; its digest is checked.
    The `ModelSpec` is rebuilt from the artifact's `model` fields and the
    packed optimum `x` from `alpha` and `sigma_cholesky`, so the result
    works with `posterior_modes`, `standard_errors` and `convert_all` as a
    fresh fit does. Only `diagnostics`, which the artifact leaves out, is
    empty.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("fit artifact must be a JSON object")
    numbers = functools.partial(np.array, dtype=float)  # null reads as NaN
    f = {key: _json_field(doc, key, *how) for key, *how in (
        ("alpha", numbers, "a list of numbers", list),
        ("alpha_shape", lambda v: tuple(_int_field("alpha_shape", n) for n in v),
         "a list of integers", list),
        ("eta", numbers, "a list of lists of numbers", list),
        ("sigma_cholesky", numbers, "a list of numbers", list),
        ("loglik", _json_float, "a number"),
        ("converged", bool, "true or false", bool),
        ("iterations", functools.partial(_int_field, "iterations"), "an integer"),
        ("model", dict, "an object", dict),
        ("tree_digest", str, "a string", str),
        ("se", lambda v: None if v is None else numbers(v), "null or a list of numbers"),
        ("warnings", list, "a list of notes", list),
    ) if key in doc or key not in ("se", "warnings")}  # the last two are optional
    if f["tree_digest"] != tree.digest():
        raise ValueError("tree digest mismatch: fit was produced with a different tree")
    model = f["model"]
    for key in ("trait_design", "item_design", "covariance", "M", "N"):
        if key not in model:
            raise ValueError(f"fit artifact: model is missing field '{key}'")
    spec = ModelSpec(tree, model["trait_design"], model["item_design"], model["covariance"])
    shape, d = f["alpha_shape"], spec.re_dim
    if (len(shape) != 2 or shape[0] < 1 or shape[1] != spec.item_cols
            or f["eta"].shape[1:] != (tree.N,)):
        raise ValueError(f"fit artifact: alpha_shape must be [J, {spec.item_cols}] with J >= 1 "
                         f"for {spec.item_design} items and eta an I x {tree.N} matrix")
    for key, size in (("alpha", shape[0] * shape[1]), ("sigma_cholesky", d * (d + 1) // 2),
                      ("se", shape[0] * shape[1])):
        if f.get(key) is not None and f[key].shape != (size,):
            raise ValueError(f"fit artifact: {key} must have length {size}, got {f[key].shape}")
    if not all(np.isfinite(f[key]).all() for key in ("alpha", "eta", "sigma_cholesky")):
        raise ValueError("fit artifact: alpha, eta and sigma_cholesky must be finite")
    low = np.zeros((d, d))
    low[np.tril_indices(d)] = f["sigma_cholesky"]
    if not (np.diag(low) > 0).all():
        raise ValueError("fit artifact: sigma_cholesky needs a positive diagonal")
    theta = _cov_params(low, spec)
    return FitResult(
        alpha_hat=f["alpha"].reshape(shape),
        sigma_hat=_cov_map(theta, spec)[0],
        eta_hat=f["eta"],
        log_marginal_lik=f["loglik"],
        se_alpha=None if f.get("se") is None else f["se"].reshape(shape),
        converged=f["converged"],
        iterations=f["iterations"],
        model=spec,
        tree_digest=f["tree_digest"],
        warnings=f.get("warnings", []),
        x=_pack(f["alpha"], theta),
    )
