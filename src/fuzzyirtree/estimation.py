"""Marginal maximum-likelihood fitting of response-tree models.

Ratings are expanded into node-wise Bernoulli pseudo-observations; the
Gaussian random effect per rater is integrated out with a Laplace
approximation around the per-rater joint-likelihood mode, and the fixed
effects plus covariance parameters are maximized by L-BFGS-B over the
resulting marginal log-likelihood. `laplace_marginal_loglik` also returns
the exact gradient of that approximation, by the implicit-function rule of
automatic Laplace approximation (Skaug & Fournier 2006; Kristensen et al.
2016): the envelope term at the modes plus the derivative of
-1/2 log det(-Hessian), with the modes moving as dη̂ = H⁻¹ ∂g. The fit,
its convergence check and its standard errors all use that gradient.

A fit is a `FitResult` with its `ModelSpec`; `fit_from_json` reads a
`fit_to_json` artifact back as the same object. The easiness `alpha` is a
(J, `ModelSpec.item_cols`) matrix throughout.
"""
from __future__ import annotations

import json
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .tree import ResponseTree

LOG_2PI = float(np.log(2.0 * np.pi))
INNER_TOL = 1e-8
INNER_MAX_ITER = 100
ALPHA_BOUND = 15.0
SE_REL_STEP = 1e-4

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
            if not np.all(v == np.round(v)):
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
        i_idx, j_idx, n_idx = np.nonzero(mask)
        return cls(
            rater=i_idx,
            item=j_idx,
            node=n_idx,
            z=rows[mask],
            I=data.I,
            J=data.J,
            N=tree.N,
        )

    def __len__(self):
        return self.rater.size

    def alpha_index(self, cols: int) -> np.ndarray:
        """Flat index of each record's entry in a (J, cols) easiness matrix:
        column 0 when cols is 1, the record's node when cols is N."""
        return self.item if cols == 1 else self.item * cols + self.node


def _cov_inverse(sigma):
    """Inverse and log-determinant of a positive definite covariance."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as e:
        raise ValueError("covariance must be positive definite") from e
    return np.linalg.inv(sigma), 2.0 * float(np.sum(np.log(np.diag(chol))))


def _solve_modes(alpha, sigma, pseudo: PseudoData, trait_design, eta0=None):
    """Vectorized per-rater Newton maximization of the joint log-likelihood.

    Returns (sinv, alpha_rec, re_node, eta (I,d), neg_hess (I,d,d), per-rater
    joint values): the covariance inverse and record layout the modes were
    solved on, then the solution. Raises EstimationError if any rater fails
    to converge.
    """
    sinv, logdet_sigma = _cov_inverse(sigma)
    alpha_rec = alpha.ravel()[pseudo.alpha_index(alpha.shape[1])]
    re_node = pseudo.node if trait_design == "per-node" else np.zeros(len(pseudo), dtype=int)
    d = sinv.shape[0]
    n_raters = pseudo.I
    z, rater = pseudo.z, pseudo.rater
    flat = rater * d + re_node
    size = n_raters * d
    eta = np.zeros((n_raters, d)) if eta0 is None else eta0.copy()
    prior_const = -0.5 * d * LOG_2PI - 0.5 * logdet_sigma
    idx = np.arange(d)

    def per_rater_value(e):
        lp = e[rater, re_node] + alpha_rec
        ll = np.bincount(rater, weights=z * lp - np.logaddexp(0.0, lp), minlength=n_raters)
        quad = np.einsum("id,de,ie->i", e, sinv, e)
        return ll - 0.5 * quad + prior_const

    f_cur = per_rater_value(eta)
    for it in range(INNER_MAX_ITER + 1):
        p = expit(eta[rater, re_node] + alpha_rec)
        grad = np.bincount(flat, weights=z - p, minlength=size).reshape(n_raters, d)
        grad -= eta @ sinv
        gmax = np.abs(grad).max(axis=1)
        w = np.bincount(flat, weights=p * (1.0 - p), minlength=size).reshape(n_raters, d)
        neg_hess = np.broadcast_to(sinv, (n_raters, d, d)).copy()
        neg_hess[:, idx, idx] += w
        if gmax.max() < INNER_TOL:
            return sinv, alpha_rec, re_node, eta, neg_hess, f_cur
        if it == INNER_MAX_ITER:
            break
        step = np.linalg.solve(neg_hess, grad[..., None])[..., 0]
        scale = np.ones(n_raters)
        for _ in range(50):
            cand = eta + scale[:, None] * step
            f_new = per_rater_value(cand)
            worse = f_new < f_cur - 1e-12
            if not worse.any():
                break
            scale[worse] *= 0.5
        eta = eta + scale[:, None] * step
        f_cur = per_rater_value(eta)
    bad = int(gmax.argmax())
    raise EstimationError(
        f"inner Newton failed to converge for rater {bad} "
        f"(gradient norm {gmax[bad]:.3g})"
    )


def _expand_modes(eta, spec: ModelSpec) -> np.ndarray:
    """I x d modes as the I x N eta of a fit (a common trait on every node)."""
    return np.repeat(eta, spec.tree.N, axis=1) if spec.trait_design == "common" else eta


def laplace_marginal_loglik(alpha, sigma, pseudo, trait_design="common", *,
                            eta0=None, gradient=False):
    """Laplace-approximated marginal log-likelihood L, summed over raters.

    For each rater: joint value at the mode + (d/2) log(2 pi)
    - 1/2 log det(-Hessian at the mode). `alpha` is the (J, cols) easiness
    of `ModelSpec.item_cols`; a (J,) vector is read as (J, 1). `eta0`
    (I x d) starts the inner Newton from given modes instead of zero.

    With `gradient=True`, returns (L, dL/dalpha shaped like alpha, G, modes)
    where G is the symmetric d x d matrix with dL = tr(G dSigma) and modes
    is the I x d array of per-rater joint-likelihood maximizers.
    """
    if not isinstance(pseudo, PseudoData):
        raise TypeError("pseudo must be a PseudoData (see PseudoData.from_ratings)")
    shape = np.shape(alpha)
    alpha = np.asarray(alpha, dtype=float).reshape(pseudo.J, -1)
    sinv, alpha_rec, re_node, eta, neg_hess, values = _solve_modes(
        alpha, sigma, pseudo, trait_design, eta0
    )
    d = sinv.shape[0]
    if d == 1:
        logdet_h = np.log(neg_hess[:, 0, 0])
    else:
        _, logdet_h = np.linalg.slogdet(neg_hess)
    value = float(np.sum(values + 0.5 * d * LOG_2PI - 0.5 * logdet_h))
    if not gradient:
        return value

    # Per record k of rater i at node r: p = expit(lp), s = p(1-p),
    # u = ds/dlp. With A_i = H_i^-1, t_i[n] = sum of u over i's records at
    # node n and v_i = A_i (diag(A_i) * t_i), the derivative of
    # -1/2 log det H_i through W_i and through the moving mode is
    # -1/2 A_i[r,r] u + 1/2 v_i[r] s per record.
    rater, n_raters = pseudo.rater, pseudo.I
    p = expit(eta[rater, re_node] + alpha_rec)
    s = p * (1.0 - p)
    u = s * (1.0 - 2.0 * p)
    a_inv = np.linalg.inv(neg_hess)
    a_diag = np.diagonal(a_inv, axis1=1, axis2=2)
    t = np.bincount(rater * d + re_node, weights=u, minlength=n_raters * d)
    v = np.einsum("ide,ie->id", a_inv, a_diag * t.reshape(n_raters, d))
    per_rec = (pseudo.z - p) - 0.5 * a_diag[rater, re_node] * u + 0.5 * v[rater, re_node] * s
    d_alpha = np.bincount(
        pseudo.alpha_index(alpha.shape[1]), weights=per_rec, minlength=alpha.size
    ).reshape(shape)
    # G = 1/2 sum_i [-Q + Q eta eta' Q + Q A_i Q - 1/2 Q (v eta' + eta v') Q]
    vt_eta = v.T @ eta
    inner = eta.T @ eta + a_inv.sum(axis=0) - 0.5 * (vt_eta + vt_eta.T)
    g_sigma = 0.5 * (sinv @ inner @ sinv - n_raters * sinv)
    return value, d_alpha, 0.5 * (g_sigma + g_sigma.T), eta


@dataclass
class FitOptions:
    max_iter: int = 500
    tol: float = 1e-5
    start: np.ndarray | None = None
    compute_se: bool = True


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
    # how the fit got its answer; not part of the JSON artifact
    diagnostics: dict = field(default_factory=dict)


def _unpack_cov(theta, spec: ModelSpec) -> np.ndarray:
    d = spec.re_dim
    if spec.covariance == "scalar":
        return np.exp(2.0 * theta[0]) * np.eye(d)
    if spec.covariance == "diagonal":
        return np.diag(np.exp(2.0 * theta))
    low = _cov_factor(theta, d)
    return low @ low.T


def _cov_factor(theta, d: int) -> np.ndarray:
    """Unstructured covariance factor: row-major lower triangle, log diagonal."""
    low = np.zeros((d, d))
    low[np.tril_indices(d)] = theta
    idx = np.arange(d)
    low[idx, idx] = np.exp(low[idx, idx])
    return low


def _cov_gradient(g_sigma, theta, spec: ModelSpec) -> np.ndarray:
    """dL/dtheta from the G of dL = tr(G dSigma), through `_unpack_cov`."""
    if spec.covariance == "scalar":
        return np.array([2.0 * np.exp(2.0 * theta[0]) * np.trace(g_sigma)])
    if spec.covariance == "diagonal":
        return 2.0 * np.exp(2.0 * theta) * np.diag(g_sigma)
    # Sigma = F F' gives tr(G dSigma) = tr(2 F' G dF) over the lower
    # triangle of F, and dF_ii = F_ii dtheta on its log-parametrized diagonal
    d = spec.re_dim
    low = _cov_factor(theta, d)
    grad = 2.0 * g_sigma @ low
    idx = np.arange(d)
    grad[idx, idx] *= low[idx, idx]
    return grad[np.tril_indices(d)]


def _cov_params(low, spec: ModelSpec) -> np.ndarray:
    """Inverse of `_unpack_cov`, from the Cholesky factor of the covariance."""
    d = spec.re_dim
    idx = np.arange(d)
    if spec.covariance == "scalar":
        return np.log(low[:1, 0])
    if spec.covariance == "diagonal":
        return np.log(low[idx, idx])
    theta = low.copy()
    theta[idx, idx] = np.log(low[idx, idx])
    return theta[np.tril_indices(d)]


def _cov_bounds(spec: ModelSpec) -> list:
    """L-BFGS-B bounds of the covariance parameters: [-8, 5] on log standard
    deviations, [-20, 20] on the off-diagonal unstructured factor."""
    if spec.covariance != "unstructured":
        return [(-8.0, 5.0)] * (1 if spec.covariance == "scalar" else spec.re_dim)
    return [(-8.0, 5.0) if i == j else (-20.0, 20.0)
            for i, j in zip(*np.tril_indices(spec.re_dim))]


def _pack(alpha_params, cov_params):
    return np.concatenate([np.ravel(alpha_params), np.ravel(cov_params)])


def _start_values(pseudo: PseudoData, spec: ModelSpec) -> np.ndarray:
    """Empirical-logit starting values for the fixed effects, identity cov."""
    flat = pseudo.alpha_index(spec.item_cols)
    size = pseudo.J * spec.item_cols
    num = np.bincount(flat, weights=pseudo.z, minlength=size)
    den = np.bincount(flat, minlength=size)
    p = np.where(den > 0, num / np.maximum(den, 1), 0.5)
    p = np.clip(p, 1e-6, 1 - 1e-6)
    logit = np.clip(np.log(p / (1.0 - p)), -3.0, 3.0)
    return _pack(logit, np.zeros(len(_cov_bounds(spec))))


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


def _make_objective(pseudo: PseudoData, spec: ModelSpec, J: int):
    """The Laplace objective of a fit: packed x -> (-L, -dL/dx).

    The closure starts each inner Newton from the modes of its previous
    evaluation and keeps them in `objective.modes`; `objective.evaluations`
    counts its calls. Make one per fit: the closure is not shared.
    """
    n_alpha = J * spec.item_cols

    def objective(x):
        alpha = x[:n_alpha].reshape(J, spec.item_cols)
        theta = x[n_alpha:]
        value, d_alpha, g_sigma, eta = laplace_marginal_loglik(
            alpha, _unpack_cov(theta, spec), pseudo, trait_design=spec.trait_design,
            eta0=objective.modes, gradient=True,
        )
        objective.modes = eta
        objective.evaluations += 1
        return -value, -_pack(d_alpha, _cov_gradient(g_sigma, theta, spec))

    objective.modes = None
    objective.evaluations = 0
    return objective


def fit(data: RatingMatrix, spec: ModelSpec, options: FitOptions | None = None, *,
        warn: bool = True) -> FitResult:
    """Maximize the Laplace marginal likelihood over fixed effects and covariance.

    Separation and non-convergence notes always go to `FitResult.warnings`;
    with `warn=True` they are also issued as `UserWarning`s.
    """
    options = options or FitOptions()
    tree = spec.tree
    pseudo = PseudoData.from_ratings(data, tree)
    notes = _separation_warnings(pseudo, tree)
    n_alpha = data.J * spec.item_cols
    bounds = [(-ALPHA_BOUND, ALPHA_BOUND)] * n_alpha + _cov_bounds(spec)
    x0 = options.start if options.start is not None else _start_values(pseudo, spec)
    x0 = np.asarray(x0, dtype=float)
    if x0.size != len(bounds):
        raise ValueError(f"start vector must have {len(bounds)} entries")
    objective = _make_objective(pseudo, spec, data.J)
    res = minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": options.max_iter, "ftol": 1e-14, "gtol": options.tol},
    )
    x = res.x
    # one evaluation at the solution gives the log-likelihood, the posterior
    # modes and the projected gradient that decides convergence
    nll, g = objective(x)
    lo, hi = np.array(bounds).T
    g_proj = g.copy()
    g_proj[(x <= lo) & (g > 0)] = 0.0
    g_proj[(x >= hi) & (g < 0)] = 0.0
    pg_max = float(np.abs(g_proj).max())
    converged = pg_max < options.tol or bool(res.success)
    if not converged:
        notes = notes + [f"did not converge after {res.nit} iterations"]

    result = FitResult(
        alpha_hat=x[:n_alpha].reshape(data.J, spec.item_cols),
        sigma_hat=_unpack_cov(x[n_alpha:], spec),
        eta_hat=_expand_modes(objective.modes, spec),
        log_marginal_lik=-nll,
        se_alpha=None,
        converged=converged,
        iterations=int(res.nit),
        model=spec,
        tree_digest=tree.digest(),
        warnings=notes,
        x=x,
        diagnostics={
            "objective_evaluations": objective.evaluations,
            "projected_gradient_max": pg_max,
            "message": str(res.message),
        },
    )
    if warn:
        for w in notes:
            _warnings.warn(w, stacklevel=2)
    if options.compute_se and converged:
        result.se_alpha = standard_errors(result, data)
    return result


def posterior_modes(fitres: FitResult, data: RatingMatrix) -> np.ndarray:
    """Per-rater joint-likelihood maximizers at the fitted parameters, I x N."""
    spec = fitres.model
    pseudo = PseudoData.from_ratings(data, spec.tree)
    eta = _solve_modes(fitres.alpha_hat, fitres.sigma_hat, pseudo, spec.trait_design)[3]
    return _expand_modes(eta, spec)


def standard_errors(fitres: FitResult, data: RatingMatrix) -> np.ndarray:
    """Square roots of the inverse observed information, for the easiness part.

    The information is the Jacobian of the analytic gradient of the Laplace
    objective at the optimum, by central differences (relative step
    `SE_REL_STEP`, 2n evaluations for n parameters), symmetrized.
    """
    spec = fitres.model
    pseudo = PseudoData.from_ratings(data, spec.tree)
    n_alpha = fitres.alpha_hat.size
    x = fitres.x
    if x is None:
        raise ValueError("standard errors need the packed optimum of a fit")
    objective = _make_objective(pseudo, spec, data.J)
    modes = fitres.eta_hat[:, : spec.re_dim]

    def grad(v):
        # both sides of a difference start the inner Newton at the modes of
        # the optimum, so their leftover mode residuals nearly cancel
        objective.modes = modes
        return objective(v)[1]

    n = x.size
    h = SE_REL_STEP * np.maximum(1.0, np.abs(x))
    hess = np.empty((n, n))
    for i in range(n):
        step = np.zeros(n)
        step[i] = h[i]
        hess[:, i] = (grad(x + step) - grad(x - step)) / (2.0 * h[i])
    hess = 0.5 * (hess + hess.T)
    try:
        cov = np.linalg.inv(hess)
        diag = np.diag(cov)[:n_alpha]
        if np.any(diag < 0):
            raise np.linalg.LinAlgError("negative variance estimate")
        se = np.sqrt(diag)
    except np.linalg.LinAlgError:
        _warnings.warn("observed information is not invertible; SEs set to NaN")
        se = np.full(n_alpha, np.nan)
    return se.reshape(fitres.alpha_hat.shape)


def fit_to_json(fitres: FitResult) -> str:
    """Canonical JSON fit artifact; byte-identical for identical fits."""
    spec = fitres.model
    chol = np.linalg.cholesky(fitres.sigma_hat)
    doc = {
        "alpha": [float(a) for a in fitres.alpha_hat.ravel()],
        "alpha_shape": list(fitres.alpha_hat.shape),
        "sigma_cholesky": chol[np.tril_indices(len(chol))].tolist(),
        "eta": [[float(v) for v in row] for row in fitres.eta_hat],
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
    if doc["tree_digest"] != tree.digest():
        raise ValueError("tree digest mismatch: fit was produced with a different tree")
    model = doc["model"]
    for key in ("trait_design", "item_design", "covariance", "M", "N"):
        if not isinstance(model, dict) or key not in model:
            raise ValueError(f"fit artifact: model is missing field '{key}'")
    spec = ModelSpec(tree, model["trait_design"], model["item_design"], model["covariance"])
    alpha = np.array(doc["alpha"], dtype=float).reshape(doc["alpha_shape"])
    eta = np.array(doc["eta"], dtype=float)
    if alpha.shape[1:] != (spec.item_cols,) or eta.shape[1:] != (tree.N,):
        raise ValueError(f"fit artifact: alpha_shape must be [J, {spec.item_cols}] for "
                         f"{spec.item_design} items and eta an I x {tree.N} matrix")
    d = spec.re_dim
    low = np.zeros((d, d))
    low[np.tril_indices(d)] = doc["sigma_cholesky"]
    if not (np.diag(low) > 0).all():
        raise ValueError("fit artifact: sigma_cholesky needs a positive diagonal")
    theta = _cov_params(low, spec)
    se = doc.get("se")
    return FitResult(
        alpha_hat=alpha,
        sigma_hat=_unpack_cov(theta, spec),
        eta_hat=eta,
        log_marginal_lik=float(doc["loglik"]),
        se_alpha=None if se is None else np.array(se, dtype=float).reshape(alpha.shape),
        converged=bool(doc["converged"]),
        iterations=int(doc["iterations"]),
        model=spec,
        tree_digest=doc["tree_digest"],
        warnings=list(doc.get("warnings", [])),
        x=_pack(alpha, theta),
    )
