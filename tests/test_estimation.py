import dataclasses
import functools
import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzyirtree import estimation
from fuzzyirtree.estimation import (
    EstimationError,
    FitOptions,
    FitResult,
    ModelSpec,
    PseudoData,
    RatingMatrix,
    _box,
    _cov_map,
    _evaluate,
    _observed_information,
    _start_values,
    _trust_step,
    fit,
    fit_from_json,
    fit_to_json,
    laplace_marginal_loglik,
    posterior_modes,
    standard_errors,
)
from fuzzyirtree.fuzzy import convert_all
from fuzzyirtree.simulation import FakingModel, _replication_rng, generate_true_data, perturb
from fuzzyirtree.tree import category_probability_table, expit, preset_tree

# the step of `gradient_difference_hessian`, relative to max(1, |x|)
GRADIENT_DIFF_STEP = 1e-2

DESIGNS = (
    ("common", "common", "scalar"),
    ("common", "per-node", "scalar"),
    ("per-node", "common", "diagonal"),
    ("per-node", "common", "unstructured"),
    ("per-node", "per-node", "diagonal"),
    ("per-node", "per-node", "unstructured"),
)

# Published per-item easiness of the paper's empirical application, items
# 1..5 by node (M, A_w, A_s, E) of fig2-6cat.
CASE_STUDY_ALPHA = np.array([
    [-1.19, -0.40, -1.04, 0.33],
    [-0.88, 0.53, 0.79, 0.05],
    [-0.56, 0.25, -0.18, 0.47],
    [-1.50, 0.46, 0.51, 0.06],
    [-0.71, 0.05, -0.28, 0.04],
])
CASE_STUDY_SPEC = ("per-node", "per-node", "unstructured")


def case_study_stand_in(seed, I=1000):
    """fig2-6cat ratings of I raters from CASE_STUDY_ALPHA and a 4-D trait
    with sd 0.89 and correlation 0.5: a stand-in for the case-study data."""
    tree = preset_tree("fig2-6cat")
    rng = np.random.default_rng(seed)
    cov = 0.8 * (0.5 * np.eye(tree.N) + 0.5)
    eta = rng.standard_normal((I, tree.N)) @ np.linalg.cholesky(cov).T
    probs = category_probability_table(tree, eta[:, None, :], CASE_STUDY_ALPHA[None])
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    y = (cdf < rng.random((I, len(CASE_STUDY_ALPHA)))[..., None]).sum(axis=-1) + 1
    return RatingMatrix(y, tree.M)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _pseudo_records(y, tree):
    """Recompute the node expansion straight from the mapping matrix."""
    out = []
    for i, row in enumerate(np.atleast_2d(y)):
        for j, cat in enumerate(row):
            for n in range(tree.N):
                t = tree.map[cat - 1, n]
                if not np.isnan(t):
                    out.append((i, j, n, int(t)))
    return out


def joint_loglik(alpha, sigma, eta_i, records, trait_design="common"):
    """Joint log-likelihood of one rater: Bernoulli terms plus Gaussian prior.

    `records` are the rater's (rater, item, node, z) tuples; `alpha` is (J,)
    for common items or (J, N) for per-node items. Returns (value, gradient,
    Hessian), the latter two with respect to the rater's random effect.
    """
    eta = np.atleast_1d(np.asarray(eta_i, dtype=float))
    d = eta.size
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    assert sigma.shape == (d, d)
    alpha = np.asarray(alpha, dtype=float)
    value = -0.5 * d * np.log(2 * np.pi) - 0.5 * np.linalg.slogdet(sigma)[1]
    sinv = np.linalg.inv(sigma)
    value -= 0.5 * eta @ sinv @ eta
    grad = -sinv @ eta
    hess = -sinv.copy()
    for _, j, n, z in records:
        k = n if trait_design == "per-node" else 0
        lp = eta[k] + (alpha[j] if alpha.ndim == 1 else alpha[j, n])
        p = 1.0 / (1.0 + np.exp(-lp))
        value += z * lp - np.log1p(np.exp(lp))
        grad[k] += z - p
        hess[k, k] -= p * (1.0 - p)
    return float(value), grad, hess


def _bernoulli_loglik(eta, alpha_per_item, records_i):
    """Sum of Bernoulli log-masses for one rater at common trait eta."""
    total = 0.0
    for _, j, _, z in records_i:
        lp = eta + alpha_per_item[j]
        p = 1.0 / (1.0 + np.exp(-lp))
        total += np.log(p) if z == 1 else np.log1p(-p)
    return total


def agh_marginal_loglik(alpha_per_item, var, y, tree, n_nodes=61):
    """Adaptive Gauss-Hermite marginal log-likelihood, common-trait design.

    Centers and scales the quadrature at each rater's joint mode, found by
    a dense grid search plus local refinement, so the oracle shares no code
    with the implementation under test.
    """
    from scipy.optimize import minimize_scalar
    from scipy.special import logsumexp

    records = _pseudo_records(y, tree)
    x_k, w_k = np.polynomial.hermite.hermgauss(n_nodes)
    total = 0.0
    for i in range(np.atleast_2d(y).shape[0]):
        recs = [r for r in records if r[0] == i]

        def neg_joint(e):
            return -(
                _bernoulli_loglik(e, alpha_per_item, recs)
                - 0.5 * e * e / var
                - 0.5 * np.log(2 * np.pi * var)
            )

        m = minimize_scalar(neg_joint, bracket=(-3, 0, 3)).x
        h = 1e-4
        lam = (neg_joint(m + h) - 2 * neg_joint(m) + neg_joint(m - h)) / h**2
        lam = max(lam, 1e-8)
        scale = np.sqrt(2.0 / lam)
        etas = m + scale * x_k
        logf = np.array([-neg_joint(e) for e in etas])
        total += logsumexp(logf + x_k**2 + np.log(w_k)) + np.log(scale)
    return total


def neg_laplace_value(x, pseudo, spec, J):
    """-L at a packed parameter vector, with the inner Newton started at zero."""
    n_alpha = J if spec.item_design == "common" else J * spec.tree.N
    alpha = x[:n_alpha]
    if spec.item_design == "per-node":
        alpha = alpha.reshape(J, spec.tree.N)
    return -laplace_marginal_loglik(alpha, _cov_map(x[n_alpha:], spec)[0], pseudo)[0]


def value_hessian_se(fitres, data):
    """Easiness SEs from the O(n^2) central-difference Hessian of the Laplace
    value itself (2n^2 + 1 evaluations)."""
    spec = fitres.model
    pseudo = PseudoData.from_ratings(data, spec.tree)
    x = fitres.x
    n = x.size
    h = 1e-4 * np.maximum(1.0, np.abs(x))

    def nll(v):
        return neg_laplace_value(v, pseudo, spec, data.J)

    hess = np.empty((n, n))
    f0 = nll(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (nll(x + ei) - 2.0 * f0 + nll(x - ei)) / h[i] ** 2
        for j in range(i):
            ej = np.zeros(n)
            ej[j] = h[j]
            hij = (
                nll(x + ei + ej) - nll(x + ei - ej) - nll(x - ei + ej) + nll(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = hij
    n_alpha = fitres.alpha_hat.size
    return np.sqrt(np.diag(np.linalg.inv(hess))[:n_alpha]).reshape(fitres.alpha_hat.shape)


def gradient_difference_hessian(x, pseudo, spec, eta0):
    """Hessian of the objective -L by fourth-order central differences of its
    analytic gradient (4n evaluations, relative step GRADIENT_DIFF_STEP),
    symmetrized. Every evaluation starts the inner Newton at `eta0`. The
    package took its information from second-order differences (2n
    evaluations at step 1e-4) before the exact one; where Sigma is close to
    singular those resolve the Hessian only to about 1e-6 of its largest
    entry, for rounding in the gradient, and the wider fourth-order stencil
    does not have that floor."""
    n = x.size
    h = GRADIENT_DIFF_STEP * np.maximum(1.0, np.abs(x))

    def grad(v):
        return _evaluate(v, pseudo, spec, eta0)[1]

    hess = np.empty((n, n))
    for i in range(n):
        step = np.zeros(n)
        step[i] = h[i]
        near = grad(x + step) - grad(x - step)
        far = grad(x + 2.0 * step) - grad(x - 2.0 * step)
        hess[:, i] = (8.0 * near - far) / (12.0 * h[i])
    return 0.5 * (hess + hess.T)


def perturbed(x, spec, rng, scale):
    """Packed x moved by one N(0, scale^2) draw per entry: each sd is
    multiplied by e^draw, so it stays positive and moves by the same factor
    at every size, and every other entry has the draw added."""
    noise = rng.normal(scale=scale, size=x.size)
    sd, _, size = spec.cov_layout
    is_sd = np.isin(np.arange(x.size), x.size - size + sd)
    return np.where(is_sd, x * np.exp(noise), x + noise)


def information_at(x, pseudo, spec, eta0):
    """`_observed_information` at x, on the Laplace evaluation whose inner
    Newton starts from `eta0`."""
    return _observed_information(x, _evaluate(x, pseudo, spec, eta0)[2], pseudo, spec)


def oracle_solve_modes(alpha, sigma, pseudo, eta0=None, exhausted=None):
    """The inner Newton as first written, kept as a bit-for-bit oracle: it
    values every accepted iterate a second time, takes p from a second
    linear predictor and takes the d = 1 step with a batched 1 x 1 solve.
    Each line search that runs out of its 50 halvings appends its Newton
    step number to the list `exhausted`, when one is given."""
    sinv, logdet_sigma = estimation._cov_inverse(sigma)
    alpha_rec = alpha.ravel()[pseudo.cell_index(pseudo.item, alpha.shape[1])]
    d = sinv.shape[0]
    n_raters = pseudo.I
    z, rater = pseudo.z, pseudo.rater
    flat = pseudo.cell_index(rater, d)
    size = n_raters * d
    eta = np.zeros((n_raters, d)) if eta0 is None else eta0.copy()
    prior_const = -0.5 * d * estimation.LOG_2PI - 0.5 * logdet_sigma
    idx = np.arange(d)

    def per_rater_value(e):
        lp = e.ravel()[flat] + alpha_rec
        ll = np.bincount(rater, weights=z * lp - np.logaddexp(0.0, lp), minlength=n_raters)
        quad = np.einsum("id,de,ie->i", e, sinv, e)
        return ll - 0.5 * quad + prior_const

    f_cur = per_rater_value(eta)
    for it in range(estimation.INNER_MAX_ITER + 1):
        p = expit(eta.ravel()[flat] + alpha_rec)
        grad = np.bincount(flat, weights=z - p, minlength=size).reshape(n_raters, d)
        grad -= eta @ sinv
        gmax = np.abs(grad).max(axis=1)
        w = np.bincount(flat, weights=p * (1.0 - p), minlength=size).reshape(n_raters, d)
        neg_hess = np.broadcast_to(sinv, (n_raters, d, d)).copy()
        neg_hess[:, idx, idx] += w
        if gmax.max() < estimation.INNER_TOL:
            return sinv, flat, eta, neg_hess, f_cur, p
        step = np.linalg.solve(neg_hess, grad[..., None])[..., 0]
        if it == estimation.INNER_MAX_ITER:
            if 0.5 * np.einsum("id,id->i", grad, step).max() < estimation.INNER_DECREMENT_TOL:
                return sinv, flat, eta, neg_hess, f_cur, p
            break
        scale = np.ones(n_raters)
        for _ in range(50):
            cand = eta + scale[:, None] * step
            f_new = per_rater_value(cand)
            worse = f_new < f_cur - estimation.INNER_DECREMENT_TOL
            if not worse.any():
                break
            scale[worse] *= 0.5
        else:
            if exhausted is not None:
                exhausted.append(it)
        eta = eta + scale[:, None] * step
        f_cur = per_rater_value(eta)
    bad = int(gmax.argmax())
    raise EstimationError(
        f"inner Newton failed to converge for rater {bad} "
        f"(gradient norm {gmax[bad]:.3g})"
    )


def oracle_one_trait_value(alpha, sigma, pseudo, eta0=None):
    """The Laplace value of a common trait (d = 1) as it was before the
    kernel took `slogdet` for every d, kept as a bit-for-bit oracle: the
    log-determinant of each 1 x 1 Hessian is the log of its one entry."""
    alpha = np.asarray(alpha, dtype=float).reshape(pseudo.J, -1)
    _, _, _, neg_hess, values, _ = estimation._solve_modes(alpha, sigma, pseudo, eta0)
    assert neg_hess.shape[1:] == (1, 1)
    return float(np.sum(values + 0.5 * estimation.LOG_2PI - 0.5 * np.log(neg_hess[:, 0, 0])))


# ---------------------------------------------------------------------------
# pseudo-data expansion
# ---------------------------------------------------------------------------


def _records(pseudo):
    return [
        (int(i), int(j), int(n), int(z))
        for i, j, n, z in zip(pseudo.rater, pseudo.item, pseudo.node, pseudo.z)
    ]


class TestExpand:
    def test_middle_category_visits_only_root(self, fig1):
        recs = _records(PseudoData.from_ratings(RatingMatrix(np.array([[3]]), 5), fig1))
        assert recs == [(0, 0, 0, 0)]

    def test_top_category_path(self, fig1):
        recs = _records(PseudoData.from_ratings(RatingMatrix(np.array([[5]]), 5), fig1))
        assert [(n, z) for _, _, n, z in recs] == [(0, 1), (1, 1), (3, 1)]

    def test_record_count(self, fig1):
        data = RatingMatrix(np.ones((2, 2), dtype=int), 5)
        assert PseudoData.from_ratings(data, fig1).rater.size == 12

    def test_matches_direct_expansion(self, fig1, fig2, rng):
        for tree in (fig1, fig2):
            y = rng.integers(1, tree.M + 1, size=(7, 3))
            pseudo = PseudoData.from_ratings(RatingMatrix(y, tree.M), tree)
            assert _records(pseudo) == _pseudo_records(y, tree)
            assert (pseudo.I, pseudo.J, pseudo.N) == (7, 3, tree.N)

    def test_too_many_categories(self, fig1):
        with pytest.raises(ValueError, match="categories"):
            PseudoData.from_ratings(RatingMatrix(np.array([[6]]), 6), fig1)


class TestRatingMatrix:
    def test_out_of_range(self):
        with pytest.raises(ValueError, match="1..5"):
            RatingMatrix(np.array([[0, 3]]), 5)

    def test_non_integer(self):
        with pytest.raises(ValueError, match="integers"):
            RatingMatrix(np.array([[1.5, 3.0]]), 5)

    def test_empty(self):
        with pytest.raises(ValueError):
            RatingMatrix(np.empty((0, 3), dtype=int), 5)

    @pytest.mark.parametrize("values", [[[1.0, np.inf]], [["1", "2"]], [[True, True]]],
                             ids=["inf", "strings", "booleans"])
    def test_rejected_without_a_warning(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ratings must be integers"):
                RatingMatrix(np.array(values), 5)

    def test_integral_floats_are_read_as_integers(self):
        y = RatingMatrix(np.array([[1.0, 3.0], [5.0, 2.0]]), 5).values
        assert np.issubdtype(y.dtype, np.integer)
        np.testing.assert_array_equal(y, [[1, 3], [5, 2]])


# ---------------------------------------------------------------------------
# joint log-likelihood
# ---------------------------------------------------------------------------


class TestJointLoglik:
    def test_prior_only(self):
        v, g, h = joint_loglik(np.zeros(1), np.eye(1), [0.0], [])
        assert v == pytest.approx(-0.918939, abs=1e-6)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_single_record(self, fig1):
        recs = _pseudo_records(np.array([[5]]), fig1)[:1]
        v, _, _ = joint_loglik(np.zeros(1), np.eye(1), [0.0], recs)
        assert v == pytest.approx(np.log(0.5) - 0.918939, abs=1e-6)

    def test_gradient_hessian_vs_finite_differences(self, fig1, rng):
        y = rng.integers(1, 6, size=(1, 3))
        recs = _pseudo_records(y, fig1)
        alpha = rng.normal(size=3)
        sigma = np.array([[1.3]])
        for _ in range(50):
            e = rng.normal(scale=1.5)

            def val(x):
                return joint_loglik(alpha, sigma, [x], recs)[0]

            v, g, h = joint_loglik(alpha, sigma, [e], recs)
            step = 1e-6 * max(1.0, abs(e))
            g_fd = (val(e + step) - val(e - step)) / (2 * step)
            hs = 1e-4 * max(1.0, abs(e))  # wider step: second differences amplify roundoff
            h_fd = (val(e + hs) - 2 * v + val(e - hs)) / hs**2
            assert g[0] == pytest.approx(g_fd, rel=1e-6, abs=1e-8)
            assert h[0, 0] == pytest.approx(h_fd, rel=1e-4)
            assert h[0, 0] < 0

    def test_per_node_gradient_vs_finite_differences(self, fig1, rng):
        y = rng.integers(1, 6, size=(1, 4))
        recs = _pseudo_records(y, fig1)
        alpha = rng.normal(size=(4, 4))
        a = rng.normal(scale=0.3, size=(4, 4))
        sigma = np.eye(4) + a @ a.T
        e0 = rng.normal(size=4)
        v, g, h = joint_loglik(alpha, sigma, e0, recs, trait_design="per-node")
        for k in range(4):
            step = np.zeros(4)
            step[k] = 1e-6
            vp = joint_loglik(alpha, sigma, e0 + step, recs, trait_design="per-node")[0]
            vm = joint_loglik(alpha, sigma, e0 - step, recs, trait_design="per-node")[0]
            assert g[k] == pytest.approx((vp - vm) / 2e-6, rel=1e-6, abs=1e-8)
        assert np.all(np.linalg.eigvalsh(h) < 0)

    @pytest.mark.parametrize("design", [("common", "common"), ("per-node", "per-node")])
    def test_laplace_kernel_from_joint_modes(self, design, fig1, rng):
        # the kernel's value is, rater by rater, the joint log-likelihood at
        # its mode plus (d/2) log 2 pi - 1/2 log det(-Hessian) there
        trait_design, item_design = design
        y = rng.integers(1, 6, size=(6, 3))
        pseudo = PseudoData.from_ratings(RatingMatrix(y, 5), fig1)
        d = 1 if trait_design == "common" else fig1.N
        alpha = rng.normal(size=3 if item_design == "common" else (3, fig1.N))
        a = rng.normal(scale=0.3, size=(d, d))
        sigma = 0.8 * np.eye(d) + a @ a.T
        value, _, _, modes = laplace_marginal_loglik(alpha, sigma, pseudo)
        records = _pseudo_records(y, fig1)
        want = 0.0
        for i in range(6):
            v, g, h = joint_loglik(alpha, sigma, modes[i], [r for r in records if r[0] == i],
                                   trait_design)
            np.testing.assert_allclose(g, 0.0, atol=1e-7)
            want += v + 0.5 * d * np.log(2 * np.pi) - 0.5 * np.linalg.slogdet(-h)[1]
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_singular_covariance(self, fig1):
        pseudo = PseudoData.from_ratings(RatingMatrix(np.array([[3]]), 5), fig1)
        with pytest.raises(ValueError, match="positive definite"):
            laplace_marginal_loglik(np.zeros(1), np.zeros((1, 1)), pseudo)

    def test_pseudo_must_be_pseudo_data(self):
        ratings = RatingMatrix(np.array([[3]]), 5)
        with pytest.raises(TypeError, match=r"pseudo must be a PseudoData \(see PseudoData"):
            laplace_marginal_loglik(np.zeros(1), np.eye(1), ratings)


# ---------------------------------------------------------------------------
# Laplace marginal vs quadrature
# ---------------------------------------------------------------------------


class TestLaplaceMarginal:
    def test_symmetric_instance_exact_value(self, fig1):
        # a single middle-category response depends on one node only; by
        # symmetry of the logistic under the standard normal, the exact
        # marginal likelihood is 1/2 -- this pins the quadrature oracle
        y = np.array([[3]])
        exact = np.log(0.5)
        agh = agh_marginal_loglik(np.zeros(1), 1.0, y, fig1)
        assert agh == pytest.approx(exact, abs=1e-9)
        pseudo = PseudoData.from_ratings(RatingMatrix(y, 5), fig1)
        lap = laplace_marginal_loglik(np.zeros(1), np.array([[1.0]]), pseudo)[0]
        # the one-observation Laplace error at unit prior variance is about
        # 8e-3; see the module tolerances note in the repository docs
        assert lap == pytest.approx(exact, abs=2e-2)

    def test_matches_quadrature_small_variance(self, fig1, rng):
        # the Laplace error shrinks with the prior variance; at moderate
        # variances the approximation is quadrature-accurate
        for k in range(10):
            I, J = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            y = rng.integers(1, 6, size=(I, J))
            alpha = rng.normal(scale=0.8, size=J)
            var = float(rng.uniform(0.01, 0.05))
            pseudo = PseudoData.from_ratings(RatingMatrix(y, 5), fig1)
            lap = laplace_marginal_loglik(alpha, np.array([[var]]), pseudo)[0]
            agh = agh_marginal_loglik(alpha, var, y, fig1)
            assert lap == pytest.approx(agh, abs=1e-3), f"instance {k}"

    def test_quadrature_gap_at_unit_variance(self, fig1, rng):
        for _ in range(5):
            y = rng.integers(1, 6, size=(3, 2))
            alpha = rng.normal(scale=0.5, size=2)
            pseudo = PseudoData.from_ratings(RatingMatrix(y, 5), fig1)
            lap = laplace_marginal_loglik(alpha, np.array([[1.0]]), pseudo)[0]
            agh = agh_marginal_loglik(alpha, 1.0, y, fig1)
            assert lap == pytest.approx(agh, abs=5e-2)

    def test_near_degenerate_prior_limit(self, fig1):
        # as the prior collapses, the marginal tends to the fixed-effects
        # log-likelihood evaluated at a zero trait
        y = np.array([[1, 4], [3, 5]])
        alpha = np.array([0.3, -0.4])
        pseudo = PseudoData.from_ratings(RatingMatrix(y, 5), fig1)
        lap = laplace_marginal_loglik(alpha, np.array([[1e-8]]), pseudo)[0]
        fixed = sum(
            _bernoulli_loglik(0.0, alpha, [r for r in _pseudo_records(y, fig1) if r[0] == i])
            for i in range(2)
        )
        assert lap == pytest.approx(fixed, abs=1e-3)

    def test_additivity_over_raters(self, fig1, rng):
        y = rng.integers(1, 6, size=(4, 3))
        alpha = rng.normal(size=3)
        one = laplace_marginal_loglik(
            alpha, np.array([[0.7]]), PseudoData.from_ratings(RatingMatrix(y, 5), fig1)
        )[0]
        two = laplace_marginal_loglik(
            alpha,
            np.array([[0.7]]),
            PseudoData.from_ratings(RatingMatrix(np.vstack([y, y]), 5), fig1),
        )[0]
        assert two == pytest.approx(2 * one, rel=1e-9)


class TestLaplaceGradient:
    @pytest.mark.parametrize("preset", ["fig1-5cat", "fig2-6cat"])
    @pytest.mark.parametrize("design", DESIGNS, ids="/".join)
    def test_matches_central_differences(self, preset, design, rng):
        tree = preset_tree(preset)
        J = 5
        data = RatingMatrix(rng.integers(1, tree.M + 1, size=(30, J)), tree.M)
        pseudo = PseudoData.from_ratings(data, tree)
        spec = ModelSpec(tree, *design)
        x = perturbed(_start_values(pseudo, spec), spec, rng, 0.3)
        value, grad, _ = _evaluate(x, pseudo, spec)
        assert value == pytest.approx(neg_laplace_value(x, pseudo, spec, J), rel=1e-12)
        fd = np.empty(x.size)
        for k in range(x.size):
            step = np.zeros(x.size)
            step[k] = 1e-5 * max(1.0, abs(x[k]))
            fd[k] = (
                neg_laplace_value(x + step, pseudo, spec, J)
                - neg_laplace_value(x - step, pseudo, spec, J)
            ) / (2.0 * step[k])
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_kernel_outputs(self, fig1, rng):
        data = RatingMatrix(rng.integers(1, 6, size=(20, 3)), 5)
        pseudo = PseudoData.from_ratings(data, fig1)
        alpha = rng.normal(size=(3, 4))
        a = rng.normal(scale=0.3, size=(4, 4))
        sigma = np.eye(4) + a @ a.T
        value, d_alpha, g_sigma, modes = laplace_marginal_loglik(alpha, sigma, pseudo)
        assert d_alpha.shape == alpha.shape
        np.testing.assert_array_equal(g_sigma, g_sigma.T)
        assert modes.shape == (20, 4)
        # warm-starting the inner Newton at the modes gives the same value
        again = laplace_marginal_loglik(alpha, sigma, pseudo, eta0=modes)[0]
        assert again == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("alpha_cols,d", [(1, 2), (3, 1)], ids=["sigma-2x2", "alpha-3-cols"])
    def test_layout_mismatch_is_a_domain_error(self, alpha_cols, d, fig1, rng):
        # on a 4-node tree, alpha needs 1 or 4 columns and sigma d = 1 or 4
        data = RatingMatrix(rng.integers(1, 6, size=(8, 3)), 5)
        pseudo = PseudoData.from_ratings(data, fig1)
        with pytest.raises(ValueError, match="1 or N = 4 columns, got"):
            laplace_marginal_loglik(np.zeros((3, alpha_cols)), np.eye(d), pseudo)


class TestInnerNewtonOracle:
    """The kernel gives, bit for bit, what it gives on `oracle_solve_modes`.

    At d = 1 the kernel's step is a division and the oracle's a batched
    1 x 1 solve; they have the same bits with numpy 2.4.6 and its bundled
    OpenBLAS 0.3.31, where these tests were checked. A BLAS whose
    triangular solve multiplies by a reciprocal would fail the d = 1 cases
    by an ulp. At d = 1 the value also has the bits of
    `oracle_one_trait_value`, which takes the log of the one Hessian entry
    where the kernel takes `slogdet`."""

    @staticmethod
    def _case(preset, design, I, J, seed=11):
        tree = preset_tree(preset)
        rng = np.random.default_rng(seed)
        pseudo = PseudoData.from_ratings(
            RatingMatrix(rng.integers(1, tree.M + 1, size=(I, J)), tree.M), tree
        )
        spec = ModelSpec(tree, *design)
        x = perturbed(_start_values(pseudo, spec), spec, rng, 0.5)
        n_alpha = J * spec.item_cols
        return x[:n_alpha].reshape(J, spec.item_cols), _cov_map(x[n_alpha:], spec)[0], pseudo

    @staticmethod
    def _oracle(monkeypatch, alpha, sigma, pseudo, eta0=None, exhausted=None):
        """`laplace_marginal_loglik` on `oracle_solve_modes`."""
        oracle = functools.partial(oracle_solve_modes, exhausted=exhausted)
        with monkeypatch.context() as m:
            m.setattr(estimation, "_solve_modes", oracle)
            return laplace_marginal_loglik(alpha, sigma, pseudo, eta0=eta0)

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("start", ["cold", "warm"])
    @pytest.mark.parametrize("shape", [(200, 6), (1, 6), (200, 1)], ids=["200x6", "I=1", "J=1"])
    @pytest.mark.parametrize("preset", ["fig1-5cat", "fig2-6cat"])
    @pytest.mark.parametrize("design", DESIGNS, ids="/".join)
    def test_bit_identical(self, design, preset, shape, start, monkeypatch):
        alpha, sigma, pseudo = self._case(preset, design, *shape)
        # a warm start at the modes of nearby easiness, as the fit's objective
        # starts each evaluation at the modes of the one before
        eta0 = None if start == "cold" else oracle_solve_modes(alpha + 0.3, sigma, pseudo)[2]
        want = self._oracle(monkeypatch, alpha, sigma, pseudo, eta0)
        got = laplace_marginal_loglik(alpha, sigma, pseudo, eta0=eta0)
        self._assert_same(got, want)
        self._assert_same(
            estimation._solve_modes(alpha, sigma, pseudo, eta0),
            oracle_solve_modes(alpha, sigma, pseudo, eta0),
        )

    @pytest.mark.parametrize("start", ["cold", "warm"])
    @pytest.mark.parametrize("shape", [(200, 6), (1, 6), (200, 1)], ids=["200x6", "I=1", "J=1"])
    @pytest.mark.parametrize("preset", ["fig1-5cat", "fig2-6cat"])
    @pytest.mark.parametrize("design", [d for d in DESIGNS if d[0] == "common"], ids="/".join)
    def test_one_trait_logdet(self, design, preset, shape, start):
        alpha, sigma, pseudo = self._case(preset, design, *shape)
        eta0 = None if start == "cold" else oracle_solve_modes(alpha + 0.3, sigma, pseudo)[2]
        want = oracle_one_trait_value(alpha, sigma, pseudo, eta0)
        got = laplace_marginal_loglik(alpha, sigma, pseudo, eta0=eta0)[0]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize(
        "sd2,start,converges", [(1e17, -40.0, True), (1e18, 40.0, False)],
        ids=["recovers", "fails"],
    )
    def test_exhausted_halvings(self, d, sd2, start, converges, fig1, monkeypatch):
        # with a prior variance near 1e17 the curvature is p(1 - p), about
        # e^-40 at |eta| = 40: the Newton step overshoots by many orders of
        # magnitude and 50 halvings do not bring it back to a better value
        pseudo = PseudoData.from_ratings(RatingMatrix(np.array([[4, 4, 5]]), 5), fig1)
        args = (np.zeros((3, 1)), sd2 * np.eye(d), pseudo)
        eta0 = np.full((1, d), start)
        exhausted = []
        if converges:
            want = self._oracle(monkeypatch, *args, eta0, exhausted)
            self._assert_same(laplace_marginal_loglik(*args, eta0=eta0), want)
        else:
            with pytest.raises(EstimationError) as want:
                self._oracle(monkeypatch, *args, eta0, exhausted)
            with pytest.raises(EstimationError) as got:
                laplace_marginal_loglik(*args, eta0=eta0)
            assert str(got.value) == str(want.value)
        assert exhausted


class TestCovarianceMap:
    @pytest.mark.parametrize("design", DESIGNS, ids="/".join)
    def test_positive_definite_at_the_bounds(self, design, fig2, rng):
        # every corner of the box, then draws that put each parameter at a
        # bound or inside it at random
        spec = ModelSpec(fig2, *design)
        lo, hi = _box(0, spec)
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        inside = rng.uniform(lo, hi, size=(2000, lo.size))
        at_bound = np.where(rng.random(inside.shape) < 0.5, lo, hi)
        mixed = np.where(rng.random(inside.shape) < 0.5, at_bound, inside)
        for theta in np.vstack([corners, mixed]):
            np.linalg.cholesky(_cov_map(theta, spec)[0])

    def test_scalar_and_diagonal_are_the_squared_sds(self, fig2, rng):
        # sds from every scale of the box [e^-8, e^5]
        theta = np.exp(rng.uniform(-8.0, 5.0, size=fig2.N))
        spec = ModelSpec(fig2, "per-node", "common", "diagonal")
        lo, hi = _box(0, spec)
        assert ((lo <= theta) & (theta <= hi)).all()
        np.testing.assert_array_equal(_cov_map(theta, spec)[0], np.diag(theta * theta))
        np.testing.assert_array_equal(
            _cov_map(theta[:1], ModelSpec(fig2, "per-node", "common", "scalar"))[0],
            theta[0] * theta[0] * np.eye(fig2.N))

    def test_unstructured_reads_correlations_and_sds(self, fig2):
        # b_ij = 0 off the diagonal is independence; the sds set the scale
        spec = ModelSpec(fig2, *CASE_STUDY_SPEC)
        sd, low, size = spec.cov_layout
        assert size == 10 and sorted([*sd, *low[np.tril_indices(4, -1)]]) == list(range(10))
        theta = np.zeros(size)
        theta[sd] = [0.5, 1.0, 2.0, 3.0]
        np.testing.assert_allclose(_cov_map(theta, spec)[0], np.diag([0.25, 1.0, 4.0, 9.0]))
        theta[low[1, 0]] = 1.0  # row 1 of L is (1, 1) / sqrt(2): correlation 1/sqrt(2)
        sigma = _cov_map(theta, spec)[0]
        assert sigma[1, 0] == pytest.approx(0.5 / np.sqrt(2.0), rel=1e-15)  # sds 0.5, 1


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


class TestTrustStep:
    def test_newton_step_inside_the_radius(self):
        h = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        g = np.array([0.3, -0.2, 0.1])
        np.testing.assert_array_equal(_trust_step(h, g, 1.0), -np.linalg.solve(h, g))

    @pytest.mark.parametrize("radius", [1e-3, 0.1, 0.5])
    def test_long_newton_step_stops_at_the_radius(self, radius):
        h = np.array([[2.0, 0.5], [0.5, 0.1]])  # positive definite, nearly singular
        g = np.array([1.0, -1.0])
        assert np.linalg.norm(np.linalg.solve(h, g)) > radius
        p = _trust_step(h, g, radius)
        assert np.linalg.norm(p) == pytest.approx(radius, rel=1e-3)
        assert g @ p + 0.5 * p @ h @ p < 0

    @pytest.mark.parametrize("h, g", [
        ([[1.0, 2.0], [2.0, 1.0]], [0.5, 0.1]),
        ([[-1.0, 0.0], [0.0, 2.0]], [0.2, 1.0]),
        ([[-1.0, 0.0], [0.0, 2.0]], [0.0, 1.0]),  # the hard case: g has no part along -1's vector
        ([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 3.0]], [0.0, 0.0, -2.0]),
    ], ids=["indefinite", "negative-curvature", "hard-case", "hard-case-double"])
    @pytest.mark.parametrize("radius", [0.05, 1.0, 10.0])
    def test_indefinite_model_decreases_within_the_radius(self, h, g, radius):
        h, g = np.array(h), np.array(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = _trust_step(h, g, radius)
        assert np.isfinite(p).all()
        assert np.linalg.norm(p) <= radius * (1 + 1e-12)
        assert g @ p + 0.5 * p @ h @ p < 0


def _simulate(I, J, tree, alpha0=-1.75, sigma_alpha=0.25, seed=7):
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal(I)
    alpha = alpha0 + sigma_alpha * rng.standard_normal(J)
    probs = category_probability_table(
        tree,
        np.repeat(eta[:, None, None], tree.N, axis=-1),
        np.repeat(alpha[None, :, None], tree.N, axis=-1),
    )
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    y = (cdf < rng.random((I, J))[..., None]).sum(axis=-1) + 1
    return RatingMatrix(y, tree.M), alpha


@pytest.fixture(scope="module")
def fitted():
    tree = preset_tree("fig1-5cat")
    data, alpha_true = _simulate(120, 6, tree)
    spec = ModelSpec(tree)
    return fit(data, spec), data, alpha_true, spec


class TestFit:
    def test_converges(self, fitted):
        res, _, _, _ = fitted
        assert res.converged
        assert res.iterations >= 1

    def test_improves_on_start(self, fitted, fig1):
        res, data, _, spec = fitted
        from fuzzyirtree.estimation import _start_values

        pseudo = PseudoData.from_ratings(data, fig1)
        x0 = _start_values(pseudo, spec)
        start_ll = laplace_marginal_loglik(x0[: data.J], np.eye(1), pseudo)[0]
        assert res.log_marginal_lik >= start_ll

    def test_rough_recovery(self, fitted):
        res, _, alpha_true, _ = fitted
        assert np.mean(np.abs(res.alpha_hat[:, 0] - alpha_true)) < 0.5
        assert 0.4 < res.sigma_hat[0, 0] < 2.5

    def test_se_shape_and_sign(self, fitted):
        res, _, _, _ = fitted
        assert res.se_alpha.shape == res.alpha_hat.shape
        assert (res.se_alpha > 0).all()

    def test_deterministic(self, fig1):
        data, _ = _simulate(40, 4, fig1, seed=11)
        spec = ModelSpec(fig1)
        a = fit(data, spec, FitOptions(compute_se=False))
        b = fit(data, spec, FitOptions(compute_se=False))
        assert fit_to_json(a) == fit_to_json(b)
        np.testing.assert_array_equal(a.x, b.x)

    @pytest.mark.parametrize("design", [("common", "common", "scalar"),
                                        ("per-node", "per-node", "diagonal")], ids="/".join)
    def test_deterministic_with_standard_errors(self, design, fig1):
        data, _ = _simulate(40, 4, fig1, seed=11)
        spec = ModelSpec(fig1, *design)
        a, b = fit(data, spec), fit(data, spec)
        # per-node items hold one easiness at -ALPHA_BOUND, which has no SE
        held = np.abs(a.alpha_hat) == estimation.ALPHA_BOUND
        assert a.se_alpha is not None and np.isfinite(a.se_alpha[~held]).all()
        assert np.isnan(a.se_alpha[held]).all()
        assert fit_to_json(a) == fit_to_json(b)

    def test_rater_permutation_equivariance(self, fig1):
        data, _ = _simulate(40, 4, fig1, seed=13)
        perm = np.random.default_rng(5).permutation(40)
        spec = ModelSpec(fig1)
        a = fit(data, spec, FitOptions(compute_se=False))
        b = fit(RatingMatrix(data.values[perm], 5), spec, FitOptions(compute_se=False))
        # reordering changes floating-point summation order, which nudges the
        # Newton path; the optima agree to the fit's tolerance
        np.testing.assert_allclose(b.alpha_hat, a.alpha_hat, atol=1e-4)
        np.testing.assert_allclose(b.eta_hat, a.eta_hat[perm], atol=1e-4)

    def test_separation_notes_without_warning(self, fig1):
        y = np.full((12, 3), 3, dtype=int)  # everyone stops at the root
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(RatingMatrix(y, 5), ModelSpec(fig1), FitOptions(compute_se=False))
        assert any("separation" in w for w in res.warnings)

    def test_nan_standard_errors_are_noted_not_warned(self, fig1, monkeypatch):
        def nan_se(x, g, lap, pseudo, spec):
            return np.full((pseudo.J, spec.item_cols), np.nan)

        monkeypatch.setattr(estimation, "_information_se", nan_se)
        data, _ = _simulate(25, 3, fig1, seed=41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(data, ModelSpec(fig1))
        note = "observed information is not invertible; SEs set to NaN"
        assert res.converged and np.isnan(res.se_alpha).all()
        assert note in res.warnings
        assert note in json.loads(fit_to_json(res))["warnings"]

    def test_diagnostics(self, fitted):
        res, _, _, _ = fitted
        diag = res.diagnostics
        assert diag["objective_evaluations"] >= res.iterations + 1
        assert 0.0 <= diag["projected_gradient_max"] < FitOptions().tol
        assert isinstance(diag["message"], str) and diag["message"]
        assert diag["stop"] == "gradient"
        for key in ("pseudo_data_s", "optimize_s", "se_s"):
            assert isinstance(diag[key], float) and diag[key] >= 0.0

    @staticmethod
    def _recorded_laplace(monkeypatch, fail_at=()):
        """Wrap `_laplace`, which the fit's objective calls once per point. The
        wrapper records each call as (alpha, sigma, its `_Laplace` record), and
        at the call numbers in `fail_at` records (alpha, sigma, None) and
        raises the inner Newton's EstimationError instead."""
        laplace, calls = estimation._laplace, []

        def wrapper(alpha, sigma, pseudo, eta0=None):
            if len(calls) in fail_at:
                calls.append((alpha.copy(), sigma.copy(), None))
                raise EstimationError("inner Newton failed to converge for rater 0")
            calls.append((alpha.copy(), sigma.copy(), laplace(alpha, sigma, pseudo, eta0)))
            return calls[-1][2]

        monkeypatch.setattr(estimation, "_laplace", wrapper)
        return calls

    @pytest.mark.parametrize("compute_se", [False, True], ids=["no-se", "se"])
    def test_answer_is_the_last_accepted_evaluation(self, compute_se, fig1, monkeypatch):
        # a converged fit stops on the evaluation it accepted last and reads
        # its log-likelihood, modes and SEs off it, valuing no point again
        # and expanding the ratings once
        calls = self._recorded_laplace(monkeypatch)
        from_ratings, expansions = PseudoData.from_ratings.__func__, []

        def counted(cls, data, tree):
            expansions.append(data)
            return from_ratings(cls, data, tree)

        monkeypatch.setattr(PseudoData, "from_ratings", classmethod(counted))
        res = fit(self._seed_2024_data(fig1), ModelSpec(fig1), FitOptions(compute_se=compute_se))
        assert res.diagnostics["stop"] == "gradient"
        assert (res.se_alpha is not None) == compute_se
        assert res.diagnostics["objective_evaluations"] == len(calls)
        assert len(expansions) == 1
        assert len(calls) >= res.iterations + 1
        alpha, sigma, lap = calls[-1]
        np.testing.assert_array_equal(alpha, res.alpha_hat)
        np.testing.assert_array_equal(sigma, res.sigma_hat)
        assert res.log_marginal_lik == lap.value
        np.testing.assert_array_equal(res.eta_hat, np.repeat(lap.eta, fig1.N, axis=1))
        assert not any(np.array_equal(a, alpha) for a, _, _ in calls[:-1])

    @staticmethod
    def _sigma_units(alpha, sigma):
        """A common-design point as the loop's coordinates: the easiness and sigma."""
        return np.append(alpha, np.sqrt(sigma[0, 0]))

    def test_a_trial_where_the_inner_newton_fails_is_rejected(self, fig1, monkeypatch):
        # the first trial point raises; the fit cuts its trust radius to a
        # quarter of that step and goes on to the same optimum
        data, spec = self._seed_2024_data(fig1), ModelSpec(fig1)
        want = fit(data, spec, FitOptions(compute_se=False))
        calls = self._recorded_laplace(monkeypatch, fail_at={1})
        res = fit(data, spec, FitOptions(compute_se=False))
        assert calls[1][2] is None and calls[2][2] is not None
        start, failed, retried = (self._sigma_units(a, s) for a, s, _ in calls[:3])
        shrunk = 0.25 * np.linalg.norm(failed - start)
        assert np.linalg.norm(retried - start) <= shrunk * (1 + 1e-12)
        assert res.diagnostics["stop"] == "gradient"
        assert res.diagnostics["objective_evaluations"] == len(calls)
        assert res.log_marginal_lik == pytest.approx(want.log_marginal_lik, rel=0, abs=1e-8)
        np.testing.assert_allclose(res.alpha_hat, want.alpha_hat, rtol=0, atol=1e-5)

    def test_no_acceptable_trial_point_ends_the_fit(self, fig1, monkeypatch):
        # every trial point raises: each is at most a quarter as long as the
        # one before, until the step rounds to the start values, where the
        # fit stays and says why
        calls = self._recorded_laplace(monkeypatch, fail_at=range(1, 1000))
        res = fit(self._seed_2024_data(fig1), ModelSpec(fig1))
        assert not res.converged and res.iterations == 0 and res.se_alpha is None
        assert len(calls) == res.diagnostics["objective_evaluations"]
        assert res.diagnostics["message"] == "the trust-region step rounds to the current point"
        assert "did not converge after 0 iterations" in res.warnings
        assert res.log_marginal_lik == calls[0][2].value
        np.testing.assert_array_equal(res.alpha_hat, calls[0][0])
        start = self._sigma_units(*calls[0][:2])
        lengths = [np.linalg.norm(self._sigma_units(a, s) - start) for a, s, _ in calls[1:]]
        assert len(lengths) >= 2 and lengths[0] > 0
        # each length is the norm of a rounded step, an ulp or so off
        slack = 4 * np.finfo(float).eps
        assert all(b <= 0.25 * a + slack for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("from_bound", [False, True], ids=["start", "at-bound"])
    @pytest.mark.parametrize("cell, J, loglik, sd", [(3, 10, -783.7597, 0.1417),
                                                     (7, 20, -1577.5988, 0.0718)])
    def test_sd_leaves_its_bound_where_the_likelihood_rises(self, cell, J, loglik, sd,
                                                           from_bound, fig1, monkeypatch):
        # replication 1 of the README factorial's cell (I 50, J, pi 0.75) at
        # seed 1. At the bound sigma = e^-8, dL/dsigma is not small, while
        # dL/dlog(sigma) = sigma dL/dsigma is below tol whatever its sign: a
        # fit in log sigma stops there, 0.13 (J 10) and 0.04 (J 20) below the
        # interior maximum
        rng = _replication_rng(1, cell, 1)
        data = perturb(generate_true_data(50, J, fig1, -1.75, 0.25, rng).ratings,
                       FakingModel(0.75), rng)
        if from_bound:
            def at_bound(pseudo, spec):
                x = _start_values(pseudo, spec)
                x[-1] = _box(0, spec)[0][-1]
                return x

            monkeypatch.setattr(estimation, "_start_values", at_bound)
        res = fit(data, ModelSpec(fig1), FitOptions(compute_se=False))
        assert res.diagnostics["stop"] == "gradient"
        assert res.log_marginal_lik == pytest.approx(loglik, rel=0, abs=1e-4)
        assert np.sqrt(res.sigma_hat[0, 0]) == pytest.approx(sd, rel=1e-3)
        # the trust radius keeps the first sigma step from sigma = 1 off the
        # bound, and from the bound the sigma model's step grows with the
        # radius instead of by about a tenth of sigma per step
        assert res.iterations <= 8

    @staticmethod
    def _pernode_ratings(I, J, rng):
        """fig2-6cat ratings from a 4-D trait with variance 0.8 and
        correlation 0.5 and per-node easiness -0.5 + 0.5 N(0, 1)."""
        tree = preset_tree("fig2-6cat")
        cov = 0.8 * (0.5 * np.eye(tree.N) + 0.5)
        eta = rng.standard_normal((I, tree.N)) @ np.linalg.cholesky(cov).T
        alpha = -0.5 + 0.5 * rng.standard_normal((J, tree.N))
        probs = category_probability_table(tree, eta[:, None, :], alpha[None, :, :])
        cdf = np.cumsum(probs, axis=-1)
        cdf[..., -1] = 1.0
        return RatingMatrix((cdf < rng.random((I, J))[..., None]).sum(axis=-1) + 1, tree.M)

    @pytest.mark.parametrize("seed", range(7, 13))
    def test_unstructured_fits_converge(self, seed):
        # seeds 7 and 11 take 20 and 23 steps; every fit must end on the
        # gradient rule, with few evaluations spent on rejected trials
        data = self._pernode_ratings(150, 10, np.random.default_rng(seed))
        spec = ModelSpec(preset_tree("fig2-6cat"), *CASE_STUDY_SPEC)
        res = fit(data, spec, FitOptions(compute_se=False))
        assert res.diagnostics["stop"] == "gradient"
        assert res.diagnostics["projected_gradient_max"] < FitOptions().tol
        assert res.diagnostics["objective_evaluations"] <= 32

    def test_diagnostics_not_in_artifact(self, fitted):
        res, _, _, _ = fitted
        text = fit_to_json(res)
        doc = json.loads(text)
        assert "diagnostics" not in doc
        assert not set(res.diagnostics) & set(doc)
        assert fit_to_json(dataclasses.replace(res, diagnostics={})) == text
        other = {key: -1.0 for key in res.diagnostics}
        assert fit_to_json(dataclasses.replace(res, diagnostics=other)) == text

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # 0 and NaN could never be met, and inf would accept the start values
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            FitOptions(tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_iteration_limit_must_be_positive(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            FitOptions(max_iter=max_iter)

    @pytest.mark.parametrize("tol", [None, "1e-3", True, [1e-3]],
                             ids=["none", "str", "bool", "list"])
    def test_tolerance_must_be_a_real_number(self, tol):
        want = f"tol: expected a real number, got {tol!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            FitOptions(tol=tol)

    def test_iteration_limit_must_be_an_integer(self):
        with pytest.raises(ValueError, match="max_iter: expected an integer, got 2.5"):
            FitOptions(max_iter=2.5)
        with pytest.raises(ValueError, match="max_iter: expected an integer, got True"):
            FitOptions(max_iter=True)
        assert FitOptions(max_iter=np.int64(3)).max_iter == 3

    def test_per_node_design_runs(self, fig1):
        data, _ = _simulate(60, 4, fig1, seed=3)
        spec = ModelSpec(fig1, trait_design="per-node", item_design="common",
                         covariance="diagonal")
        res = fit(data, spec, FitOptions(compute_se=False))
        assert res.alpha_hat.shape == (4, 1)
        assert res.sigma_hat.shape == (4, 4)
        assert res.eta_hat.shape == (60, 4)

    def test_unstructured_fit_stalled_on_rounding_noise_converges(self, fig1):
        # Sigma has correlation 0.991 at the optimum, where a rater's inner
        # Newton can end its 100 steps with the line search rejecting every
        # step on f's rounding noise; half its Newton decrement, the gain the
        # step promises, is below the 1e-12 resolution, so its mode is accepted
        data, _ = _simulate(60, 4, fig1, seed=3)
        spec = ModelSpec(fig1, trait_design="per-node", item_design="common",
                         covariance="unstructured")
        res = fit(data, spec, FitOptions(compute_se=False))
        assert res.converged
        assert res.sigma_hat.shape == (4, 4)

    @staticmethod
    def _seed_2024_data(tree):
        return generate_true_data(50, 10, tree, -1.75, 0.25, np.random.default_rng(2024)).ratings

    def test_inner_newton_failure_is_an_estimation_error(self, fig1, monkeypatch):
        monkeypatch.setattr(estimation, "INNER_MAX_ITER", 0)
        with pytest.raises(EstimationError, match="inner Newton failed to converge for rater"):
            fit(self._seed_2024_data(fig1), ModelSpec(fig1))

    def test_iteration_limit_is_noted_and_skips_standard_errors(self, fig1):
        res = fit(self._seed_2024_data(fig1), ModelSpec(fig1), FitOptions(max_iter=1))
        assert res.converged is False
        assert "did not converge after 1 iterations" in res.warnings
        assert res.diagnostics["message"] == "stopped at the iteration limit of 1"
        assert res.se_alpha is None
        assert res.diagnostics["stop"] is None and res.diagnostics["se_s"] is None

    def test_common_trait_forces_scalar_cov(self, fig1):
        with pytest.raises(ValueError, match="scalar"):
            ModelSpec(fig1, trait_design="common", covariance="diagonal")

    @pytest.mark.parametrize("key, names", [
        ("trait_design", "('common', 'per-node')"),
        ("item_design", "('common', 'per-node')"),
        ("covariance", "('scalar', 'diagonal', 'unstructured')"),
    ])
    def test_unknown_design_name(self, key, names, fig1):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be one of {names}")):
            ModelSpec(fig1, **{key: "bogus"})


class TestPosteriorModes:
    def test_gradient_vanishes_at_modes(self, fig1):
        data, _ = _simulate(30, 4, fig1, seed=21)
        res = fit(data, ModelSpec(fig1), FitOptions(compute_se=False))
        modes = posterior_modes(res, data)
        np.testing.assert_allclose(modes, res.eta_hat, atol=1e-7)
        recs = _pseudo_records(data.values, fig1)
        for i in range(5):
            ri = [r for r in recs if r[0] == i]
            _, g, _ = joint_loglik(
                res.alpha_hat[:, 0], res.sigma_hat, [modes[i, 0]], ri
            )
            assert abs(g[0]) < 1e-7

    def test_all_maximum_rater_has_positive_mode(self, fig1):
        y = np.vstack([np.full((1, 6), 5), np.random.default_rng(0).integers(1, 6, (30, 6))])
        data = RatingMatrix(y, 5)
        res = fit(data, ModelSpec(fig1), FitOptions(compute_se=False))
        modes = posterior_modes(res, data)
        assert modes[0, 0] > 0

    def test_other_items_are_a_domain_error(self, fitted):
        # any raters, but the fit's own items: unchecked, 3 items of a 6-item
        # fit would be read with the first 3 items' easiness
        res, data, _, _ = fitted
        assert posterior_modes(res, RatingMatrix(data.values[:10], 5)).shape == (10, 4)
        with pytest.raises(ValueError, match=r"must be I x 6 as in the fit, got \(120, 3\)"):
            posterior_modes(res, RatingMatrix(data.values[:, :3], 5))

    def test_idempotent(self, fig1):
        data, _ = _simulate(30, 4, fig1, seed=23)
        res = fit(data, ModelSpec(fig1), FitOptions(compute_se=False))
        m1 = posterior_modes(res, data)
        m2 = posterior_modes(res, data)
        np.testing.assert_allclose(m1, m2, atol=1e-7)


class TestStandardErrors:
    def test_matches_value_hessian_common(self, fitted):
        res, data, _, _ = fitted
        np.testing.assert_allclose(res.se_alpha, value_hessian_se(res, data), rtol=1e-4)

    def test_matches_value_hessian_per_node(self, fig1):
        data, _ = _simulate(60, 4, fig1, seed=3)
        spec = ModelSpec(fig1, trait_design="per-node", item_design="common",
                         covariance="diagonal")
        res = fit(data, spec, FitOptions(compute_se=False))
        assert res.converged
        np.testing.assert_allclose(
            standard_errors(res, data), value_hessian_se(res, data), rtol=1e-4
        )

    @pytest.mark.parametrize("design", DESIGNS, ids="/".join)
    def test_fresh_and_loaded_paths_agree(self, design, fig1):
        # the fit reads its SEs off its last accepted evaluation; the public
        # call evaluates the optimum again from the fit's modes, to the bit
        data, _ = _simulate(40, 4, fig1, seed=11)
        res = fit(data, ModelSpec(fig1, *design))
        assert res.se_alpha is not None
        np.testing.assert_array_equal(standard_errors(res, data), res.se_alpha)

    def test_held_sd_is_left_out(self, fig1):
        # ratings with no trait: the fit holds sigma at its bound e^-8 with
        # dL/dsigma < 0, where x is not a stationary point. Over the free
        # block the SEs do not depend on the sd's coordinate; over the whole
        # information they moved by 6e-8 between sigma and log sigma
        rng = np.random.default_rng([2024, 1])
        alpha = -1.0 + 0.5 * rng.standard_normal((10, 1))
        probs = category_probability_table(fig1, np.zeros((150, 1, fig1.N)), alpha[None])
        cdf = np.cumsum(probs, axis=-1)
        cdf[..., -1] = 1.0
        data = RatingMatrix((cdf < rng.random((150, 10))[..., None]).sum(axis=-1) + 1, 5)
        spec = ModelSpec(fig1)
        res = fit(data, spec)
        pseudo = PseudoData.from_ratings(data, fig1)
        _, g, lap = _evaluate(res.x, pseudo, spec, res.eta_hat[:, :1])
        assert res.x[-1] == _box(10, spec)[0][-1] and g[-1] > 0
        hess = _observed_information(res.x, lap, pseudo, spec)[0]
        # the information in (alpha, log sigma): D H D + diag(g sigma) on the sd
        in_log = hess.copy()
        in_log[-1] *= res.x[-1]
        in_log[:, -1] *= res.x[-1]
        in_log[-1, -1] += g[-1] * res.x[-1]

        def se(h):
            return np.sqrt(np.diag(np.linalg.inv(h))[:10])

        assert np.max(np.abs(se(in_log) / se(hess) - 1)) > 1e-8
        for h in (hess, in_log):
            np.testing.assert_array_equal(res.se_alpha.ravel(), se(h[:10, :10]))
        np.testing.assert_array_equal(standard_errors(res, data), res.se_alpha)

    def test_held_easiness_has_no_se(self, fig1):
        data, _ = _simulate(40, 4, fig1, seed=11)
        res = fit(data, ModelSpec(fig1, "per-node", "per-node", "diagonal"))
        held = res.alpha_hat == -estimation.ALPHA_BOUND
        assert held.sum() == 1 and np.isnan(res.se_alpha[held]).all()
        assert np.isfinite(res.se_alpha[~held]).all()
        assert "SEs of easiness held at +-15 set to NaN" in res.warnings

    @pytest.mark.parametrize("curvature", [0.0, -1.0], ids=["singular", "negative"])
    def test_unusable_information_gives_nan(self, curvature, fitted, monkeypatch):
        # an information of curvature * I: zero is not invertible and -1
        # gives negative variances
        def information(x, lap, pseudo, spec):
            return curvature * np.eye(x.size), None

        res, data, _, _ = fitted
        monkeypatch.setattr(estimation, "_observed_information", information)
        se = standard_errors(res, data)
        assert se.shape == res.alpha_hat.shape
        assert np.isnan(se).all()

    @pytest.mark.parametrize("rows,cols", [(60, 6), (120, 4)], ids=["other-raters", "fewer-items"])
    def test_other_data_is_a_domain_error(self, rows, cols, fitted):
        res, data, _, _ = fitted
        other = RatingMatrix(data.values[:rows, :cols], 5)
        want = rf"ratings must be \(120, 6\) as in the fit, got \({rows}, {cols}\)"
        with pytest.raises(ValueError, match=want):
            standard_errors(res, other)

    def test_fit_without_packed_optimum_is_a_domain_error(self, fitted):
        res, data, _, _ = fitted
        with pytest.raises(ValueError, match="standard errors need the packed optimum of a fit"):
            standard_errors(dataclasses.replace(res, x=None), data)

    def test_doubling_sample_shrinks_se(self, fig1):
        data, _ = _simulate(60, 4, fig1, seed=31)
        spec = ModelSpec(fig1)
        small = fit(data, spec)
        big = fit(RatingMatrix(np.vstack([data.values, data.values]), 5), spec)
        ratio = big.se_alpha / small.se_alpha
        np.testing.assert_allclose(ratio, 1 / np.sqrt(2), rtol=0.10)


# every valid (trait, item, covariance) design
ALL_DESIGNS = (("common", "common", "scalar"), ("common", "per-node", "scalar"),
               *(("per-node", items, cov) for items in ("common", "per-node")
                 for cov in estimation.COVARIANCES))


@pytest.fixture(scope="module")
def information_fits():
    """Fits of each design to one 100 x 5 fig2-6cat stand-in data set."""
    tree = preset_tree("fig2-6cat")
    data = case_study_stand_in(seed=1, I=100)
    pseudo = PseudoData.from_ratings(data, tree)
    fits = {design: fit(data, ModelSpec(tree, *design), FitOptions(compute_se=False))
            for design in ALL_DESIGNS}
    return pseudo, fits


class TestObservedInformation:
    """The exact Hessian of -L against differences of its analytic gradient."""

    @staticmethod
    def _point(res, where):
        if where == "optimum":
            return res.x
        # off the optimum the gradient is not zero, so the second-order terms
        # of the covariance map and of the moving modes all count
        return perturbed(res.x, res.model, np.random.default_rng(3), 0.2)

    @pytest.mark.parametrize("where", ["optimum", "perturbed"])
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids="/".join)
    def test_matches_gradient_differences(self, design, where, information_fits):
        pseudo, fits = information_fits
        res = fits[design]
        assert res.converged
        x = self._point(res, where)
        eta0 = res.eta_hat[:, : res.model.re_dim]
        exact, _ = information_at(x, pseudo, res.model, eta0)
        oracle = gradient_difference_hessian(x, pseudo, res.model, eta0)
        assert np.abs(exact - oracle).max() <= 1e-6 * np.abs(oracle).max()
        if where == "perturbed":
            grad = _evaluate(x, pseudo, res.model)[1]
            assert np.abs(grad).max() > 1.0

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids="/".join)
    def test_mode_tangent_matches_differences(self, design, information_fits, monkeypatch):
        # differences at step 1e-5 need modes solved well past the fit's tolerance
        monkeypatch.setattr(estimation, "INNER_TOL", 1e-12)
        pseudo, fits = information_fits
        res = fits[design]
        x = self._point(res, "perturbed")
        spec, n_alpha = res.model, res.alpha_hat.size
        eta0 = res.eta_hat[:, : spec.re_dim]
        _, d_eta = information_at(x, pseudo, spec, eta0)

        def modes(v):
            alpha = v[:n_alpha].reshape(res.alpha_hat.shape)
            return estimation._solve_modes(alpha, _cov_map(v[n_alpha:], spec)[0], pseudo,
                                           eta0)[2]

        fd = np.empty_like(d_eta)
        for k in range(x.size):
            step = np.zeros(x.size)
            step[k] = 1e-5 * max(1.0, abs(x[k]))
            fd[..., k] = (modes(x + step) - modes(x - step)) / (2.0 * step[k])
        assert np.abs(d_eta - fd).max() <= 1e-6 * np.abs(fd).max()


class TestArtifact:
    def test_round_trip(self, fig1):
        data, _ = _simulate(25, 3, fig1, seed=41)
        res = fit(data, ModelSpec(fig1))
        text = fit_to_json(res)
        back = fit_from_json(text, fig1)
        assert isinstance(back.model, ModelSpec) and back.model.tree is fig1
        assert (back.model.trait_design, back.model.item_design, back.model.covariance) == (
            res.model.trait_design, res.model.item_design, res.model.covariance)
        np.testing.assert_allclose(back.x, res.x, atol=1e-12)
        np.testing.assert_allclose(back.alpha_hat, res.alpha_hat, atol=1e-12)
        np.testing.assert_allclose(back.sigma_hat, res.sigma_hat, atol=1e-12)
        np.testing.assert_allclose(back.eta_hat, res.eta_hat, atol=1e-12)
        np.testing.assert_allclose(back.se_alpha, res.se_alpha, atol=1e-12)
        assert back.tree_digest == res.tree_digest
        assert back.converged == res.converged

    def test_canonical_bytes(self, fig1):
        data, _ = _simulate(25, 3, fig1, seed=41)
        res = fit(data, ModelSpec(fig1))
        assert fit_to_json(res) == fit_to_json(res)
        doc = json.loads(fit_to_json(res))
        assert set(doc) >= {"alpha", "sigma_cholesky", "eta", "loglik", "tree_digest"}

    @pytest.mark.parametrize("design", DESIGNS, ids="/".join)
    def test_reload_rebuilds_packed_optimum(self, design, fig1, rng):
        # the artifact keeps alpha and the Cholesky factor of sigma; the
        # loader inverts the covariance parametrization to get x back
        spec = ModelSpec(fig1, *design)
        n_alpha = 3 * spec.item_cols
        x = rng.normal(scale=0.5, size=n_alpha + spec.cov_layout[2])
        sd = n_alpha + spec.cov_layout[0]
        x[sd] = np.exp(x[sd])  # sds inside the box
        res = FitResult(
            alpha_hat=x[:n_alpha].reshape(3, spec.item_cols),
            sigma_hat=_cov_map(x[n_alpha:], spec)[0], eta_hat=np.zeros((2, fig1.N)),
            log_marginal_lik=0.0, se_alpha=None, converged=True, iterations=0,
            model=spec, tree_digest=fig1.digest(), x=x,
        )
        back = fit_from_json(fit_to_json(res), fig1)
        np.testing.assert_allclose(back.x, res.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.sigma_hat, res.sigma_hat, rtol=0, atol=1e-12)

    @staticmethod
    def _doc(tree):
        data, _ = _simulate(25, 3, tree, seed=41)
        return json.loads(fit_to_json(fit(data, ModelSpec(tree), FitOptions(compute_se=False))))

    def test_wrong_tree(self, fig1, fig2):
        with pytest.raises(ValueError, match="tree digest mismatch"):
            fit_from_json(json.dumps(self._doc(fig1)), fig2)

    @pytest.mark.parametrize("key", ["trait_design", "item_design", "covariance", "M", "N"])
    def test_missing_model_field(self, key, fig1):
        doc = self._doc(fig1)
        del doc["model"][key]
        with pytest.raises(ValueError, match=f"model is missing field '{key}'"):
            fit_from_json(json.dumps(doc), fig1)

    WRONG_TYPES = [
        ("alpha_shape", "x"), ("alpha_shape", [4.0, 1]), ("iterations", None),
        ("loglik", None), ("warnings", 5), ("converged", "false"), ("alpha", {}),
        ("eta", {}), ("sigma_cholesky", {}), ("se", {}), ("model", 5), ("tree_digest", 5),
        ("iterations", True), ("alpha_shape", [True, 1]), ("loglik", True), ("loglik", "1.5"),
        ("loglik", 10**400),
    ]

    @pytest.mark.parametrize("key,value", WRONG_TYPES,
                             ids=[f"{k}-{json.dumps(v)}" for k, v in WRONG_TYPES])
    def test_wrong_json_type_names_the_field(self, key, value, fig1):
        doc = self._doc(fig1)
        doc[key] = value
        with pytest.raises(ValueError, match=f"fit artifact field '{key}' must be"):
            fit_from_json(json.dumps(doc), fig1)

    @pytest.mark.parametrize("key", ["alpha", "eta", "sigma_cholesky"])
    def test_null_entry_is_not_read_as_nan(self, key, fig1):
        doc = self._doc(fig1)
        row = doc[key][0] if key == "eta" else doc[key]
        row[0] = None
        with pytest.raises(ValueError, match="must be finite"):
            fit_from_json(json.dumps(doc), fig1)

    WRONG_LENGTHS = [
        ("sigma_cholesky", [1.0, 0.0, 1.0]), ("sigma_cholesky", []), ("alpha", [0.1, 0.2]),
        ("se", [0.1, 0.2]), ("alpha_shape", [-1, 1]), ("alpha_shape", [0, 1]),
    ]

    @pytest.mark.parametrize("key,value", WRONG_LENGTHS,
                             ids=[f"{k}-{json.dumps(v)}" for k, v in WRONG_LENGTHS])
    def test_wrong_length_names_the_field(self, key, value, fig1):
        doc = self._doc(fig1)
        doc[key] = value
        with pytest.raises(ValueError, match=f"fit artifact: {key} must"):
            fit_from_json(json.dumps(doc), fig1)

    def test_alpha_shape_must_fit_item_design(self, fig1):
        doc = self._doc(fig1)
        doc["model"]["item_design"] = "per-node"
        with pytest.raises(ValueError, match="alpha_shape"):
            fit_from_json(json.dumps(doc), fig1)


ROUND_TRIP_DESIGNS = (("common", "common", "scalar"), ("per-node", "per-node", "diagonal"))


class TestLoadedFit:
    """A fit read back from its artifact works with every API a fresh fit does."""

    @pytest.mark.parametrize("design", ROUND_TRIP_DESIGNS, ids="/".join)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), n_raters=st.integers(80, 120),
           n_items=st.integers(3, 5))
    def test_same_answers_as_the_fresh_fit(self, design, seed, n_raters, n_items):
        tree = preset_tree("fig1-5cat")
        data, _ = _simulate(n_raters, n_items, tree, seed=seed)
        res = fit(data, ModelSpec(tree, *design))
        # an SE that is NaN on both sides would compare equal and show nothing
        assume(res.se_alpha is not None and np.isfinite(res.se_alpha).all())
        back = fit_from_json(fit_to_json(res), tree)
        fresh, loaded = convert_all(res, data), convert_all(back, data)
        for name in ("c", "l", "r", "omega", "clamped", "y"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(fresh, name))
        np.testing.assert_allclose(posterior_modes(back, data), posterior_modes(res, data),
                                   rtol=0, atol=1e-7)
        np.testing.assert_allclose(standard_errors(back, data), res.se_alpha,
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids="/".join)
    def test_standard_error_bits_survive_the_artifact(self, design, fig2):
        data = case_study_stand_in(seed=1, I=100)
        res = fit(data, ModelSpec(fig2, *design))
        assert np.isfinite(res.se_alpha).all()
        text = fit_to_json(res)
        back = fit_from_json(text, fig2)
        np.testing.assert_array_equal(back.se_alpha, res.se_alpha)
        assert json.loads(fit_to_json(back))["se"] == json.loads(text)["se"]
        # the covariance parameters come back through the Cholesky factor of
        # Sigma, which can move their last bits; at the fit's own x, the
        # loaded modes give the fresh fit's SEs bit for bit
        at_fit_x = dataclasses.replace(back, x=res.x)
        np.testing.assert_array_equal(standard_errors(at_fit_x, data), res.se_alpha)

    @pytest.mark.parametrize("preset, design, seed", [
        ("fig1-5cat", ("per-node", "per-node", "diagonal"), [7, 2]),
        ("fig2-6cat", ("per-node", "common", "diagonal"), [7, 7]),
        ("fig1-5cat", ("common", "common", "scalar"), [7, 1]),
    ], ids=["fig1-pernode-pernode-diag", "fig2-pernode-diag", "fig1-common"])
    def test_scalar_and_diagonal_fits_keep_their_bits(self, preset, design, seed):
        # without correlations, the loader reads each sd back as the square
        # root of its square: x and the SEs come back to the bit
        tree = preset_tree(preset)
        data = generate_true_data(60, 6, tree, -1.0, 0.5, np.random.default_rng(seed)).ratings
        res = fit(data, ModelSpec(tree, *design))
        assert np.isfinite(res.se_alpha).all()
        back = fit_from_json(fit_to_json(res), tree)
        np.testing.assert_array_equal(back.x, res.x)
        np.testing.assert_array_equal(standard_errors(back, data), res.se_alpha)

    def test_unstructured_case_study_stand_in(self, fig2):
        data = case_study_stand_in(seed=0)
        res = fit(data, ModelSpec(fig2, *CASE_STUDY_SPEC))
        assert res.converged and np.isfinite(res.se_alpha).all()
        back = fit_from_json(fit_to_json(res), fig2)
        fresh, loaded = convert_all(res, data), convert_all(back, data)
        for name in ("c", "l", "r", "omega", "clamped", "y"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(fresh, name))
        np.testing.assert_allclose(posterior_modes(back, data), posterior_modes(res, data),
                                   rtol=0, atol=1e-7)
        np.testing.assert_allclose(standard_errors(back, data), res.se_alpha,
                                   rtol=1e-9, atol=0)
