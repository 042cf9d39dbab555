import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzyirtree.estimation import (
    SE_REL_STEP,
    EstimationError,
    FitOptions,
    FitResult,
    ModelSpec,
    PseudoData,
    RatingMatrix,
    _cov_bounds,
    _make_objective,
    _start_values,
    _unpack_cov,
    fit,
    fit_from_json,
    fit_to_json,
    laplace_marginal_loglik,
    posterior_modes,
    standard_errors,
)
from fuzzyirtree.fuzzy import convert_all
from fuzzyirtree.tree import preset_tree

DESIGNS = (
    ("common", "common", "scalar"),
    ("common", "per-node", "scalar"),
    ("per-node", "common", "diagonal"),
    ("per-node", "common", "unstructured"),
    ("per-node", "per-node", "diagonal"),
    ("per-node", "per-node", "unstructured"),
)

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
    """-L at a packed parameter vector, from the value-only kernel with the
    inner Newton started at zero."""
    n_alpha = J if spec.item_design == "common" else J * spec.tree.N
    alpha = x[:n_alpha]
    if spec.item_design == "per-node":
        alpha = alpha.reshape(J, spec.tree.N)
    return -laplace_marginal_loglik(
        alpha, _unpack_cov(x[n_alpha:], spec), pseudo, trait_design=spec.trait_design
    )


def value_hessian_se(fitres, data):
    """Easiness SEs from the O(n^2) central-difference Hessian of the Laplace
    value itself (2n^2 + 1 evaluations), at the package's relative step."""
    spec = fitres.model
    pseudo = PseudoData.from_ratings(data, spec.tree)
    x = fitres.x
    n = x.size
    h = SE_REL_STEP * np.maximum(1.0, np.abs(x))

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
        assert len(PseudoData.from_ratings(data, fig1)) == 12

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
        value, _, _, modes = laplace_marginal_loglik(
            alpha, sigma, pseudo, trait_design=trait_design, gradient=True
        )
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
        lap = laplace_marginal_loglik(np.zeros(1), np.array([[1.0]]), pseudo)
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
            lap = laplace_marginal_loglik(alpha, np.array([[var]]), pseudo)
            agh = agh_marginal_loglik(alpha, var, y, fig1)
            assert lap == pytest.approx(agh, abs=1e-3), f"instance {k}"

    def test_quadrature_gap_at_unit_variance(self, fig1, rng):
        for _ in range(5):
            y = rng.integers(1, 6, size=(3, 2))
            alpha = rng.normal(scale=0.5, size=2)
            pseudo = PseudoData.from_ratings(RatingMatrix(y, 5), fig1)
            lap = laplace_marginal_loglik(alpha, np.array([[1.0]]), pseudo)
            agh = agh_marginal_loglik(alpha, 1.0, y, fig1)
            assert lap == pytest.approx(agh, abs=5e-2)

    def test_near_degenerate_prior_limit(self, fig1):
        # as the prior collapses, the marginal tends to the fixed-effects
        # log-likelihood evaluated at a zero trait
        y = np.array([[1, 4], [3, 5]])
        alpha = np.array([0.3, -0.4])
        pseudo = PseudoData.from_ratings(RatingMatrix(y, 5), fig1)
        lap = laplace_marginal_loglik(alpha, np.array([[1e-8]]), pseudo)
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
        )
        two = laplace_marginal_loglik(
            alpha,
            np.array([[0.7]]),
            PseudoData.from_ratings(RatingMatrix(np.vstack([y, y]), 5), fig1),
        )
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
        x0 = _start_values(pseudo, spec)
        x = x0 + rng.normal(scale=0.3, size=x0.size)
        value, grad = _make_objective(pseudo, spec, J)(x)
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
        value, d_alpha, g_sigma, modes = laplace_marginal_loglik(
            alpha, sigma, pseudo, trait_design="per-node", gradient=True
        )
        assert value == laplace_marginal_loglik(alpha, sigma, pseudo, trait_design="per-node")
        assert d_alpha.shape == alpha.shape
        np.testing.assert_array_equal(g_sigma, g_sigma.T)
        assert modes.shape == (20, 4)
        # warm-starting the inner Newton at the modes gives the same value
        again = laplace_marginal_loglik(alpha, sigma, pseudo, trait_design="per-node",
                                        eta0=modes)
        assert again == pytest.approx(value, rel=1e-12)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _simulate(I, J, tree, alpha0=-1.75, sigma_alpha=0.25, seed=7):
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal(I)
    alpha = alpha0 + sigma_alpha * rng.standard_normal(J)
    from fuzzyirtree.tree import category_probability_table

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
        start_ll = laplace_marginal_loglik(
            x0[: data.J], np.eye(1), pseudo, trait_design="common"
        )
        assert res.log_marginal_lik >= start_ll

    def test_rough_recovery(self, fitted):
        res, _, alpha_true, _ = fitted
        assert np.mean(np.abs(res.alpha_hat[:, 0] - alpha_true)) < 0.5
        assert 0.4 < res.sigma_hat[0, 0] < 2.5

    def test_se_shape_and_sign(self, fitted):
        res, _, _, _ = fitted
        assert res.se_alpha.shape == res.alpha_hat.shape
        assert (res.se_alpha > 0).all()

    def test_refit_from_optimum_is_fixed_point(self, fitted):
        res, data, _, spec = fitted
        again = fit(data, spec, FitOptions(start=res.x, compute_se=False))
        assert again.iterations <= 3
        np.testing.assert_allclose(again.alpha_hat, res.alpha_hat, atol=1e-6)
        np.testing.assert_allclose(again.sigma_hat, res.sigma_hat, atol=1e-6)

    def test_deterministic(self, fig1):
        data, _ = _simulate(40, 4, fig1, seed=11)
        spec = ModelSpec(fig1)
        a = fit(data, spec, FitOptions(compute_se=False))
        b = fit(data, spec, FitOptions(compute_se=False))
        assert fit_to_json(a) == fit_to_json(b)
        np.testing.assert_array_equal(a.x, b.x)

    def test_rater_permutation_equivariance(self, fig1):
        data, _ = _simulate(40, 4, fig1, seed=13)
        perm = np.random.default_rng(5).permutation(40)
        spec = ModelSpec(fig1)
        a = fit(data, spec, FitOptions(compute_se=False))
        b = fit(RatingMatrix(data.values[perm], 5), spec, FitOptions(compute_se=False))
        # reordering changes floating-point summation order, which nudges the
        # quasi-Newton path; the optima agree to optimizer tolerance
        np.testing.assert_allclose(b.alpha_hat, a.alpha_hat, atol=1e-4)
        np.testing.assert_allclose(b.eta_hat, a.eta_hat[perm], atol=1e-4)

    def test_separation_warning(self, fig1):
        y = np.full((12, 3), 3, dtype=int)  # everyone stops at the root
        with pytest.warns(UserWarning, match="separation"):
            res = fit(RatingMatrix(y, 5), ModelSpec(fig1), FitOptions(compute_se=False))
        assert any("separation" in w for w in res.warnings)

    def test_separation_notes_without_warning(self, fig1):
        import warnings

        y = np.full((12, 3), 3, dtype=int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(RatingMatrix(y, 5), ModelSpec(fig1), FitOptions(compute_se=False),
                      warn=False)
        assert any("separation" in w for w in res.warnings)

    def test_diagnostics(self, fitted):
        res, _, _, _ = fitted
        diag = res.diagnostics
        assert diag["objective_evaluations"] >= res.iterations + 1
        assert 0.0 <= diag["projected_gradient_max"] < FitOptions().tol
        assert isinstance(diag["message"], str) and diag["message"]

    def test_diagnostics_not_in_artifact(self, fitted):
        import dataclasses

        res, _, _, _ = fitted
        text = fit_to_json(res)
        assert "diagnostics" not in json.loads(text)
        assert fit_to_json(dataclasses.replace(res, diagnostics={})) == text

    def test_bad_start_length(self, fig1):
        data, _ = _simulate(10, 3, fig1)
        with pytest.raises(ValueError, match="start vector"):
            fit(data, ModelSpec(fig1), FitOptions(start=np.zeros(2)))

    def test_per_node_design_runs(self, fig1):
        data, _ = _simulate(60, 4, fig1, seed=3)
        spec = ModelSpec(fig1, trait_design="per-node", item_design="common",
                         covariance="diagonal")
        res = fit(data, spec, FitOptions(compute_se=False))
        assert res.alpha_hat.shape == (4, 1)
        assert res.sigma_hat.shape == (4, 4)
        assert res.eta_hat.shape == (60, 4)

    def test_common_trait_forces_scalar_cov(self, fig1):
        with pytest.raises(ValueError, match="scalar"):
            ModelSpec(fig1, trait_design="common", covariance="diagonal")


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

    def test_doubling_sample_shrinks_se(self, fig1):
        data, _ = _simulate(60, 4, fig1, seed=31)
        spec = ModelSpec(fig1)
        small = fit(data, spec)
        big = fit(RatingMatrix(np.vstack([data.values, data.values]), 5), spec)
        ratio = big.se_alpha / small.se_alpha
        np.testing.assert_allclose(ratio, 1 / np.sqrt(2), rtol=0.10)


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
        x = rng.normal(scale=0.5, size=n_alpha + len(_cov_bounds(spec)))
        res = FitResult(
            alpha_hat=x[:n_alpha].reshape(3, spec.item_cols),
            sigma_hat=_unpack_cov(x[n_alpha:], spec), eta_hat=np.zeros((2, fig1.N)),
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
        res = fit(data, ModelSpec(tree, *design), warn=False)
        # an SE that is NaN on both sides would compare equal and show nothing
        assume(res.se_alpha is not None and np.isfinite(res.se_alpha).all())
        back = fit_from_json(fit_to_json(res), tree)
        fresh, loaded = convert_all(res, tree, data), convert_all(back, tree, data)
        for name in ("c", "l", "r", "omega", "clamped", "y"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(fresh, name))
        np.testing.assert_allclose(posterior_modes(back, data), posterior_modes(res, data),
                                   rtol=0, atol=1e-7)
        np.testing.assert_allclose(standard_errors(back, data), res.se_alpha,
                                   rtol=1e-9, atol=0)
