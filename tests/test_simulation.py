import concurrent.futures
import dataclasses
import itertools
import re
import types
import warnings

import numpy as np
import pytest

from fuzzyirtree import simulation
from fuzzyirtree.simulation import (
    FakingModel,
    SimDesign,
    generate_true_data,
    pa_index,
    pa_values,
    perturb,
    replacement_distribution,
    run_study,
)
from fuzzyirtree.estimation import EstimationError, RatingMatrix
from scipy import special


def centred_pa_values(est, truth) -> np.ndarray:
    """Per-replication agreement about the truth's own mean:
    1 - ||est - truth||^2 / ||truth - mean(truth)||^2.

    Unlike the package's uncentered index this does not move when the
    rating scale is relabelled (1..M to 0..M-1), so mode, spread and omega
    recovery can be compared with one another on it."""
    return np.array([
        1.0 - np.sum((e - t) ** 2) / np.sum((t - t.mean()) ** 2)
        for e, t in zip(est, truth)
    ])


class TestFakingModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="pi"):
            FakingModel(pi=1.5)
        with pytest.raises(ValueError, match="positive"):
            FakingModel(pi=0.5, gamma=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                FakingModel(pi=0.5, delta=bad)
        with pytest.raises(ValueError, match="direction"):
            FakingModel(pi=0.5, direction="sideways")


class TestReplacementDistribution:
    def test_top_category_stays_put(self):
        d = replacement_distribution(5, 5, FakingModel(pi=0.9))
        np.testing.assert_allclose(d, [0, 0, 0, 0, 1.0], atol=1e-15)

    def test_zero_probability_stays_put(self):
        d = replacement_distribution(2, 5, FakingModel(pi=0.0))
        np.testing.assert_allclose(d, [0, 1.0, 0, 0, 0], atol=1e-15)

    def test_uniform_shape_hand_value(self):
        # a flat replacement shape splits pi evenly over the upper room
        d = replacement_distribution(3, 5, FakingModel(pi=0.5, gamma=1, delta=1))
        np.testing.assert_allclose(d, [0, 0, 0.5, 0.25, 0.25], atol=1e-12)

    def test_default_shape_prefers_nearby_categories(self):
        d = replacement_distribution(1, 5, FakingModel(pi=1.0))
        assert d[0] == 0.0
        assert d[1] > d[2] > d[3] > d[4] > 0

    def test_faking_bad_mirror(self):
        up = replacement_distribution(2, 5, FakingModel(pi=0.4, gamma=1.3, delta=2.1))
        down = replacement_distribution(
            4, 5, FakingModel(pi=0.4, gamma=1.3, delta=2.1, direction="faking-bad")
        )
        np.testing.assert_allclose(down, up[::-1], atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="1..5"):
            replacement_distribution(6, 5, FakingModel(pi=0.1))

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("gamma,delta", [(1, 1), (1, 2), (2, 1), (0.5, 0.5)])
    def test_sums_to_one_and_respects_support(self, h, gamma, delta):
        d = replacement_distribution(h, 5, FakingModel(pi=0.7, gamma=gamma, delta=delta))
        assert d.sum() == pytest.approx(1.0, abs=1e-12)
        assert (d[: h - 1] == 0).all()


class TestBetainc:
    """The package's incomplete beta against scipy's, a test-only oracle, on
    the 13 bin edges of a 12-category room."""

    EDGES = np.linspace(0.0, 1.0, 13)

    def _betainc(self, a, b):
        got = [simulation._betainc(a, b, x) for x in self.EDGES.tolist()]
        assert got[0] == 0.0 and got[-1] == 1.0
        return got

    def test_moderate_shapes(self):
        for a, b in itertools.product(np.logspace(-3, 3, 31).tolist(), repeat=2):
            want = special.betainc(a, b, self.EDGES)
            np.testing.assert_allclose(self._betainc(a, b), want, rtol=0, atol=1e-12)

    def test_large_shapes_agree_or_refuse(self):
        # Stirling's series keeps the prefactor's log from cancelling up to 1e9;
        # a fraction that does not converge gives NaN, which the faking model
        # refuses with a ValueError
        rng = np.random.default_rng(8)
        shapes = [(1e9, 1e9), (5e8, 1e9), (1e9, 1e-3), (1e7, 2e7), (3e5, 1e5)]
        shapes += [tuple(v) for v in 10 ** rng.uniform(-3, 9, (60, 2))]
        for a, b in shapes:
            got = self._betainc(a, b)
            if np.isnan(got).any():
                with pytest.raises(ValueError, match="cannot bin"):
                    replacement_distribution(1, 13, FakingModel(pi=0.5, gamma=a, delta=b))
            else:
                want = special.betainc(a, b, self.EDGES)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("gamma,delta", [(4e10, 4e10), (1e-310, 2.0)],
                             ids=["too-narrow", "subnormal"])
    def test_shapes_it_cannot_bin_are_a_value_error(self, gamma, delta):
        with pytest.raises(ValueError, match="cannot bin"):
            replacement_distribution(1, 5, FakingModel(pi=0.5, gamma=gamma, delta=delta))


class TestPerturb:
    def test_identity_at_zero(self, rng):
        y = RatingMatrix(rng.integers(1, 6, (20, 5)), 5)
        out = perturb(y, FakingModel(pi=0.0), rng)
        np.testing.assert_array_equal(out.values, y.values)

    def test_full_replacement_uniform(self):
        rng = np.random.default_rng(99)
        y = RatingMatrix(np.ones((100_000, 1), dtype=int), 5)
        out = perturb(y, FakingModel(pi=1.0, gamma=1, delta=1), rng)
        assert out.values.min() >= 2
        freqs = np.bincount(out.values.ravel(), minlength=6)[2:] / 100_000
        np.testing.assert_allclose(freqs, 0.25, atol=0.02)

    def test_never_decreases_upward(self, rng):
        y = RatingMatrix(rng.integers(1, 6, (50, 8)), 5)
        out = perturb(y, FakingModel(pi=0.8), rng)
        assert (out.values >= y.values).all()

    def test_never_increases_downward(self, rng):
        y = RatingMatrix(rng.integers(1, 6, (50, 8)), 5)
        out = perturb(y, FakingModel(pi=0.8, direction="faking-bad"), rng)
        assert (out.values <= y.values).all()


class TestGenerateTrueData:
    def test_shapes(self, fig1):
        rng = np.random.default_rng(1)
        gen = generate_true_data(12, 5, fig1, -1.75, 0.25, rng)
        assert gen.ratings.values.shape == (12, 5)
        assert gen.eta.shape == (12, 4)
        assert gen.alpha.shape == (5, 4)
        assert gen.true_fuzzy.shape == (12, 5)

    def test_zero_item_spread(self, fig1):
        rng = np.random.default_rng(2)
        gen = generate_true_data(5, 4, fig1, -1.0, 0.0, rng)
        np.testing.assert_allclose(gen.alpha, -1.0, atol=1e-15)

    def test_common_design_repeats_scalars(self, fig1):
        rng = np.random.default_rng(3)
        gen = generate_true_data(6, 3, fig1, -1.75, 0.25, rng)
        assert (gen.eta == gen.eta[:, :1]).all()
        assert (gen.alpha == gen.alpha[:, :1]).all()

    def test_frequencies_match_mixture(self, fig1):
        # marginal category distribution under a standard-normal trait,
        # computed by Gauss-Hermite integration as the oracle
        rng = np.random.default_rng(4)
        alpha0 = -1.75
        gen = generate_true_data(10_000, 1, fig1, alpha0, 0.0, rng)
        x, w = np.polynomial.hermite.hermgauss(61)
        etas = np.sqrt(2.0) * x
        from fuzzyirtree.tree import category_probabilities

        mix = sum(
            wk / np.sqrt(np.pi) * category_probabilities(fig1, [e] * 4, [alpha0] * 4)
            for e, wk in zip(etas, w)
        )
        freqs = np.bincount(gen.ratings.values.ravel(), minlength=6)[1:] / 10_000
        np.testing.assert_allclose(freqs, mix, atol=0.02)

    def test_bad_dimensions(self, fig1):
        with pytest.raises(ValueError, match="positive"):
            generate_true_data(0, 3, fig1, -1.75, 0.25, np.random.default_rng(0))


class TestPaIndex:
    def test_perfect_recovery(self, rng):
        mats = [rng.random((3, 4)) for _ in range(5)]
        assert pa_index(mats, mats) == 1.0

    def test_doubled_estimate(self, rng):
        truth = [rng.random((3, 4)) for _ in range(5)]
        est = [2 * t for t in truth]
        assert pa_index(est, truth) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self, rng):
        truth = [rng.random((3, 4)) for _ in range(6)]
        est = [t + rng.normal(scale=0.1, size=t.shape) for t in truth]
        a = pa_index(est, truth)
        order = [3, 1, 5, 0, 2, 4]
        b = pa_index([est[k] for k in order], [truth[k] for k in order])
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_norm_truth(self):
        with pytest.raises(ValueError, match="zero-norm"):
            pa_values([np.ones((2, 2))], [np.zeros((2, 2))])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            pa_values([np.ones((2, 2))], [np.ones((2, 3))])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pa_values([np.ones((2, 2))], [np.ones((2, 2))] * 2)

    def test_no_replication(self):
        # the mean of no agreement values would be a warning and a nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one replication"):
                pa_values([], [])
            with pytest.raises(ValueError, match="at least one replication"):
                pa_index([], [])

    def test_scale_origin(self, rng):
        # relabelling the categories 1..M as 0..M-1 shifts every mode by one:
        # the uncentered index moves with the origin, the centred one does not
        truth = [1.0 + 4.0 * rng.random((6, 5)) for _ in range(4)]
        est = [t + rng.normal(scale=0.5, size=t.shape) for t in truth]
        shifted_est = [e - 1.0 for e in est]
        shifted_truth = [t - 1.0 for t in truth]
        assert abs(pa_index(shifted_est, shifted_truth) - pa_index(est, truth)) > 0.01
        np.testing.assert_allclose(
            centred_pa_values(shifted_est, shifted_truth),
            centred_pa_values(est, truth), rtol=0, atol=1e-12,
        )


class TestSimDesign:
    def test_validation(self, fig1):
        with pytest.raises(ValueError, match="B must be >= 1"):
            SimDesign((10,), (4,), (0.0,), 0, fig1)
        with pytest.raises(ValueError, match="non-empty"):
            SimDesign((), (4,), (0.0,), 1, fig1)

    @pytest.mark.parametrize("bad,match", [
        ({"pi_levels": (0.0, float("nan"))}, "pi must lie"),
        ({"pi_levels": (0.0, 1.5)}, "pi must lie"),
        ({"gamma": 0.0}, "gamma and delta"),
        ({"gamma": float("nan")}, "gamma and delta must be positive and finite"),
        ({"delta": float("inf")}, "gamma and delta must be positive and finite"),
        ({"alpha0": float("nan")}, "alpha0 must be finite"),
        ({"alpha0": float("-inf")}, "alpha0 must be finite"),
        ({"sigma_alpha": float("nan")}, "sigma_alpha must be finite"),
        ({"sigma_alpha": float("inf")}, "sigma_alpha must be finite"),
        ({"direction": "sideways"}, "direction"),
    ], ids=["pi-nan", "pi-1.5", "gamma", "gamma-nan", "delta-inf", "alpha0-nan",
            "alpha0-inf", "sigma_alpha-nan", "sigma_alpha-inf", "direction"])
    def test_faking_parameters_checked_up_front(self, bad, match, fig1):
        # a level that only a replication would reject must not let the
        # study start; the pi = 0 cell never builds a FakingModel
        args = {"I_levels": (10,), "J_levels": (4,), "pi_levels": (0.0,), "B": 1,
                "tree": fig1, **bad}
        with pytest.raises(ValueError, match=match):
            SimDesign(**args)

    @pytest.mark.parametrize("field,value", [
        ("I_levels", (20.5,)), ("J_levels", (4, 5.0)), ("B", 2.0), ("seed", 1.5),
        ("I_levels", (True,)), ("B", True), ("seed", False),
    ], ids=["I", "J", "B", "seed", "I-bool", "B-bool", "seed-bool"])
    def test_counts_and_seed_must_be_integers(self, field, value, fig1):
        # a float seed would otherwise run the study of its integer part, and a
        # float count would fail only inside a replication; true and false are
        # not the counts 1 and 0
        args = {"I_levels": (10,), "J_levels": (4,), "pi_levels": (0.0,), "B": 1,
                "tree": fig1, field: value}
        with pytest.raises(ValueError, match=f"{field}: expected an integer"):
            SimDesign(**args)

    def test_numpy_integers_are_accepted(self, fig1):
        d = SimDesign((np.int64(10),), (np.int32(4),), (0.0,), np.int64(2), fig1,
                      seed=np.uint64(3))
        assert (d.I_levels, d.J_levels, d.B, d.seed) == ((10,), (4,), 2, 3)
        assert all(type(v) is int for v in (*d.I_levels, *d.J_levels, d.B, d.seed))

    def test_cells_product_order(self, fig1):
        d = SimDesign((10, 20), (4,), (0.0, 0.5), 1, fig1)
        assert d.cells() == [(10, 4, 0.0), (10, 4, 0.5), (20, 4, 0.0), (20, 4, 0.5)]


@pytest.fixture(scope="module")
def tiny_design():
    from fuzzyirtree.tree import preset_tree

    return SimDesign(
        I_levels=(25,), J_levels=(4,), pi_levels=(0.0, 0.5), B=3,
        tree=preset_tree("fig1-5cat"), seed=77,
    )


class TestRunCellAndStudy:
    def test_single_replication_has_zero_sd(self, tiny_design):
        for row in run_study(dataclasses.replace(tiny_design, B=1)).rows:
            assert row.pa_c_sd == 0.0
            assert row.k_sd == 0.0
            assert row.n_completed + row.n_failed == 1

    def test_thread_count_does_not_change_results(self, tiny_design):
        serial = run_study(tiny_design, threads=1).rows
        assert run_study(tiny_design, threads=3).rows == serial

    def test_csv_bytes_do_not_depend_on_worker_count(self, tiny_design):
        assert tiny_design.pi_levels[-1] > 0
        one, two, three = (run_study(tiny_design, threads=n).to_csv() for n in (1, 2, 3))
        assert one == two == three

    @pytest.mark.parametrize("threads", [0, -3])
    def test_worker_count_must_be_positive(self, tiny_design, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_study(tiny_design, threads=threads)

    @pytest.mark.parametrize("threads", [1.5, "2", None, True])
    def test_worker_count_must_be_an_integer(self, tiny_design, threads, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        want = f"threads: expected an integer, got {threads!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            run_study(tiny_design, threads=threads)

    def test_pool_size_is_capped_by_replications(self, fig1, monkeypatch):
        requested = []
        real = concurrent.futures.ProcessPoolExecutor

        def recorder(max_workers, **kwargs):
            requested.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorder)
        design = SimDesign((25,), (4,), (0.5,), 2, fig1, seed=3)
        row, = run_study(design, threads=64).rows
        assert row.n_completed + row.n_failed == 2
        assert all(n <= 2 for n in requested)
        run_study(design, threads=1)
        assert len(requested) <= 1  # one worker runs without a pool

    def test_failed_fits_in_workers_are_counted(self, tiny_design, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise EstimationError("forced failure")

        # forked workers inherit the patched module
        monkeypatch.setattr(simulation, "fit", broken_fit)
        rows = run_study(tiny_design, threads=2).rows
        assert [(r.n_completed, r.n_failed) for r in rows] == [(0, 3), (0, 3)]

    def test_unconverged_fits_are_counted(self, tiny_design, monkeypatch):
        def unconverged_fit(*args, **kwargs):
            return types.SimpleNamespace(converged=False)

        monkeypatch.setattr(simulation, "fit", unconverged_fit)
        rows = run_study(tiny_design, threads=1).rows
        assert [(r.n_completed, r.n_failed) for r in rows] == [(0, 3), (0, 3)]

    def test_study_rows_and_determinism(self, tiny_design):
        a = run_study(tiny_design)
        b = run_study(tiny_design, threads=2)
        assert len(a.rows) == 2
        assert [(r.I, r.J, r.pi) for r in a.rows] == [(25, 4, 0.0), (25, 4, 0.5)]
        assert a.to_csv() == b.to_csv()
        assert a.to_csv().startswith(
            "I,J,pi,pa_c,pa_c_sd,pa_spread,pa_spread_sd,"
            "pa_omega,pa_omega_sd,k,k_sd,n_completed,n_failed\n"
        )

    def test_threaded_study_leaves_warning_filters_alone(self, tiny_design):
        before = list(warnings.filters)
        run_study(tiny_design, threads=2)
        assert warnings.filters == before

    def test_faking_raises_fuzziness(self, tiny_design):
        res = run_study(tiny_design)
        assert res.rows[1].k > res.rows[0].k

    def test_full_design_shape(self, fig1):
        d = SimDesign((50, 150, 500), (10, 20), (0.0, 0.25, 0.5, 0.75), 1, fig1)
        assert len(d.cells()) == 24
