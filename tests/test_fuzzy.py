import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyirtree.estimation import FitOptions, ModelSpec, RatingMatrix, fit
from fuzzyirtree.fuzzy import (
    FuzzyRatingMatrix,
    MultiverseDistribution,
    Tfn4,
    convert,
    convert_all,
    convert_table,
    intensification,
    kaufmann_index,
    kaufmann_of,
    kaufmann_support,
    kaufmann_support_table,
    membership,
    multiverse_moments,
    williams_link,
)

BASELINE = MultiverseDistribution(np.array([0.125, 0.125, 0.5, 0.125, 0.125]))
UNIFORM5 = MultiverseDistribution(np.full(5, 0.2))


def dist5(seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(5))
    return MultiverseDistribution(p)


distributions = st.integers(min_value=0, max_value=10_000).map(dist5)


# ---------------------------------------------------------------------------
# independent oracles: one cell at a time, in plain scalar arithmetic
# ---------------------------------------------------------------------------


def oracle_membership(f, y):
    """Branch-by-branch membership of the points y in f; the mode is 1."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    with np.errstate(over="ignore", divide="ignore"):
        left = (y > f.l) & (y < f.c)
        out[left] = 1.0 / (1.0 + ((f.c - y[left]) / (y[left] - f.l)) ** f.omega)
        right = (y > f.c) & (y < f.r)
        out[right] = 1.0 / (1.0 + ((f.r - y[right]) / (y[right] - f.c)) ** (-f.omega))
    out[y == f.c] = 1.0
    return out


def oracle_convert(p):
    """Moments, Williams link and the map back to 1..M of one distribution:
    (c, l, r, omega, clamped)."""
    p = np.asarray(p, dtype=float)
    y = np.arange(1, p.size + 1, dtype=float)
    c = float(p @ y)
    s = max(float(p @ (y - c) ** 2), 0.0)
    scale = p.size - 1.0
    cn, sn = (c - 1.0) / scale, s / scale**2
    clamped = False
    if sn < 1e-9:
        ln = rn = cn
    else:
        mu = (1.0 + cn / sn) / (2.0 + 1.0 / sn)
        rad = 3.5 * sn - 3.0 * (cn - mu) ** 2
        if rad < 0.0:
            rad, clamped = 0.0, True
        h1 = np.sqrt(rad)
        h2 = 0.5 * (h1 + 3.0 * cn - 3.0 * mu)
        ln, rn = cn - h2, cn - h2 + h1
        if not 0.0 <= ln <= cn:
            ln, clamped = min(max(ln, 0.0), cn), True
        if not cn <= rn <= 1.0:
            rn, clamped = min(max(rn, cn), 1.0), True
    l, r = min(1.0 + scale * ln, c), max(1.0 + scale * rn, c)
    return c, l, r, float(np.sum(p**2)), clamped


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


class TestMembership:
    def test_linear_triangle_midpoint(self):
        assert membership(Tfn4(3, 2, 4, 1), 2.5) == pytest.approx(0.5, abs=1e-12)

    def test_midpoint_is_half_for_any_omega(self):
        # the distance ratio is 1 at the midpoint, so the value is 1/2
        # regardless of the exponent
        assert membership(Tfn4(3, 2, 4, 2), 2.5) == pytest.approx(0.5, abs=1e-12)

    def test_left_branch_hand_value(self):
        # ratio (c-y)/(y-l) = 4 at y=2.2; 1/(1+4^0.5) = 1/3
        assert membership(Tfn4(3, 2, 4, 0.5), 2.2) == pytest.approx(1 / 3, abs=1e-9)

    def test_mode_and_endpoints(self):
        f = Tfn4(3, 2, 4, 0.7)
        assert membership(f, 3.0) == 1.0
        assert membership(f, 2.0) == 0.0
        assert membership(f, 4.0) == 0.0
        assert membership(f, 1.0) == 0.0
        assert membership(f, 5.0) == 0.0

    def test_mode_that_is_an_endpoint(self):
        # an empty left (l = c) or right (c = r) branch leaves the mode at 1
        np.testing.assert_array_equal(
            membership(Tfn4(3, 3, 4, 1), np.array([2.9, 3.0, 3.5, 4.0])), [0, 1, 0.5, 0]
        )
        np.testing.assert_array_equal(
            membership(Tfn4(4, 3, 4, 1), np.array([3.0, 3.5, 4.0, 4.1])), [0, 0.5, 1, 0]
        )

    def test_degenerate(self):
        f = Tfn4(2, 2, 2, 1)
        assert membership(f, 2.0) == 1.0
        assert membership(f, 2.0001) == 0.0

    def test_array_input(self):
        f = Tfn4(3, 2, 4, 1)
        vals = membership(f, np.array([2.5, 3.0, 3.5]))
        np.testing.assert_allclose(vals, [0.5, 1.0, 0.5], atol=1e-12)

    @pytest.mark.parametrize("omega", [0.2, 0.5, 1.0, 2.0, 5.0])
    def test_half_membership_anchors(self, omega):
        f = Tfn4(3.2, 1.4, 4.9, omega)
        assert membership(f, (f.l + f.c) / 2) == pytest.approx(0.5, abs=1e-12)
        assert membership(f, (f.c + f.r) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_omega_one_equals_linear_triangle(self):
        f = Tfn4(2.7, 1.3, 4.6, 1.0)
        grid = np.linspace(1.0, 5.0, 1001)
        got = membership(f, grid)
        tri = np.zeros_like(grid)
        left = (grid > f.l) & (grid <= f.c)
        tri[left] = (grid[left] - f.l) / (f.c - f.l)
        right = (grid > f.c) & (grid < f.r)
        tri[right] = (f.r - grid[right]) / (f.r - f.c)
        np.testing.assert_allclose(got, tri, atol=1e-9)

    def test_intensification_ordering(self):
        # a smaller exponent fattens the tails and thins the shoulder
        f_lo, f_hi = Tfn4(3, 2, 4, 0.4), Tfn4(3, 2, 4, 0.9)
        tail = np.linspace(2.01, 2.49, 50)
        shoulder = np.linspace(2.51, 2.99, 50)
        assert (membership(f_lo, tail) >= membership(f_hi, tail)).all()
        assert (membership(f_lo, shoulder) <= membership(f_hi, shoulder)).all()

    @given(
        c=st.floats(1.5, 4.5), w=st.floats(0.1, 5.0),
        dl=st.floats(0.1, 1.4), dr=st.floats(0.1, 1.4),
    )
    @settings(max_examples=100)
    def test_bounds(self, c, w, dl, dr):
        f = Tfn4(c, c - dl, c + dr, w)
        vals = membership(f, np.linspace(0.0, 6.0, 301))
        assert (vals >= 0).all() and (vals <= 1).all()

    def test_invalid_tfn4(self):
        with pytest.raises(ValueError, match="l <= c <= r"):
            Tfn4(1.0, 2.0, 3.0, 1.0)
        with pytest.raises(ValueError, match="omega"):
            Tfn4(2.0, 1.0, 3.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            Tfn4(np.nan, 1.0, 3.0, 1.0)


# ---------------------------------------------------------------------------
# moments, link, intensification
# ---------------------------------------------------------------------------


class TestMoments:
    def test_baseline(self):
        c, s = multiverse_moments(BASELINE)
        assert c == pytest.approx(3.0, abs=1e-12)
        assert s == pytest.approx(1.25, abs=1e-12)

    def test_degenerate(self):
        c, s = multiverse_moments(MultiverseDistribution([0, 0, 0, 0, 1.0]))
        assert (c, s) == (5.0, 0.0)

    def test_uniform(self):
        c, s = multiverse_moments(UNIFORM5)
        assert c == pytest.approx(3.0, abs=1e-12)
        assert s == pytest.approx(2.0, abs=1e-12)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MultiverseDistribution([0.5, 0.4])
        with pytest.raises(ValueError, match="lie in"):
            MultiverseDistribution([1.5, -0.5])


class TestWilliamsLink:
    def test_baseline_pair(self):
        res = williams_link(0.5, 0.078125)
        assert res.l == pytest.approx(0.238543, abs=1e-6)
        assert res.r == pytest.approx(0.761457, abs=1e-6)
        assert not res.clamped

    def test_uniform_pair(self):
        res = williams_link(0.5, 0.125)
        assert res.l == pytest.approx(0.169281, abs=1e-6)
        assert res.r == pytest.approx(0.830719, abs=1e-6)

    def test_degenerate(self):
        assert williams_link(1.0, 0.0) == (1.0, 1.0, False)

    def test_out_of_range_mean(self):
        with pytest.raises(ValueError):
            williams_link(1.5, 0.1)

    @given(distributions)
    @settings(max_examples=200)
    def test_mean_identity(self, d):
        # unclamped endpoints make (l+c+r)/3 land exactly on the link's mu
        c, s = multiverse_moments(d)
        cn, sn = (c - 1) / 4, s / 16
        res = williams_link(cn, sn)
        if res.clamped or sn < 1e-9:
            return
        mu = (1 + cn / sn) / (2 + 1 / sn)
        assert (res.l + cn + res.r) / 3 == pytest.approx(mu, abs=1e-9)

    def test_symmetric_distribution_gives_symmetric_support(self):
        f = convert(BASELINE, 5)
        assert f.c - f.l == pytest.approx(f.r - f.c, abs=1e-9)


class TestIntensification:
    def test_uniform_minimum(self):
        assert intensification(UNIFORM5) == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_maximum(self):
        assert intensification(MultiverseDistribution([0, 0, 0, 0, 1.0])) == 1.0

    def test_baseline(self):
        assert intensification(BASELINE) == pytest.approx(0.3125, abs=1e-12)

    @given(distributions)
    @settings(max_examples=200)
    def test_bounds(self, d):
        w = intensification(d)
        assert 1 / d.M - 1e-12 <= w <= 1 + 1e-12


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


class TestConvert:
    def test_baseline(self):
        f = convert(BASELINE, 5)
        assert f.c == pytest.approx(3.0, abs=1e-5)
        assert f.l == pytest.approx(1.95417, abs=1e-5)
        assert f.r == pytest.approx(4.04583, abs=1e-5)
        assert f.omega == pytest.approx(0.3125, abs=1e-5)

    def test_uniform(self):
        f = convert(UNIFORM5, 5)
        assert f.c == pytest.approx(3.0, abs=1e-5)
        assert f.l == pytest.approx(1.67712, abs=1e-5)
        assert f.r == pytest.approx(4.32288, abs=1e-5)
        assert f.omega == pytest.approx(0.2, abs=1e-12)

    def test_degenerate(self):
        f = convert(MultiverseDistribution([0, 0, 0, 0, 1.0]), 5)
        assert (f.c, f.l, f.r, f.omega) == (5.0, 5.0, 5.0, 1.0)
        assert f.degenerate

    def test_category_count_mismatch(self):
        with pytest.raises(ValueError, match="categories"):
            convert(BASELINE, 6)

    @given(distributions)
    @settings(max_examples=200)
    def test_invariants(self, d):
        f = convert(d, 5)
        assert 1.0 <= f.l <= f.c <= f.r <= 5.0
        assert 0.2 - 1e-12 <= f.omega <= 1.0 + 1e-12

    @given(distributions)
    @settings(max_examples=100)
    def test_continuity(self, d):
        p = d.probs.copy()
        q = p + np.random.default_rng(0).uniform(-1e-9, 1e-9, 5)
        q = np.clip(q, 0, 1)
        q /= q.sum()
        a = convert(d, 5)
        b = convert(MultiverseDistribution(q), 5)
        for u, v in [(a.c, b.c), (a.l, b.l), (a.r, b.r), (a.omega, b.omega)]:
            assert abs(u - v) <= 1e-6

    @given(distributions)
    @settings(max_examples=200)
    def test_table_matches_scalar(self, d):
        c, l, r, w, clamped = convert_table(d.probs[None, :])
        want = oracle_convert(d.probs)
        assert c[0] == pytest.approx(want[0], abs=1e-12)
        assert l[0] == pytest.approx(want[1], abs=1e-12)
        assert r[0] == pytest.approx(want[2], abs=1e-12)
        assert w[0] == pytest.approx(want[3], abs=1e-12)
        assert bool(clamped[0]) == want[4]
        f = convert(d, 5)
        assert (f.c, f.l, f.r, f.omega, f.clamped) == (c[0], l[0], r[0], w[0], clamped[0])

    def test_near_crisp_six_categories_keeps_order(self):
        # the degenerate branch maps back as 1 + 5 ((c - 1) / 5), which is
        # not c; the endpoints must still not cross the mode
        p = np.array([3e-12, 0, 0, 1 - 3e-12, 0, 0])
        c, l, r, w, clamped = convert_table(p[None, :])
        assert l[0] == c[0] == r[0]
        fz = FuzzyRatingMatrix(c=c.reshape(1, 1), l=l.reshape(1, 1), r=r.reshape(1, 1),
                               omega=w.reshape(1, 1), clamped=clamped.reshape(1, 1),
                               tree_digest="")
        _, f = fz.entry(0, 0)
        assert f.degenerate
        assert convert(MultiverseDistribution(p), 6).degenerate

    @pytest.mark.parametrize("M", [3, 4, 5, 6, 7])
    def test_order_on_near_crisp_draws(self, M):
        p = np.random.default_rng(M).dirichlet(np.full(M, 0.005), size=20_000)
        c, l, r, _, _ = convert_table(p)
        assert (l <= c).all() and (c <= r).all()


# ---------------------------------------------------------------------------
# convert_all
# ---------------------------------------------------------------------------


def _small_fit(tree, I=20, J=3, seed=17):
    rng = np.random.default_rng(seed)
    y = rng.integers(1, tree.M + 1, size=(I, J))
    data = RatingMatrix(y, tree.M)
    return fit(data, ModelSpec(tree), FitOptions(compute_se=False)), data


class TestConvertAll:
    def test_zero_parameter_entry(self, fig1):
        fake = FuzzyRatingMatrix(  # minimal stand-in carrying fitted arrays
            c=np.zeros((1, 1)), l=np.zeros((1, 1)), r=np.zeros((1, 1)),
            omega=np.ones((1, 1)), clamped=np.zeros((1, 1), bool),
            tree_digest=fig1.digest(),
        )

        class Stub:
            eta_hat = np.zeros((1, 4))
            alpha_hat = np.zeros((1, 1))
            tree_digest = fig1.digest()

        out = convert_all(Stub(), fig1)
        _, f = out.entry(0, 0)
        assert f.c == pytest.approx(3.0, abs=1e-5)
        assert f.l == pytest.approx(1.95417, abs=1e-5)
        assert f.r == pytest.approx(4.04583, abs=1e-5)
        assert f.omega == pytest.approx(0.3125, abs=1e-5)
        assert fake.shape == (1, 1)

    def test_digest_mismatch(self, fig1, fig2):
        res, _ = _small_fit(fig1)
        with pytest.raises(ValueError, match="digest"):
            convert_all(res, fig2)

    def test_item_permutation_equivariance(self, fig1):
        res, _ = _small_fit(fig1)
        out = convert_all(res, fig1)

        class Permuted:
            eta_hat = res.eta_hat
            alpha_hat = res.alpha_hat[[2, 0, 1]]
            tree_digest = res.tree_digest

        out2 = convert_all(Permuted(), fig1)
        np.testing.assert_allclose(out2.c, out.c[:, [2, 0, 1]], atol=1e-12)
        np.testing.assert_allclose(out2.omega, out.omega[:, [2, 0, 1]], atol=1e-12)

    def test_carries_crisp_ratings(self, fig1):
        res, data = _small_fit(fig1)
        out = convert_all(res, fig1, data)
        rating, _ = out.entry(0, 0)
        assert rating == int(data.values[0, 0])

    def test_invariants_on_fitted_model(self, fig1):
        res, _ = _small_fit(fig1)
        out = convert_all(res, fig1)
        assert (out.l <= out.c).all() and (out.c <= out.r).all()
        assert (out.l >= 1).all() and (out.r <= 5).all()
        assert ((out.omega > 0.2 - 1e-12) & (out.omega <= 1)).all()


# ---------------------------------------------------------------------------
# Kaufmann indices
# ---------------------------------------------------------------------------


def _kaufmann_loop(values):
    """Plain-Python re-derivation used as the oracle."""
    total = 0.0
    for a in values:
        nearest = 1.0 if a >= 0.5 else 0.0
        total += abs(a - nearest)
    return 2.0 * total / len(values)


class TestKaufmann:
    def test_maximal(self):
        assert kaufmann_index(np.full(17, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_crisp(self):
        assert kaufmann_index(np.array([0, 1, 1, 0, 0.0])) == 0.0

    def test_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            kaufmann_index(np.array([]))

    def test_matches_loop_oracle(self, rng):
        vals = rng.random(301)
        assert kaufmann_index(vals) == pytest.approx(_kaufmann_loop(vals), abs=1e-12)

    def test_reduces_along_last_axis(self, rng):
        vals = rng.random((3, 4, 301))
        k = kaufmann_index(vals)
        assert k.shape == (3, 4)
        assert k[2, 1] == kaufmann_index(vals[2, 1])

    def test_linear_triangle_on_full_grid(self):
        # continuum value of the integral over the support is 0.5; the grid
        # over [1, 5] dilutes it by the support fraction 2/4
        k = kaufmann_of(Tfn4(3, 2, 4, 1), 5)
        assert k == pytest.approx(0.249, abs=2e-3)

    def test_degenerate(self):
        assert kaufmann_of(Tfn4(3, 3, 3, 1), 5) == 0.0
        assert kaufmann_support(Tfn4(3, 3, 3, 1)) == 0.0

    def test_flatter_shape_is_fuzzier(self):
        assert kaufmann_of(Tfn4(3, 2, 4, 0.3), 5) > kaufmann_of(Tfn4(3, 2, 4, 1.0), 5)

    def test_support_universe_value(self):
        # on its own support the linear triangle is maximally spread out:
        # the continuum value of (2/(r-l)) int |A - delta| is 1/2
        k = kaufmann_support(Tfn4(3, 2, 4, 1))
        assert k == pytest.approx(0.5, abs=4e-3)

    def test_support_matches_index_on_support_grid(self):
        f = Tfn4(2.8, 1.5, 4.2, 0.6)
        grid = np.linspace(f.l, f.r, 201)
        assert kaufmann_support(f) == pytest.approx(
            kaufmann_index(membership(f, grid)), abs=1e-12
        )

    def test_tables_match_scalar_versions(self, rng):
        c = rng.uniform(2, 4, 20)
        l = c - rng.uniform(0.05, 1.0, 20)
        r = c + rng.uniform(0.05, 1.0, 20)
        w = rng.uniform(0.2, 1.0, 20)
        l[0] = c[0]  # a number with an empty left branch
        ks = kaufmann_support_table(c, l, r, w)
        full = np.linspace(1.0, 5.0, 201)
        for i in range(20):
            f = Tfn4(c[i], l[i], r[i], w[i])
            own = np.linspace(f.l, f.r, 201)
            np.testing.assert_allclose(membership(f, full), oracle_membership(f, full),
                                       rtol=0, atol=1e-12)
            assert kaufmann_of(f, 5) == pytest.approx(
                _kaufmann_loop(oracle_membership(f, full)), abs=1e-12)
            assert ks[i] == pytest.approx(
                _kaufmann_loop(oracle_membership(f, own)), abs=1e-12)
            assert kaufmann_support(f) == ks[i]

    def test_support_table_degenerate_rows(self):
        ks = kaufmann_support_table([3.0, 3.0], [3.0, 2.0], [3.0, 4.0], [1.0, 1.0])
        assert ks[0] == 0.0
        assert ks[1] > 0.4
