import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from fuzzyirtree.estimation import FitOptions, ModelSpec, RatingMatrix, fit
from fuzzyirtree.fuzzy import (
    BLOCK_CELLS,
    DEFAULT_GRID_POINTS,
    FuzzyRatingMatrix,
    MultiverseDistribution,
    Tfn4,
    _membership_rows,
    convert,
    convert_all,
    convert_table,
    intensification,
    kaufmann_support,
    kaufmann_support_table,
    membership,
    multiverse_moments,
    rater_blocks,
    williams_link,
)
from fuzzyirtree.tree import category_probability_table

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


def oracle_membership_rows(grid, c, l, r, w):
    """The membership kernel as it was before it became one expression,
    kept as a bit-for-bit oracle: it gathers the left branch (l, c] and the
    right branch (c, r) apart and scatters each back."""
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


def oracle_kaufmann_index(memberships):
    """The reduction of `oracle_kaufmann_support_table`: the normalized
    distance to the nearest crisp set over the sampled points, along the
    last axis (a float for a vector, an array otherwise)."""
    a = np.atleast_1d(np.asarray(memberships, dtype=float))
    if a.shape[-1] == 0:
        raise ValueError("the Kaufmann index needs a non-empty vector")
    k = 2.0 * np.mean(np.abs(a - (a >= 0.5)), axis=-1)
    return float(k) if k.ndim == 0 else k


def oracle_kaufmann_support_table(c, l, r, omega, points=DEFAULT_GRID_POINTS):
    """The Kaufmann support kernel as it was before the integral, kept as an
    oracle: `oracle_membership_rows` on the y-grid l + (r - l) * m of `points`
    even points m in [0, 1], for the whole table at once, reduced by
    `oracle_kaufmann_index`. Its last point can fall an ulp short of r, where
    the membership is then not 0."""
    c, l, r, w = (np.asarray(v, float)[..., None] for v in (c, l, r, omega))
    grid = l + (r - l) * np.linspace(0.0, 1.0, points)
    return oracle_kaufmann_index(oracle_membership_rows(grid, c, l, r, w))


def oracle_kaufmann_support(c, l, r, omega):
    """Kaufmann index of one Tfn4 on the unit support m = (y - l)/(r - l),
    one point at a time: the membership of each branch, then its distance
    to the nearest crisp set."""
    if l == r:
        return 0.0
    t = (c - l) / (r - l)
    total = 0.0
    for m in np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS).tolist():
        if m == t:
            mu = 1.0
        elif 0.0 < m < t:
            mu = 1.0 / (1.0 + math.pow((t - m) / m, omega))
        elif t < m < 1.0:
            mu = 1.0 / (1.0 + math.pow((1.0 - m) / (m - t), -omega))
        else:
            mu = 0.0
        total += min(mu, 1.0 - mu)
    return 2.0 * total / DEFAULT_GRID_POINTS


def quad_kaufmann(omega):
    """K(omega) = 4 * integral over [0, 1/2] of du / (1 + ((1 - u)/u)**omega)
    by scipy's adaptive quadrature, with the integrand written as e/(1 + e),
    e = ((1 - u)/u)**-omega, which cannot overflow."""
    def integrand(u):
        e = math.exp(-omega * math.log((1.0 - u) / u)) if u > 0 else 0.0
        return e / (1.0 + e)

    with warnings.catch_warnings():
        # an absolute tolerance of 1e-15 is below what quad can certify
        warnings.simplefilter("ignore", IntegrationWarning)
        return 4.0 * quad(integrand, 0.0, 0.5, epsabs=1e-15, epsrel=0.0)[0]


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


def _membership_cases(n, seed=0):
    """n random (y, c, l, r, w) cells. A twelfth each has y at l, c or r, at
    one of their four inner 1-ulp neighbours, or NaN, +inf or -inf; the rest
    are uniform over [l - 0.5, r + 0.5]. A quarter each has l = c, c = r or
    both (degenerate)."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(1.0, 5.0, n)
    l = c - rng.exponential(1.0, n)
    r = c + rng.exponential(1.0, n)
    w = rng.uniform(0.05, 5.0, n)
    kind = rng.integers(0, 4, n)
    l = np.where(kind % 2 == 1, c, l)  # kinds 1 and 3
    r = np.where(kind >= 2, c, r)      # kinds 2 and 3
    special = (l, c, r, np.nextafter(l, np.inf), np.nextafter(c, -np.inf),
               np.nextafter(c, np.inf), np.nextafter(r, -np.inf),
               np.full(n, np.nan), np.full(n, np.inf), np.full(n, -np.inf))
    pick = rng.integers(0, 12, n)
    y = np.choose(np.minimum(pick, 10), (*special, rng.uniform(l - 0.5, r + 0.5)))
    return y, c, l, r, w


class TestMembershipKernelOracle:
    """`_membership_rows` gives, bit for bit, what `oracle_membership_rows`
    gives: both compute each point with the same division and pow."""

    @staticmethod
    def _assert_same(*args):
        got, want = _membership_rows(*args), oracle_membership_rows(*args)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_random_and_edge_points(self):
        self._assert_same(*_membership_cases(400_000))

    def test_zero_dimensional_calls(self):
        for y, c, l, r, w in zip(*_membership_cases(3000, seed=1)):
            self._assert_same(y, c, l, r, w)
            self._assert_same(float(y), float(c), float(l), float(r), float(w))
            assert membership(Tfn4(c, l, r, w), y) == oracle_membership_rows(y, c, l, r, w)

    @pytest.mark.parametrize("M", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("universe", ["support", "scale"])
    def test_converted_tables(self, M, universe):
        p = np.random.default_rng(M).dirichlet(np.full(M, 0.7), size=(40, 9))
        c, l, r, w, _ = (v[..., None] for v in convert_table(p))
        ticks = np.linspace(0.0, 1.0, 201)
        grid = l + (r - l) * ticks if universe == "support" else 1.0 + (M - 1) * ticks
        self._assert_same(grid, c, l, r, w)

    @pytest.mark.parametrize("shapes", [
        ((), (), (), (), ()),
        ((201,), (), (), (), ()),
        ((201,), (6, 1), (6, 1), (6, 1), (6, 1)),
        ((6, 201), (6, 1), (6, 1), (6, 1), (6, 1)),
        ((3, 6, 201), (3, 6, 1), (3, 6, 1), (3, 6, 1), (3, 6, 1)),
        ((201,), (6, 1), (), (), (2, 1, 1)),
        ((1, 201), (6, 1), (6, 1), (1, 1), (6, 201)),
    ], ids=["0-d", "grid", "rows", "row-grids", "3-d", "mixed", "w-full"])
    def test_every_broadcast_shape(self, shapes):
        rng = np.random.default_rng(len(str(shapes)))
        c = 3.0 + rng.uniform(-0.5, 0.5, shapes[1])
        l = 3.0 - rng.uniform(0.6, 1.5, shapes[2])
        r = 3.0 + rng.uniform(0.6, 1.5, shapes[3])
        w = rng.uniform(0.2, 3.0, shapes[4])
        grid = rng.uniform(1.0, 5.0, shapes[0])
        self._assert_same(grid, c, l, r, w)

    @given(
        c=st.floats(-10, 10), dl=st.floats(0, 5), dr=st.floats(0, 5),
        w=st.floats(1e-3, 50), y=st.one_of(st.floats(-20, 20), st.floats(allow_nan=True)),
    )
    @settings(max_examples=300)
    def test_hypothesis(self, c, dl, dr, w, y):
        l, r = c - dl, c + dr
        grid = np.array([y, l, c, r, np.nextafter(l, c), np.nextafter(c, l),
                         np.nextafter(c, r), np.nextafter(r, c), (l + c) / 2, (c + r) / 2])
        self._assert_same(grid, c, l, r, w)


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

    @pytest.mark.parametrize("probs", [[[0.5, 0.5]], [1.0]], ids=["2-D", "one-element"])
    def test_probs_must_be_a_vector_of_two_or_more(self, probs):
        with pytest.raises(ValueError, match="probs must be a vector of length >= 2"):
            MultiverseDistribution(probs)

    def test_nan_probability_is_rejected(self):
        # NaN passes both `p < 0` and `|sum - 1| > tol` as False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lie in"):
                MultiverseDistribution([np.nan, 1.0])


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

    @pytest.mark.parametrize("M", range(2, 9))
    def test_is_the_omega_of_the_table(self, M):
        # bit for bit against the table's cell, one-hot and uniform rows included
        rng = np.random.default_rng(M)
        p = np.vstack([rng.dirichlet(np.full(M, 0.7), 200), np.eye(M), np.full((1, M), 1 / M)])
        for row, w in zip(p, convert_table(p)[3], strict=True):
            assert intensification(MultiverseDistribution(row)) == w


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

    @pytest.mark.parametrize("M", [4, 7])
    def test_one_cell_converts_as_a_one_row_table(self, M):
        # convert computes on numpy scalars, whose x**2 goes through pow and
        # can be an ulp off the x * x of an array
        for p in np.random.default_rng(M).dirichlet(np.full(M, 0.5), size=3000):
            f = convert(MultiverseDistribution(p), M)
            assert [f.c, f.l, f.r, f.omega, f.clamped] == [v[0] for v in convert_table(p[None, :])]

    @pytest.mark.parametrize("M", [4, 5, 6, 7])
    def test_one_cell_converts_as_its_row_of_a_table(self, M):
        # a matrix product takes dot for one row and BLAS gemv for more, whose
        # sums can differ in the last ulp; the layout must not reach the bits
        p = np.random.default_rng(M).dirichlet(np.full(M, 0.5), size=1000)
        table = convert_table(p)
        for i, row in enumerate(p):
            f = convert(MultiverseDistribution(row), M)
            assert [f.c, f.l, f.r, f.omega, f.clamped] == [v[i] for v in table]

    def test_near_crisp_six_categories_keeps_order(self):
        # the degenerate branch maps back as 1 + 5 ((c - 1) / 5), which is
        # not c; the endpoints must still not cross the mode
        p = np.array([3e-12, 0, 0, 1 - 3e-12, 0, 0])
        c, l, r, w, clamped = convert_table(p[None, :])
        assert l[0] == c[0] == r[0]
        fz = FuzzyRatingMatrix(c=c.reshape(1, 1), l=l.reshape(1, 1), r=r.reshape(1, 1),
                               omega=w.reshape(1, 1), clamped=clamped.reshape(1, 1))
        _, f = fz.entry(0, 0)
        assert f.degenerate
        assert convert(MultiverseDistribution(p), 6).degenerate

    @pytest.mark.parametrize("M", [3, 5, 6])
    def test_table_of_any_leading_shape(self, M):
        # a table row has the bits of the same row in a table of any shape
        p = np.random.default_rng(M).dirichlet(np.ones(M), size=(30, 7))
        flat = convert_table(p.reshape(-1, M))
        for got, want in zip(convert_table(p), flat, strict=True):
            assert got.shape == (30, 7)
            assert np.array_equal(got, want.reshape(30, 7))

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
        )

        class Stub:
            eta_hat = np.zeros((1, 4))
            alpha_hat = np.zeros((1, 1))
            model = ModelSpec(fig1)

        out = convert_all(Stub())
        _, f = out.entry(0, 0)
        assert f.c == pytest.approx(3.0, abs=1e-5)
        assert f.l == pytest.approx(1.95417, abs=1e-5)
        assert f.r == pytest.approx(4.04583, abs=1e-5)
        assert f.omega == pytest.approx(0.3125, abs=1e-5)
        assert fake.shape == (1, 1)

    def test_item_permutation_equivariance(self, fig1):
        res, _ = _small_fit(fig1)
        out = convert_all(res)

        class Permuted:
            eta_hat = res.eta_hat
            alpha_hat = res.alpha_hat[[2, 0, 1]]
            model = res.model

        out2 = convert_all(Permuted())
        np.testing.assert_allclose(out2.c, out.c[:, [2, 0, 1]], atol=1e-12)
        np.testing.assert_allclose(out2.omega, out.omega[:, [2, 0, 1]], atol=1e-12)

    def test_carries_crisp_ratings(self, fig1):
        res, data = _small_fit(fig1)
        out = convert_all(res, data)
        rating, _ = out.entry(0, 0)
        assert rating == int(data.values[0, 0])

    def test_ratings_must_be_a_rating_matrix(self, fig1):
        res, data = _small_fit(fig1)
        with pytest.raises(TypeError, match="ratings must be a RatingMatrix or None, got ndarray"):
            convert_all(res, data.values)

    def test_ratings_of_the_wrong_shape(self, fig1):
        res, data = _small_fit(fig1)
        with pytest.raises(ValueError, match=r"ratings must be \(20, 3\), got \(20, 2\)"):
            convert_all(res, RatingMatrix(data.values[:, :2], fig1.M))

    @pytest.mark.parametrize("J", [1, 7])
    def test_blocks_equal_the_whole_table(self, fig2, J):
        # two full blocks of raters and a ragged third; J = 1 is where a
        # one-row matmul would take another BLAS path than the whole table
        I = 2 * (BLOCK_CELLS // J) + 13
        rng = np.random.default_rng(J)

        class Fit:
            eta_hat = rng.normal(size=(I, fig2.N))
            alpha_hat = rng.normal(size=(J, fig2.N))
            model = ModelSpec(fig2)

        assert len(rater_blocks(I, J)) == 3
        out = convert_all(Fit())
        whole = convert_table(category_probability_table(fig2, Fit.eta_hat[:, None, :],
                                                         Fit.alpha_hat[None, :, :]))
        for got, want in zip((out.c, out.l, out.r, out.omega, out.clamped), whole):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_invariants_on_fitted_model(self, fig1):
        res, _ = _small_fit(fig1)
        out = convert_all(res)
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
        assert oracle_kaufmann_index(np.full(17, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_crisp(self):
        assert oracle_kaufmann_index(np.array([0, 1, 1, 0, 0.0])) == 0.0

    def test_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            oracle_kaufmann_index(np.array([]))

    def test_matches_loop_oracle(self, rng):
        vals = rng.random(301)
        assert oracle_kaufmann_index(vals) == pytest.approx(_kaufmann_loop(vals), abs=1e-12)

    def test_reduces_along_last_axis(self, rng):
        vals = rng.random((3, 4, 301))
        k = oracle_kaufmann_index(vals)
        assert k.shape == (3, 4)
        assert k[2, 1] == oracle_kaufmann_index(vals[2, 1])

    def test_degenerate(self):
        assert kaufmann_support(Tfn4(3, 3, 3, 1)) == 0.0

    def test_flatter_shape_is_fuzzier(self):
        assert kaufmann_support(Tfn4(3, 2, 4, 0.3)) > kaufmann_support(Tfn4(3, 2, 4, 1.0))

    def test_support_universe_value(self):
        # on its own support the linear triangle is maximally spread out:
        # the continuum value of (2/(r-l)) int |A - delta| is 1/2
        assert kaufmann_support(Tfn4(3, 2, 4, 1)) == pytest.approx(0.5, abs=4e-15)
        assert kaufmann_support(Tfn4(3, 2, 4, 0.5)) == pytest.approx(math.log(2), abs=4e-15)

    def test_support_matches_index_on_support_grid(self):
        # the index of the membership on an even grid of the support tends to
        # the integral from below, ten times closer for ten times the points
        f = Tfn4(2.8, 1.5, 4.2, 0.6)
        gaps = [kaufmann_support(f) - oracle_kaufmann_index(membership(f, np.linspace(f.l, f.r, n)))
                for n in (201, 2001, 20001)]
        assert 0 < gaps[2] < gaps[1] / 8 < gaps[0] / 64
        assert gaps[0] < 0.01

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
            np.testing.assert_allclose(membership(f, full), oracle_membership(f, full),
                                       rtol=0, atol=1e-12)
            assert ks[i] == pytest.approx(quad_kaufmann(w[i]), abs=1e-14)
            assert kaufmann_support(f) == ks[i]

    def test_support_table_keeps_the_input_shape(self, rng):
        c = rng.uniform(2, 4, (6, 5))
        l, r = c - rng.uniform(0, 1, c.shape), c + rng.uniform(0, 1, c.shape)
        w = rng.uniform(0.2, 1.0, c.shape)
        ks = kaufmann_support_table(c, l, r, w)
        assert ks.shape == (6, 5)
        flat = kaufmann_support_table(c.ravel(), l.ravel(), r.ravel(), w.ravel())
        assert np.array_equal(ks.ravel(), flat)

    def test_support_table_degenerate_rows(self):
        ks = kaufmann_support_table([3.0, 3.0], [3.0, 2.0], [3.0, 4.0], [1.0, 1.0])
        assert ks[0] == 0.0
        assert ks[1] > 0.4


def _support_cells(rng, n, spread_min):
    """n random (c, l, r, omega) cells with omega in [0.2, 1] and r - l from
    spread_min to 3, log-uniform; the first three, as far as there are any,
    have l = c, c = r and l = c = r."""
    c = rng.uniform(1.5, 4.5, n)
    spread = spread_min * (3.0 / spread_min) ** rng.random(n)
    left = spread * rng.random(n)
    l, r = c - left, c + (spread - left)
    l[:1], r[:1] = c[:1], c[:1] + spread[:1]
    l[1:2], r[1:2] = c[1:2] - spread[1:2], c[1:2]
    l[2:3] = r[2:3] = c[2:3]
    return c, l, r, rng.uniform(0.2, 1.0, n)


class TestKaufmannClosedForm:
    def test_matches_the_y_grid_kernel(self, rng):
        c, l, r, w = _support_cells(rng, 20_000, 0.05)
        assert (l[0], r[1], l[2], r[2]) == (c[0], c[1], c[2], c[2])
        ks = kaufmann_support_table(c, l, r, w)
        old = oracle_kaufmann_support_table(c, l, r, w)
        # the 201-point grid is a rule for the same integral, and it reads low
        gap = np.delete(ks - old, 2)
        assert (gap > 0).all() and gap.max() < 0.01
        assert ks[0] > 0 and ks[1] > 0 and ks[2] == old[2] == 0.0

    def test_matches_the_unit_support_loop_down_to_tiny_spreads(self, rng):
        c, l, r, w = _support_cells(rng, 600, 1e-9)
        assert (r - l).min() < 1e-8
        ks = kaufmann_support_table(c, l, r, w)
        # no digits go to the support's offset: a unit support gives the same bits
        assert np.array_equal(np.delete(ks, 2), kaufmann_support_table(0.0, 0.0, 1.0, np.delete(w, 2)))
        loop = np.array([oracle_kaufmann_support(*cell) for cell in zip(c, l, r, w)])
        assert ks[2] == loop[2] == 0.0
        gap = np.delete(ks - loop, 2)
        assert (gap > 0).all() and gap.max() < 0.01

    @pytest.mark.parametrize("omega", [0.01, 0.2, 0.6, 1.0, 3.0, 100.0])
    def test_every_support_gives_the_bits_of_one_omega(self, rng, omega):
        c, l, r, _ = _support_cells(rng, 5_000, 1e-9)
        ks = kaufmann_support_table(c, l, r, omega)
        assert ks[2] == 0.0
        assert set(np.delete(ks, 2).tolist()) == {kaufmann_support_table(0.5, 0.0, 1.0, omega)}

    def test_matches_adaptive_quadrature(self):
        w = np.logspace(-2, 2, 41)
        ks = kaufmann_support_table(0.5, 0.0, 1.0, w)
        np.testing.assert_allclose(ks, [quad_kaufmann(v) for v in w.tolist()], rtol=0, atol=1e-14)
        np.testing.assert_allclose(ks + ks[::-1], 1.0, rtol=0, atol=4e-15)  # K(w) + K(1/w)

    def test_the_grid_oracle_converges_to_it(self, rng):
        c, l, r, w = (v[3:] for v in _support_cells(rng, 40, 0.05))
        ks = kaufmann_support_table(c, l, r, w)
        errs = [np.abs(oracle_kaufmann_support_table(c, l, r, w, n) - ks)
                for n in (201, 2_001, 20_001)]
        assert (errs[0] > errs[1]).all() and (errs[1] > errs[2]).all()
        assert errs[2].max() < 1e-4

    @pytest.mark.parametrize("shape", [(1, 1), (16, 5), (27, 3), (41, 2), (150, 20)])
    def test_blocks_give_the_bits_of_one_block(self, rng, shape):
        c, l, r, w = (v.reshape(shape) for v in _support_cells(rng, math.prod(shape), 0.05))
        # an (I, J) table, and per-rater c, l, r against per-item omega
        inputs = [(c, l, r, w), (c[:, :1], l[:, :1], r[:, :1], w[0])]
        tables = [kaufmann_support_table(*args) for args in inputs]
        for args, got in zip(inputs, tables):
            assert got.shape == shape
            flat = (np.broadcast_to(v, shape).ravel() for v in args)
            assert np.array_equal(got.ravel(), kaufmann_support_table(*flat))
        assert kaufmann_support_table(c[-1, -1], l[-1, -1], r[-1, -1], w[-1, -1]) \
            == tables[0][-1, -1]

    def test_a_zero_d_input_gives_a_python_float(self):
        for args in ((3.0, 2.0, 4.0, 0.5), tuple(np.array(v) for v in (3.0, 2.0, 4.0, 0.5)),
                     tuple(np.float64(v) for v in (3.0, 3.0, 3.0, 1.0))):
            assert type(kaufmann_support_table(*args)) is float

    @pytest.mark.parametrize("c, l, r, w", [
        (5.0, 2.0, 4.0, 0.5),        # c > r
        (1.0, 2.0, 4.0, 0.5),        # l > c
        (3.0, 4.0, 2.0, 0.5),        # l > r
        (3.0, 2.0, 4.0, -1.0),
        (3.0, 2.0, 4.0, 0.0),
        (3.0, 2.0, 4.0, np.nan),
        (3.0, 2.0, 4.0, np.inf),
        (np.nan, 2.0, 4.0, 0.5),
        (3.0, -np.inf, 4.0, 0.5),
        (3.0, 2.0, np.inf, 0.5),
        (np.inf, np.inf, np.inf, 0.5),
    ])
    def test_a_cell_that_is_not_a_tfn4_is_a_domain_error(self, c, l, r, w):
        with pytest.raises(ValueError, match="need finite l <= c <= r"):
            kaufmann_support_table(c, l, r, w)

    def test_the_domain_error_names_the_cell(self):
        c = np.full((3, 4), 3.0)
        c[1, 2] = 5.0
        with pytest.raises(ValueError, match=r"\(5\.0, 2\.0, 4\.0, 0\.5\) at cell \(1, 2\)"):
            kaufmann_support_table(c, 2.0, 4.0, 0.5)
