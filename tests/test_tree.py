import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fuzzyirtree.tree import (
    NA,
    ResponseTree,
    category_probabilities,
    category_probability_table,
    expit,
    parse_tree_spec,
    preset_tree,
    validate_tree,
)

finite = st.floats(min_value=-30, max_value=30, allow_nan=False)


# a single node with categories (no, yes): P(yes) is the branch probability
ONE_NODE = ResponseTree(M=2, N=1, map=[[0], [1]], node_labels=("a",))


def branch_probability(eta, alpha):
    return category_probabilities(ONE_NODE, [eta], [alpha])[1]


def oracle_category_probability_table(tree, eta, alpha):
    """The category table as it was before it became one broadcast product,
    kept as a bit-for-bit oracle: one product per category, in a loop."""
    p = expit(np.asarray(eta, float) + np.asarray(alpha, float))
    on = ~np.isnan(tree.map)
    t = np.nan_to_num(tree.map)
    out = np.empty(p.shape[:-1] + (tree.M,))
    for m in range(tree.M):
        f = np.where(on[m], np.where(t[m] == 1.0, p, 1.0 - p), 1.0)
        out[..., m] = f.prod(axis=-1)
    return out


class TestBranchProbability:
    def test_symmetry_point(self):
        assert branch_probability(0.0, 0.0) == 0.5

    def test_direct_evaluation(self):
        # independently: 1/(1+exp(-1)) to 6 decimals
        assert branch_probability(1.0, 0.0) == pytest.approx(0.731059, abs=1e-6)

    def test_depends_only_on_linear_predictor(self):
        assert branch_probability(2.0, -1.0) == pytest.approx(
            branch_probability(1.0, 0.0), abs=1e-12
        )

    @pytest.mark.parametrize("lp", [-500.0, -40.0, 40.0, 500.0])
    def test_stable_for_extreme_predictors(self, lp, fig1, fig2):
        for tree in (ONE_NODE, fig1, fig2):
            p = category_probabilities(tree, np.full(tree.N, lp), np.zeros(tree.N))
            assert np.isfinite(p).all()
            assert ((p >= 0.0) & (p <= 1.0)).all()

    @given(a=finite, b=finite)
    def test_complement_identity(self, a, b):
        assert branch_probability(a, b) + branch_probability(-a, -b) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, fig1):
        ok = np.zeros(fig1.N)
        broken = np.array([0.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="traits must be finite"):
            category_probabilities(fig1, broken, ok)
        with pytest.raises(ValueError, match="easiness must be finite"):
            category_probabilities(fig1, ok, broken)


class TestCategoryProbabilities:
    def test_all_zero_parameters_five_cat(self, fig1):
        p = category_probabilities(fig1, np.zeros(fig1.N), np.zeros(fig1.N))
        np.testing.assert_allclose(p, [0.125, 0.125, 0.5, 0.125, 0.125], atol=1e-15)

    def test_all_zero_parameters_six_cat(self, fig2):
        p = category_probabilities(fig2, np.zeros(fig2.N), np.zeros(fig2.N))
        np.testing.assert_allclose(
            p, [0.125, 0.125, 0.25, 0.25, 0.125, 0.125], atol=1e-15
        )

    def test_common_trait_one(self, fig1):
        # hand products of logistic branch terms along each path, e.g.
        # P(cat 1) = s(1)*(1-s(1))^2 and P(cat 3) = 1-s(1) with s = logistic
        p = category_probabilities(fig1, np.ones(fig1.N), np.zeros(fig1.N))
        np.testing.assert_allclose(
            p, [0.05287, 0.14373, 0.26894, 0.14373, 0.39073], atol=5e-5
        )
        s = 1.0 / (1.0 + np.exp(-1.0))
        assert p[0] == pytest.approx(s * (1 - s) ** 2, abs=1e-12)
        assert p[2] == pytest.approx(1 - s, abs=1e-12)

    @pytest.mark.parametrize("name", ["fig1-5cat", "fig2-6cat"])
    def test_sums_to_one_randomized(self, name):
        tree = preset_tree(name)
        rng = np.random.default_rng(42)
        eta = rng.normal(0, 2, size=(1000, tree.N))
        alpha = rng.normal(0, 2, size=(1000, tree.N))
        p = category_probability_table(tree, eta, alpha)
        assert p.shape == (1000, tree.M)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_monotone_in_node_predictor(self, fig1):
        # raising the final node's predictor raises the top category and
        # lowers its sibling, leaving off-path categories untouched
        lo = category_probabilities(fig1, [0, 0, 0, 0.0], [0, 0, 0, 0])
        hi = category_probabilities(fig1, [0, 0, 0, 1.0], [0, 0, 0, 0])
        assert hi[4] > lo[4]
        assert hi[3] < lo[3]
        np.testing.assert_allclose(hi[:3], lo[:3], atol=1e-15)

    def test_length_mismatch(self, fig1):
        with pytest.raises(ValueError, match="length"):
            category_probabilities(fig1, [0.0, 0.0], [0.0] * fig1.N)
        with pytest.raises(ValueError, match="length"):
            category_probabilities(fig1, [0.0] * fig1.N, [0.0] * (fig1.N + 1))


class TestExpit:
    """The package's numpy `expit` against scipy's, a test-only oracle."""

    def test_close_to_scipy(self):
        x = np.random.default_rng(3).normal(0.0, 4.0, 1_000_000)
        want = special.expit(x)
        assert np.max(np.abs(expit(x) - want) / want) <= 4.5e-16

    def test_extremes_without_warnings(self):
        x = np.array([800.0, -800.0, np.inf, -np.inf, -1e-300, -709.78, -709.79])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
        np.testing.assert_array_equal(got, special.expit(x))
        np.testing.assert_array_equal(got[:5], [1.0, 0.0, 1.0, 0.0, 0.5])


class TestCategoryTableOracle:
    """`category_probability_table` gives, bit for bit, what
    `oracle_category_probability_table` gives."""

    @staticmethod
    def _assert_same(tree, eta, alpha):
        got = category_probability_table(tree, eta, alpha)
        want = oracle_category_probability_table(tree, eta, alpha)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("lead", [(), (100,), (150, 20), (5000, 40)],
                             ids=lambda s: "x".join(map(str, s)) or "vector")
    @pytest.mark.parametrize("name", ["fig1-5cat", "fig2-6cat"])
    def test_table_shapes(self, name, lead):
        tree = preset_tree(name)
        rng = np.random.default_rng(len(lead))
        shape = (*lead, tree.N)
        self._assert_same(tree, rng.normal(0, 2, shape), rng.normal(0, 2, shape))

    @pytest.mark.parametrize("name", ["fig1-5cat", "fig2-6cat"])
    def test_broadcast_shapes(self, name):
        # the layouts of generate_true_data and convert_all: I x 1 x N traits
        # against 1 x J x N easiness, and a common column broadcast over nodes
        tree = preset_tree(name)
        rng = np.random.default_rng(7)
        traits = rng.normal(size=(150, 1, tree.N))
        self._assert_same(tree, traits, rng.normal(size=(1, 20, tree.N)))
        self._assert_same(tree, traits, rng.normal(size=(1, 20, 1)))
        self._assert_same(tree, rng.normal(size=tree.N), 0.0)

    @settings(max_examples=100)
    @given(data=st.data(), name=st.sampled_from(["fig1-5cat", "fig2-6cat"]))
    def test_hypothesis(self, data, name):
        tree = preset_tree(name)
        wide = st.floats(-800, 800, allow_nan=False)
        eta = data.draw(st.lists(wide, min_size=tree.N, max_size=tree.N))
        alpha = data.draw(st.lists(wide, min_size=tree.N, max_size=tree.N))
        self._assert_same(tree, eta, alpha)


class TestValidateTree:
    def test_presets_valid(self, fig1, fig2):
        assert validate_tree(fig1).valid
        assert validate_tree(fig2).valid

    def test_duplicate_rows(self):
        tree = ResponseTree(
            M=3, N=2, map=[[1, 0], [1, 0], [0, NA]], node_labels=("a", "b")
        )
        report = validate_tree(tree)
        assert not report.valid
        assert any("duplicate category path" in e for e in report.errors)

    def test_all_na_row(self):
        tree = ResponseTree(
            M=3, N=2, map=[[1, 0], [NA, NA], [0, NA]], node_labels=("a", "b")
        )
        report = validate_tree(tree)
        assert not report.valid
        assert any("all entries NA" in e for e in report.errors)
        assert str(report) == ("tree is invalid:\n  - category 2: all entries NA\n"
                               "  - category probabilities do not sum to 1 (max deviation 0.999)")

    def test_missing_leaf_breaks_sum(self):
        # three categories on two nodes but the (1,1) leaf is unclaimed
        tree = ResponseTree(
            M=3, N=2, map=[[0, NA], [1, 0], [0, 0]], node_labels=("a", "b")
        )
        report = validate_tree(tree)
        assert not report.valid
        assert any("sum to 1" in e for e in report.errors)
        assert report.max_sum_deviation > 1e-9


class TestPresets:
    def test_shapes(self, fig1, fig2):
        assert (fig1.M, fig1.N) == (5, 4)
        assert (fig2.M, fig2.N) == (6, 4)
        assert fig2.node_labels == ("M", "A_w", "A_s", "E")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_tree("fig3-7cat")

    def test_digests_distinct_and_stable(self, fig1, fig2):
        assert fig1.digest() != fig2.digest()
        assert fig1.digest() == preset_tree("fig1-5cat").digest()

    def test_map_write_protected(self, fig1):
        with pytest.raises(ValueError):
            fig1.map[0, 0] = 0.0


class TestResponseTree:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(M=1, N=1, map=[[1]], node_labels=("a",)), "M must be >= 2"),
        (dict(M=2, N=1, map=[[0, 1], [1, 0]], node_labels=("a",)), r"map must be 2x1"),
        (dict(M=2, N=1, map=[[0], [2]], node_labels=("a",)), "map entries must be 0, 1, or NA"),
        (dict(M=2, N=1, map=[[0], [1]], node_labels=("a", "b")), "one label per node"),
    ], ids=["M", "map-shape", "map-entry", "labels"])
    def test_checks(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ResponseTree(**kwargs)


class TestParseTreeSpec:
    def test_round_trip(self, fig1):
        parsed = parse_tree_spec(fig1.spec_text())
        assert parsed.digest() == fig1.digest()
        assert parsed.node_labels == fig1.node_labels

    def test_bad_entry(self, fig1):
        doc = json.loads(fig1.spec_text())
        doc["map"][0][0] = 2
        with pytest.raises(ValueError, match="entry must be 0, 1, or null"):
            parse_tree_spec(json.dumps(doc))

    def test_missing_field(self, fig1):
        doc = json.loads(fig1.spec_text())
        del doc["M"]
        with pytest.raises(ValueError, match="'M'"):
            parse_tree_spec(json.dumps(doc))

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_tree_spec("{not json")

    def test_row_count_mismatch(self, fig1):
        doc = json.loads(fig1.spec_text())
        doc["map"] = doc["map"][:-1]
        with pytest.raises(ValueError, match="rows"):
            parse_tree_spec(json.dumps(doc))

    @pytest.mark.parametrize("change,message", [
        ({"M": 1}, "'M' must be an integer >= 2"), ({"M": "5"}, "'M' must be an integer >= 2"),
        ({"nodes": "Z1"}, "'nodes' must be a list of strings"),
        ({"nodes": [1, 2, 3, 4]}, "'nodes' must be a list of strings"),
    ], ids=["M-small", "M-string", "nodes-string", "nodes-numbers"])
    def test_bad_field(self, change, message, fig1):
        doc = {**json.loads(fig1.spec_text()), **change}
        with pytest.raises(ValueError, match=message):
            parse_tree_spec(json.dumps(doc))

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="tree spec must be a JSON object"):
            parse_tree_spec("[1, 2]")

    def test_short_map_row(self, fig1):
        doc = json.loads(fig1.spec_text())
        doc["map"][1] = doc["map"][1][:-1]
        with pytest.raises(ValueError, match="map row 2 must have 4 entries"):
            parse_tree_spec(json.dumps(doc))

    def test_invalid_tree_rejected(self):
        doc = {"M": 3, "nodes": ["a", "b"], "map": [[1, 0], [1, 0], [0, None]]}
        with pytest.raises(ValueError, match="duplicate category path"):
            parse_tree_spec(json.dumps(doc))


@settings(max_examples=50)
@given(eta=st.lists(finite, min_size=4, max_size=4),
       alpha=st.lists(finite, min_size=4, max_size=4))
def test_probabilities_coherent_under_arbitrary_parameters(eta, alpha):
    tree = preset_tree("fig1-5cat")
    p = category_probabilities(tree, eta, alpha)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert (p >= 0).all()
