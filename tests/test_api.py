import dataclasses
import inspect
import types

import pytest

import fuzzyirtree
from fuzzyirtree import fuzzy

# Every public name the package exports. Adding or removing one is an API
# change: update this list in the same change, on purpose.
PUBLIC_API = [
    "EstimationError",
    "FakingModel",
    "FitOptions",
    "FitResult",
    "FuzzyRatingMatrix",
    "ModelSpec",
    "MultiverseDistribution",
    "RatingMatrix",
    "ResponseTree",
    "SimDesign",
    "SimResult",
    "Tfn4",
    "category_probabilities",
    "convert",
    "convert_all",
    "fit",
    "fit_from_json",
    "fit_to_json",
    "generate_true_data",
    "intensification",
    "kaufmann_support",
    "laplace_marginal_loglik",
    "membership",
    "multiverse_moments",
    "pa_index",
    "parse_tree_spec",
    "perturb",
    "posterior_modes",
    "preset_tree",
    "replacement_distribution",
    "run_study",
    "standard_errors",
    "validate_tree",
    "williams_link",
]


def test_public_names_are_pinned():
    exported = sorted(
        name for name, value in vars(fuzzyirtree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == sorted(PUBLIC_API)


# Parameters of entry points whose unused knobs were removed; a knob that
# comes back has to change this table too.
PARAMETERS = [
    (fuzzyirtree.laplace_marginal_loglik, ["alpha", "sigma", "pseudo", "eta0"]),
    (fuzzy.kaufmann_support_table, ["c", "l", "r", "omega"]),
    (fuzzyirtree.kaufmann_support, ["f"]),
    (fuzzyirtree.validate_tree, ["tree"]),
    # a fit reports only through its FitResult: convert_all takes the tree
    # from the fit, and fit has no switch that issues its notes as warnings
    (fuzzyirtree.convert_all, ["fit", "ratings"]),
    (fuzzyirtree.fit, ["data", "spec", "options"]),
]


@pytest.mark.parametrize("func,names", PARAMETERS, ids=[f.__name__ for f, _ in PARAMETERS])
def test_trimmed_signatures_are_pinned(func, names):
    assert list(inspect.signature(func).parameters) == names


# The fuzzy matrix carries no tree digest, the tree no category labels and
# the fit options no start vector.
FIELDS = [
    (fuzzyirtree.FuzzyRatingMatrix, ["c", "l", "r", "omega", "clamped", "y"]),
    (fuzzyirtree.FitOptions, ["max_iter", "tol", "compute_se"]),
    (fuzzyirtree.ResponseTree, ["M", "N", "map", "node_labels"]),
]


@pytest.mark.parametrize("cls,names", FIELDS, ids=[c.__name__ for c, _ in FIELDS])
def test_dataclass_fields_are_pinned(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names
