import types

import fuzzyirtree

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
    "kaufmann_index",
    "kaufmann_of",
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
    "run_cell",
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
