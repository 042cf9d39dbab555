"""Convert crisp Likert-type ratings into four-parameter triangular fuzzy
numbers by fitting binary response-tree models."""

from .estimation import (EstimationError, FitOptions, FitResult, ModelSpec,
                         RatingMatrix, fit, fit_from_json, fit_to_json,
                         laplace_marginal_loglik, posterior_modes, standard_errors)
from .fuzzy import (FuzzyRatingMatrix, MultiverseDistribution, Tfn4, convert,
                    convert_all, intensification, kaufmann_support, membership,
                    multiverse_moments, williams_link)
from .simulation import (FakingModel, SimDesign, SimResult, generate_true_data,
                         pa_index, perturb, replacement_distribution, run_study)
from .tree import (ResponseTree, category_probabilities, parse_tree_spec, preset_tree,
                   validate_tree)

__version__ = "0.1.0"
