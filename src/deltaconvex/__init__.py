"""Delta-convex regularization of Lipschitz functions on finite-dimensional
l_p spaces, with dyadic-tree adversaries certifying approximation limits."""

from .spaces import (NormedSpace, ModulusEstimate, DimensionMismatchError,
                     analytic_modulus_lower, analytic_power_constant,
                     modulus_of_convexity)
from .functions import (LipschitzFunction, PointSet, CORPUS_LABELS,
                        distance_function, make_corpus, corpus_function)
from .regularize import (ParameterError, SolverError, SolverConfig,
                         RegularizationResult, ConvexPair, regularize_power,
                         regularize_power_grid, regularize_quadratic,
                         inf_convolve, inf_convolve_grid, inner_minimize,
                         decompose, ball_grid, rate_bound)
from .trees import (DyadicTree, TreeFamily, TreeValidation, WalkLevel,
                    WalkReport, build_sign_tree, build_tree_family,
                    validate_tree, counterexample_function,
                    adversarial_branch_walk, SolverEvalError,
                    error_lower_bound, save_tree, load_tree)
from .experiments import (ConfigError, ExperimentConfig, ResultRow,
                          ExperimentResult, run_converge, run_sandwich,
                          run_adversary, run_modulus, convex_pair_catalog)

__version__ = "0.1.0"
