"""The robustification methodology (the paper's primary contribution).

The core package ties the pieces together:

* :mod:`repro.core.transform` — mechanical conversion of a constrained
  variational form into its unconstrained exact-penalty form and the shared
  "penalized linear program" solve pipeline with the §6.2 enhancements
  (preconditioning, momentum, step-size scaling, annealing).
* :mod:`repro.core.variants` — the named solver variants that appear in the
  figures ("SGD", "SGD+AS,LS", "SGD+AS,SQS", "PRECOND", "ANNEAL", "ALL", ...).
* :mod:`repro.core.robustify` — the public ``robustify()`` entry point that
  returns a robust, stochastic-optimization-based implementation of a named
  application.
* :mod:`repro.core.recipes` — the registry mapping application names to their
  transformation recipes.
* :mod:`repro.core.verification` — reliable control-phase validation of
  solver outputs.
"""

from repro.core.transform import RobustSolveConfig, solve_penalized_lp_batch, to_penalty_form
from repro.core.variants import (
    VariantSpec,
    get_variant,
    list_variants,
    sgd_options_for_variant,
)
from repro.core.robustify import RobustApplication, robustify
from repro.core.recipes import list_applications
from repro.core.verification import (
    assert_finite,
    is_permutation_matrix,
    is_valid_sorted_output,
)

__all__ = [
    "RobustSolveConfig",
    "solve_penalized_lp_batch",
    "to_penalty_form",
    "VariantSpec",
    "get_variant",
    "list_variants",
    "sgd_options_for_variant",
    "RobustApplication",
    "robustify",
    "list_applications",
    "assert_finite",
    "is_permutation_matrix",
    "is_valid_sorted_output",
]
