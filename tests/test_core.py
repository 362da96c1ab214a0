"""Tests for the core robustification layer (transform, variants, registry)."""

import numpy as np
import pytest

from repro.core.recipes import ApplicationRecipe, get_recipe, list_applications, register_recipe
from repro.core.robustify import RobustApplication, robustify
from repro.core.transform import RobustSolveConfig, solve_penalized_lp_batch, to_penalty_form
from repro.core.variants import (
    get_variant,
    list_variants,
    sgd_options_for_variant,
    variant_uses_preconditioning,
)
from repro.core.verification import (
    assert_finite,
    is_doubly_stochastic,
    is_permutation_matrix,
    is_valid_sorted_output,
    relative_difference,
)
from repro.exceptions import ConvergenceError, ProblemSpecificationError
from repro.optimizers.penalty import ExactPenaltyProblem, PenaltyKind
from repro.optimizers.problem import LinearConstraints, LinearProgram
from repro.processor.stochastic import StochasticProcessor


class TestVariants:
    def test_all_paper_variants_registered(self):
        names = list_variants()
        for expected in ("SGD", "SGD+AS,LS", "SGD+AS,SQS", "PRECOND", "ANNEAL", "ALL"):
            assert expected in names

    def test_variant_lookup_case_insensitive(self):
        assert get_variant("anneal").annealing is True
        assert get_variant("ALL").precondition is True

    def test_unknown_variant_raises(self):
        with pytest.raises(ProblemSpecificationError):
            get_variant("SGD+XYZ")

    def test_options_reflect_variant(self):
        options = sgd_options_for_variant("SGD+AS,SQS", iterations=123, base_step=0.7)
        assert options.iterations == 123
        assert options.schedule == "sqs"
        assert options.aggressive is not None
        assert options.annealing is None
        options = sgd_options_for_variant("ANNEAL", iterations=10)
        assert options.annealing is not None
        assert options.aggressive is None

    def test_preconditioning_flag(self):
        assert variant_uses_preconditioning("PRECOND")
        assert not variant_uses_preconditioning("SGD,LS")


class TestTransform:
    def _lp(self):
        # minimize -x - y over the unit box
        return LinearProgram(
            c=np.array([-1.0, -1.0]),
            constraints=LinearConstraints(
                A_ub=np.vstack([np.eye(2), -np.eye(2)]),
                b_ub=np.array([1.0, 1.0, 0.0, 0.0]),
            ),
        )

    def test_to_penalty_form(self):
        penalized = to_penalty_form(self._lp(), penalty=5.0, kind=PenaltyKind.L1)
        assert isinstance(penalized, ExactPenaltyProblem)
        assert penalized.penalty == 5.0

    @pytest.mark.parametrize("variant", ["SGD,LS", "SGD+AS,SQS", "ANNEAL", "PRECOND"])
    def test_solve_penalized_lp_fault_free(self, variant):
        config = RobustSolveConfig(
            variant=variant, iterations=800, base_step=0.5, penalty=4.0,
            penalty_kind=PenaltyKind.L1,
        )
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        (solution,), (result,) = solve_penalized_lp_batch(self._lp(), [proc], config)
        np.testing.assert_allclose(solution, [1.0, 1.0], atol=0.15)
        assert result.iterations >= 800

    def test_config_sgd_options_round_trip(self):
        config = RobustSolveConfig(variant="ALL", iterations=50)
        options = config.sgd_options()
        assert options.momentum == 0.5
        assert options.aggressive is not None
        assert options.annealing is not None
        assert config.uses_preconditioning()


class TestVerification:
    def test_assert_finite(self):
        assert_finite(np.ones(3))
        with pytest.raises(ConvergenceError):
            assert_finite(np.array([1.0, np.nan]))

    def test_is_permutation_matrix(self):
        assert is_permutation_matrix(np.eye(3))
        assert is_permutation_matrix(np.array([[0, 1], [1, 0]]))
        assert not is_permutation_matrix(np.array([[1, 1], [0, 0]]))
        assert not is_permutation_matrix(np.full((2, 2), 0.5))
        assert not is_permutation_matrix(np.ones((2, 3)))
        assert not is_permutation_matrix(np.array([[np.nan, 1], [1, 0]]))

    def test_is_doubly_stochastic(self):
        assert is_doubly_stochastic(np.full((4, 4), 0.25))
        assert is_doubly_stochastic(np.eye(3))
        assert not is_doubly_stochastic(np.full((2, 2), 0.9))
        assert not is_doubly_stochastic(np.array([[-0.5, 0.5], [0.5, 0.5]]))

    def test_is_valid_sorted_output(self):
        original = np.array([3.0, 1.0, 2.0])
        assert is_valid_sorted_output(np.array([1.0, 2.0, 3.0]), original)
        assert not is_valid_sorted_output(np.array([1.0, 3.0, 2.0]), original)
        assert not is_valid_sorted_output(np.array([1.0, 2.0, 4.0]), original)
        assert not is_valid_sorted_output(np.array([1.0, np.nan, 3.0]), original)

    def test_relative_difference(self):
        assert relative_difference(np.ones(3), np.ones(3)) == 0.0
        assert relative_difference(np.array([np.inf]), np.ones(1)) == float("inf")
        with pytest.raises(ValueError):
            relative_difference(np.ones(2), np.ones(3))


class TestRegistry:
    def test_all_paper_applications_registered(self):
        names = list_applications()
        for expected in ("sorting", "matching", "least-squares", "iir", "maxflow", "shortest-path"):
            assert expected in names

    def test_unknown_application_raises(self):
        with pytest.raises(ProblemSpecificationError):
            get_recipe("fft")

    def test_register_custom_recipe(self):
        recipe = ApplicationRecipe(
            name="test-custom-app",
            module="repro.applications.least_squares",
            robust_function="robust_least_squares_sgd",
            baseline_function="baseline_least_squares",
            description="custom",
        )
        register_recipe(recipe, overwrite=True)
        assert get_recipe("test-custom-app").module.endswith("least_squares")
        with pytest.raises(ProblemSpecificationError):
            register_recipe(recipe)

    def test_robustify_returns_wrapper(self):
        app = robustify("sorting")
        assert isinstance(app, RobustApplication)
        assert app.name == "sorting"
        assert app.has_baseline
        assert "4.3" in app.description or "permutation" in app.description

    def test_robustify_end_to_end_sorting(self):
        from repro.applications.sorting import default_sorting_config

        app = robustify("sorting")
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        values = [4.0, 1.0, 3.0, 2.0, 5.0]
        result = app(values, proc, default_sorting_config(iterations=1500, values=values))
        assert result.success

    def test_robustify_baseline_call(self):
        app = robustify("sorting")
        proc = StochasticProcessor(fault_rate=0.0, rng=0)
        result = app.baseline([3.0, 1.0, 2.0], proc)
        assert result.success

    def test_recipe_without_baseline_raises(self):
        recipe = get_recipe("eigen")
        with pytest.raises(ProblemSpecificationError):
            recipe.load_baseline()
