"""Tests for the combinatorial applications: sorting, matching, max-flow, APSP."""

import numpy as np
import pytest

from repro.applications.matching import (
    baseline_matching,
    default_matching_config,
    matching_linear_program,
    matching_margin,
    optimal_matching,
    robust_matching,
    round_to_matching,
)
from repro.applications.maxflow import (
    baseline_max_flow,
    default_maxflow_config,
    exact_max_flow,
    maxflow_linear_program,
    robust_max_flow,
)
from repro.applications.shortest_path import (
    apsp_linear_program,
    baseline_all_pairs_shortest_path,
    exact_all_pairs_shortest_path,
    robust_all_pairs_shortest_path,
)
from repro.applications.sorting import (
    baseline_sort,
    default_sorting_config,
    robust_sort,
    robust_sort_batch,
    round_to_permutation,
    sorting_linear_program,
)
from repro.exceptions import ProblemSpecificationError
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import (
    random_array,
    random_bipartite_graph,
    random_flow_network,
    random_weighted_graph,
)
from repro.workloads.graphs import BipartiteGraph, FlowNetwork, WeightedGraph


def reliable():
    return StochasticProcessor(fault_rate=0.0, rng=0)


class TestSortingLP:
    def test_lp_shapes(self):
        lp = sorting_linear_program(np.array([3.0, 1.0, 2.0]))
        assert lp.c.shape == (9,)
        assert lp.constraints.A_ub.shape == (9 + 3 + 3, 9)
        assert lp.constraints.is_feasible(lp.initial_point())

    def test_lp_optimum_is_sorting_permutation(self):
        u = np.array([3.0, 1.0, 2.0])
        lp = sorting_linear_program(u)
        # Evaluate the LP objective at every permutation matrix; the sorting
        # permutation must be the unique minimizer.
        import itertools

        best_perm, best_value = None, np.inf
        for perm in itertools.permutations(range(3)):
            X = np.zeros((3, 3))
            for row, col in enumerate(perm):
                X[row, col] = 1.0
            value = float(lp.c @ X.ravel())
            if value < best_value:
                best_perm, best_value = X, value
        np.testing.assert_allclose(np.sort(u), best_perm @ u)

    def test_too_small_array_rejected(self):
        with pytest.raises(ProblemSpecificationError):
            sorting_linear_program(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        """A NaN/inf input is a typed error, not an all-NaN failed sort."""
        values = np.array([1.0, bad, 2.0])
        with pytest.raises(ProblemSpecificationError, match="finite"):
            sorting_linear_program(values)
        with pytest.raises(ProblemSpecificationError, match="finite"):
            robust_sort_batch(values, [reliable()])
        with pytest.raises(ProblemSpecificationError, match="finite"):
            robust_sort(values, reliable())

    def test_round_to_permutation(self):
        X = np.array([[0.1, 0.8], [0.7, 0.2]])
        P = round_to_permutation(X)
        np.testing.assert_allclose(P, [[0, 1], [1, 0]])
        with pytest.raises(ProblemSpecificationError):
            round_to_permutation(np.ones((2, 3)))

    def test_round_handles_nan(self):
        X = np.array([[np.nan, 0.8], [0.7, np.nan]])
        P = round_to_permutation(X)
        assert P.sum() == 2.0


class TestRobustSorting:
    def test_fault_free_success(self):
        values = random_array(5, rng=3, min_gap=0.08)
        config = default_sorting_config(iterations=1500, values=values)
        result = robust_sort(values, reliable(), config)
        assert result.success
        np.testing.assert_allclose(result.output, np.sort(values))

    def test_under_moderate_faults(self):
        values = random_array(5, rng=3, min_gap=0.08)
        successes = 0
        for seed in range(3):
            proc = StochasticProcessor(fault_rate=0.05, rng=seed)
            config = default_sorting_config(iterations=2000, values=values)
            successes += robust_sort(values, proc, config).success
        assert successes >= 2

    @pytest.mark.parametrize("algorithm", ["quicksort", "mergesort", "insertion"])
    def test_baseline_fault_free(self, algorithm):
        values = random_array(6, rng=4)
        result = baseline_sort(values, reliable(), algorithm=algorithm)
        assert result.success

    def test_baseline_unknown_algorithm(self):
        with pytest.raises(ProblemSpecificationError):
            baseline_sort(np.array([2.0, 1.0]), reliable(), algorithm="bogo")

    def test_baseline_degrades_under_faults(self):
        values = random_array(8, rng=5)
        successes = 0
        for seed in range(6):
            proc = StochasticProcessor(fault_rate=0.3, rng=seed)
            successes += baseline_sort(values, proc).success
        assert successes < 6


class TestMatching:
    def _graph(self):
        return random_bipartite_graph(5, 6, 30, rng=42)

    def test_lp_shapes(self):
        graph = self._graph()
        lp = matching_linear_program(graph)
        assert lp.c.shape == (30,)
        assert lp.constraints.A_ub.shape == (30 + 11, 30)

    def test_optimal_matching_is_valid(self):
        graph = self._graph()
        edges, weight = optimal_matching(graph)
        lefts = [u for u, _ in edges]
        rights = [v for _, v in edges]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        assert weight > 0

    def test_matching_margin_positive(self):
        assert matching_margin(self._graph()) > 0

    def test_round_to_matching_recovers_indicator(self):
        graph = self._graph()
        opt_edges, _ = optimal_matching(graph)
        x = np.array([1.0 if e in opt_edges else 0.0 for e in graph.edges])
        assert round_to_matching(graph, x) == opt_edges

    def test_robust_matching_fault_free(self):
        graph = self._graph()
        config = default_matching_config(iterations=3000, variant="SGD,SQS", graph=graph)
        result = robust_matching(graph, reliable(), config)
        assert result.success
        assert result.weight == pytest.approx(result.optimal_weight)

    def test_robust_matching_under_faults(self):
        graph = self._graph()
        successes = 0
        for seed in range(2):
            proc = StochasticProcessor(fault_rate=0.2, rng=seed)
            config = default_matching_config(iterations=4000, variant="SGD,SQS", graph=graph)
            successes += robust_matching(graph, proc, config).success
        assert successes >= 1

    def test_baseline_matching_fault_free(self):
        graph = self._graph()
        result = baseline_matching(graph, reliable())
        assert result.success

    def test_empty_graph_rejected(self):
        with pytest.raises(ProblemSpecificationError):
            matching_linear_program(
                BipartiteGraph(1, 1, edges=(), weights=())
            )


class TestMaxFlow:
    def _network(self):
        return random_flow_network(6, 12, rng=8)

    def test_lp_shapes(self):
        network = self._network()
        lp = maxflow_linear_program(network)
        assert lp.c.shape == (network.n_edges,)
        assert lp.constraints.n_equalities == network.n_nodes - 2

    def test_exact_max_flow_simple_chain(self):
        network = FlowNetwork(3, edges=((0, 1), (1, 2)), capacities=(2.0, 5.0), source=0, sink=2)
        assert exact_max_flow(network) == pytest.approx(2.0)

    def test_robust_max_flow_fault_free(self):
        network = self._network()
        config = default_maxflow_config(iterations=4000, variant="SGD,SQS", network=network)
        result = robust_max_flow(network, reliable(), config)
        assert result.relative_error < 0.35
        assert result.flow.shape == (network.n_edges,)

    def test_baseline_max_flow_fault_free_exact(self):
        network = self._network()
        result = baseline_max_flow(network, reliable())
        # Exact up to the float32 datapath round-off of the residual updates.
        assert result.relative_error < 1e-4
        assert result.feasible

    def test_baseline_max_flow_under_faults_degrades(self):
        network = self._network()
        errors = []
        for seed in range(3):
            proc = StochasticProcessor(fault_rate=0.2, rng=seed)
            errors.append(baseline_max_flow(network, proc).relative_error)
        assert max(errors) > 1e-3


class TestShortestPath:
    def _graph(self):
        return random_weighted_graph(5, 12, rng=9)

    def test_lp_shapes(self):
        graph = self._graph()
        lp = apsp_linear_program(graph)
        assert lp.c.shape == (25,)
        assert lp.constraints.n_equalities == 5
        assert lp.constraints.n_inequalities == 5 * graph.n_edges

    def test_exact_apsp_matches_networkx_style_check(self):
        graph = WeightedGraph(3, edges=((0, 1), (1, 2), (0, 2)), lengths=(1.0, 1.0, 5.0))
        D = exact_all_pairs_shortest_path(graph)
        assert D[0, 2] == pytest.approx(2.0)
        assert D[0, 1] == pytest.approx(1.0)

    def test_baseline_floyd_warshall_fault_free_exact(self):
        graph = self._graph()
        result = baseline_all_pairs_shortest_path(graph, reliable())
        assert result.success
        # Exact up to the float32 datapath round-off of the relaxations.
        assert result.mean_relative_error < 1e-5

    def test_robust_apsp_fault_free_reasonable(self):
        graph = self._graph()
        from repro.applications.shortest_path import default_apsp_config

        config = default_apsp_config(iterations=4000, variant="SGD,SQS", graph=graph)
        result = robust_all_pairs_shortest_path(graph, reliable(), config, success_tolerance=0.35)
        assert result.mean_relative_error < 0.35

    def test_baseline_under_faults_degrades(self):
        graph = self._graph()
        errors = []
        for seed in range(3):
            proc = StochasticProcessor(fault_rate=0.2, rng=seed)
            errors.append(baseline_all_pairs_shortest_path(graph, proc).mean_relative_error)
        assert max(errors) > 1e-3
