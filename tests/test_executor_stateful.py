"""Stateful property suite for the executor bit-identity contract.

Randomly grown sweep specifications — series sets mixing batchable and
serial-only trial functions, fault-rate grids, trial counts, seeds, and
optional scenario axes (including a mixed-dtype grid that forces the
vectorized tier's per-dtype sub-batching) — are executed under the ``serial``
reference and the ``vectorized`` tier, and both must produce bit-identical
series.  This is the invariant the perf-trajectory gate's
``bit_identical`` field records and the aggressive engine refactors on the
roadmap must preserve; the state machine hunts for the spec *shapes* (empty
grids, single trials, scenario/dtype mixes) where a tier could silently
diverge, rather than checking one hand-picked spec per test.  The spec axes
are drawn from the shared ``tests.strategies`` package.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.experiments.runner import run_fault_rate_sweep, run_scenario_grid
from tests.strategies import (
    SERIES_POOL,
    fault_rate_grids,
    scenario_axes,
    seeds,
    trial_counts,
)

EXECUTORS = ("serial", "vectorized")


class ExecutorEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.series = {}
        self.fault_rates = (0.05, 0.2)
        self.trials = 2
        self.seed = 0
        self.scenarios = None

    @rule(name=st.sampled_from(sorted(SERIES_POOL)))
    def add_series(self, name):
        if len(self.series) < 3 or name in self.series:
            self.series[name] = SERIES_POOL[name]()

    @rule(rates=fault_rate_grids())
    def set_rates(self, rates):
        self.fault_rates = rates

    @rule(trials=trial_counts())
    def set_trials(self, trials):
        self.trials = trials

    @rule(seed=seeds())
    def set_seed(self, seed):
        self.seed = seed

    @rule(axis=scenario_axes())
    def set_scenarios(self, axis):
        self.scenarios = axis

    @precondition(lambda self: self.series)
    @rule()
    def executors_agree(self):
        results = {}
        for executor in EXECUTORS:
            if self.scenarios is None:
                series = run_fault_rate_sweep(
                    self.series,
                    fault_rates=self.fault_rates,
                    trials=self.trials,
                    seed=self.seed,
                    engine=executor,
                )
            else:
                series = run_scenario_grid(
                    self.series,
                    self.scenarios,
                    fault_rates=self.fault_rates,
                    trials=self.trials,
                    seed=self.seed,
                    engine=executor,
                )
            results[executor] = [(s.name, s.fault_rates, s.values) for s in series]
        for executor in EXECUTORS[1:]:
            assert results[executor] == results["serial"], (
                f"{executor} diverged from serial on spec: "
                f"series={sorted(self.series)}, rates={self.fault_rates}, "
                f"trials={self.trials}, seed={self.seed}, "
                f"scenarios={self.scenarios}"
            )


TestExecutorEquivalence = ExecutorEquivalenceMachine.TestCase
TestExecutorEquivalence.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None
)
