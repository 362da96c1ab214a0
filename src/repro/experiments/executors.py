"""Pluggable executors for expanded sweep plans.

Every executor consumes a :class:`~repro.experiments.spec.SweepSpec` plus its
expanded :class:`~repro.experiments.spec.TrialSpec` list and produces one
metric value per spec, in spec order.  Because each trial seeds itself from
its own coordinates (see :meth:`TrialSpec.make_stream`), all executors return
bit-identical results for the same plan:

``serial``
    The reference executor: one trial at a time, in plan order.
``vectorized``
    The tensorized trial backend (:mod:`repro.experiments.tensor`): one batch
    per (series, scenario), spanning the entire (fault-rate × trials) grid,
    so a whole sweep cell advances as a single stacked numpy computation.
    Series without a batch implementation fall back to per-trial execution.
``auto``
    Picks the fast path per plan: ``vectorized`` when any series declares a
    batch implementation, the serial reference otherwise.

Parallelism lives one layer up: the campaign scheduler's ``process`` pool
(:mod:`repro.experiments.campaign.scheduler`) runs whole shards in forked
workers, each through one of these executors.

Batch capability is a property of the trial function alone, and the
application-kernel registry (:mod:`repro.experiments.kernels`) is the single
place it is declared (:func:`~repro.experiments.kernels.batchable`) and
inspected (:func:`~repro.experiments.kernels.batch_implementation`,
:func:`~repro.experiments.kernels.batchable_series`); executors route through
those helpers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.kernels import (
    batch_implementation,
    batchable,
    batchable_series,
)
from repro.experiments.spec import SweepSpec, TrialSpec, run_trial

__all__ = [
    "EmitFunction",
    "Executor",
    "SerialExecutor",
    "VectorizedExecutor",
    "AutoExecutor",
    "batchable",
    "get_executor",
    "list_executors",
]

#: Callback invoked as each trial completes: ``emit(spec_index, value)``.
EmitFunction = Callable[[int, float], None]


class Executor:
    """Base class: execute an expanded plan, streaming per-trial results."""

    name = "abstract"

    def run(
        self,
        sweep: SweepSpec,
        specs: Sequence[TrialSpec],
        emit: Optional[EmitFunction] = None,
    ) -> List[float]:
        """Execute every spec and return values aligned with ``specs``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """The reference executor: trials run one at a time, in plan order."""

    name = "serial"

    def run(
        self,
        sweep: SweepSpec,
        specs: Sequence[TrialSpec],
        emit: Optional[EmitFunction] = None,
    ) -> List[float]:
        values: List[float] = []
        for index, spec in enumerate(specs):
            value = run_trial(sweep, spec)
            values.append(value)
            if emit is not None:
                emit(index, value)
        return values


class VectorizedExecutor(Executor):
    """The tensorized executor: one batch per (series, scenario), all rates.

    For a series whose trial function declares a batch implementation
    (:func:`~repro.experiments.kernels.batch_implementation`), the entire
    (fault-rate × trials) grid becomes one
    :func:`repro.experiments.tensor.run_tensor_cell` call — a single stacked
    numpy computation over a
    :class:`~repro.processor.batch.ProcessorBatch` whose rows carry their own
    fault rates.  A scenario grid runs one such tensorized sub-batch per
    scenario (a batch must share one datapath dtype and bit distribution).
    Series without a batch implementation run per-trial, identically to the
    serial executor.
    """

    name = "vectorized"

    def run(
        self,
        sweep: SweepSpec,
        specs: Sequence[TrialSpec],
        emit: Optional[EmitFunction] = None,
    ) -> List[float]:
        from repro.experiments.tensor import run_tensor_cell

        # One batch per (series, scenario): a scenario grid is executed as
        # one tensorized sub-batch per scenario, since dtype, bit
        # distribution, and voltage may vary across scenarios.  Single-axis
        # sweeps (scenario_index None) keep their one-batch-per-series shape.
        series_groups: Dict[Tuple, List[Tuple[int, TrialSpec]]] = {}
        for index, spec in enumerate(specs):
            group_key = (spec.series_index, spec.scenario_index)
            series_groups.setdefault(group_key, []).append((index, spec))
        values: List[Optional[float]] = [None] * len(specs)
        for group in series_groups.values():
            function = sweep.trial_functions[group[0][1].series_name]
            if batch_implementation(function) is None or len(group) == 1:
                for index, spec in group:
                    values[index] = run_trial(sweep, spec)
                    if emit is not None:
                        emit(index, values[index])
                continue
            batch_values = run_tensor_cell(sweep, [spec for _, spec in group])
            for (index, _), value in zip(group, batch_values):
                values[index] = value
                if emit is not None:
                    emit(index, value)
        return values  # type: ignore[return-value]


class AutoExecutor(Executor):
    """Plan-adaptive executor: the engine's "pick the fast path for me" option.

    Delegates to :class:`VectorizedExecutor` when the registry capability
    probe (:func:`~repro.experiments.kernels.batchable_series`) finds any
    batch-capable series in the plan, and to the :class:`SerialExecutor`
    reference otherwise.  Either way the results are bit-identical; only
    throughput changes.
    """

    name = "auto"

    def run(
        self,
        sweep: SweepSpec,
        specs: Sequence[TrialSpec],
        emit: Optional[EmitFunction] = None,
    ) -> List[float]:
        if batchable_series(sweep):
            return VectorizedExecutor().run(sweep, specs, emit)
        return SerialExecutor().run(sweep, specs, emit)


_EXECUTORS: Dict[str, Callable[[], Executor]] = {
    "serial": SerialExecutor,
    "vectorized": VectorizedExecutor,
    "auto": AutoExecutor,
}


def get_executor(name: str) -> Executor:
    """Build an executor by registry name (see :func:`list_executors`)."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available: {list_executors()}"
        ) from None
    return factory()


def list_executors() -> List[str]:
    """Names of the available executors."""
    return sorted(_EXECUTORS)
