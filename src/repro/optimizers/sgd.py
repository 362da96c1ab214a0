"""Stochastic (sub)gradient descent with the paper's enhancements.

This is the primary optimization engine of application robustification
(eq. 3.1): the iterate is updated with a noisy gradient evaluated on the
stochastic processor, while the update itself — step-size computation,
momentum smoothing, penalty annealing, aggressive-stepping accept/reject
tests — runs reliably, matching the paper's assumption that "the remaining
operations ... are assumed to be carried out reliably as they are critical
for convergence".

Reliable-update safeguards
--------------------------
Under the default (mantissa + sign) fault model gradient corruption is
relative-bounded and plain SGD absorbs it.  For ablation fault models that
also corrupt exponent bits, a single flip can turn a gradient component into
``±1e38`` or NaN; no descent method survives applying such a component
verbatim.  The reliable update step therefore optionally (a) zeroes
non-finite gradient components, (b) rejects per-component outliers relative
to the gradient's median magnitude, and (c) clips components to a
problem-supplied magnitude (``gradient_clip``).  These are cheap scalar
checks that belong to the protected control phase; they are this library's
concrete realization of the paper's "control phases of execution are assumed
to be error-free" assumption, and tests cover each behaviour.

The stepper's noisy work all flows through
:meth:`~repro.processor.batch.ProcessorBatch.corrupt`, so it picks up
whichever compute backend (:mod:`repro.backends`) the batch resolved at
construction — no backend-specific code lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.base import OptimizationResult, stack_initial_iterates
from repro.optimizers.momentum import MomentumSmoother
from repro.optimizers.step_schedules import (
    AggressiveStepping,
    StepSchedule,
    make_schedule,
)
from repro.processor.batch import ProcessorBatch

__all__ = [
    "SGDOptions",
    "stochastic_gradient_descent_batch",
]


@dataclass
class SGDOptions:
    """Configuration of a stochastic gradient descent run.

    Attributes
    ----------
    iterations:
        Number of scheduled iterations (the paper uses 1,000 for least
        squares / IIR and 10,000 for sorting / matching).
    schedule:
        Step-size schedule: a :class:`StepSchedule` or one of the names
        ``"ls"`` (1/t), ``"sqs"`` (1/√t), ``"const"``.
    base_step:
        η₀ used when ``schedule`` is given by name.
    momentum:
        Momentum coefficient β in (0, 1]; ``None`` disables momentum.
    aggressive:
        Optional aggressive-stepping phase appended after the scheduled
        iterations (the paper's "SGD+AS").
    annealing:
        Optional penalty-annealing schedule; only meaningful when the problem
        exposes a mutable ``penalty`` attribute (i.e. is an
        :class:`~repro.optimizers.penalty.ExactPenaltyProblem`).
    gradient_clip:
        Clip noisy gradient components to ``[-gradient_clip, +gradient_clip]``
        during the reliable update.  ``None`` disables clipping.
    outlier_rejection:
        Zero gradient components whose magnitude exceeds
        ``outlier_rejection × median(|gradient|)`` during the reliable update.
        This is the scale-free guard against exponent-bit flips: as the
        iterate converges and the true gradient shrinks, a corrupted huge
        component is still recognized and discarded.  ``None`` disables it.
    zero_nonfinite:
        Zero NaN/inf gradient components during the reliable update.
    """

    iterations: int = 1000
    schedule: Union[StepSchedule, str] = "ls"
    base_step: float = 1.0
    momentum: Optional[float] = None
    aggressive: Optional[AggressiveStepping] = None
    annealing: Optional[PenaltyAnnealing] = None
    gradient_clip: Optional[float] = None
    outlier_rejection: Optional[float] = None
    zero_nonfinite: bool = True

    def resolved_schedule(self) -> StepSchedule:
        """The step schedule as an object (building it from a name if needed)."""
        if isinstance(self.schedule, StepSchedule):
            return self.schedule
        return make_schedule(self.schedule, base_step=self.base_step)

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ProblemSpecificationError("iterations must be at least 1")
        if self.gradient_clip is not None and self.gradient_clip <= 0:
            raise ProblemSpecificationError("gradient_clip must be positive")
        if self.outlier_rejection is not None and self.outlier_rejection <= 1:
            raise ProblemSpecificationError("outlier_rejection must exceed 1")


def _sanitize_gradient_rows(gradients: np.ndarray, options: SGDOptions) -> np.ndarray:
    """Reliable-control-phase guards applied row-wise to stacked noisy gradients."""
    cleaned = np.asarray(gradients, dtype=np.float64)
    if options.zero_nonfinite:
        cleaned = np.where(np.isfinite(cleaned), cleaned, 0.0)
    if options.outlier_rejection is not None and cleaned.shape[1] > 2:
        magnitudes = np.abs(cleaned)
        scales = np.median(magnitudes, axis=1, keepdims=True)
        cleaned = np.where(
            (scales > 0.0) & (magnitudes > options.outlier_rejection * scales),
            0.0,
            cleaned,
        )
    if options.gradient_clip is not None:
        cleaned = np.clip(cleaned, -options.gradient_clip, options.gradient_clip)
    return cleaned


def stochastic_gradient_descent_batch(
    problem,
    batch: ProcessorBatch,
    options: Optional[SGDOptions] = None,
    x0: Optional[np.ndarray] = None,
) -> List[OptimizationResult]:
    """Minimize ``problem`` once per processor of ``batch`` as one tensor loop.

    The scheduled iterations update a stacked ``(n_trials, dimension)``
    iterate with one batched noisy gradient evaluation per iteration
    (``problem.gradient_batch``), so an entire executor trial batch costs a
    handful of numpy passes per iteration instead of per trial.  Trial
    ``t``'s result does not depend on the other rows: row arithmetic is
    elementwise, the step schedule depends only on the iteration number, and
    every corruption draw comes from trial ``t``'s own generator.  A single
    solve is therefore a batch of one.

    The aggressive-stepping phase, whose accept/reject control flow is
    data-dependent, continues from each trial's row as a masked batch over
    the trials that are still active (:func:`_aggressive_phase_batch`).

    Parameters
    ----------
    problem:
        Any object exposing ``dimension``, ``initial_point()``, the exact
        ``value(x)`` and the noisy ``gradient_batch(X, batch)`` with
        ``has_batch_gradient`` true — i.e. an
        :class:`~repro.optimizers.problem.UnconstrainedProblem` or an
        :class:`~repro.optimizers.penalty.ExactPenaltyProblem` built with a
        batched gradient.
    batch:
        The per-trial processors, wrapped in a
        :class:`~repro.processor.batch.ProcessorBatch`.
    options:
        Solver configuration (:class:`SGDOptions`).
    x0:
        ``None`` (the problem's initial point), one ``(dimension,)`` iterate
        shared by every trial, or a stacked ``(n_trials, dimension)`` array
        giving each trial its own starting iterate (e.g. a per-trial noisy
        initialization).

    Returns
    -------
    list[OptimizationResult]
        One result per processor, in batch order: final iterate, reliably
        evaluated objective, and accounting data.
    """
    if not getattr(problem, "has_batch_gradient", False):
        raise ProblemSpecificationError(
            f"problem {getattr(problem, 'name', '')!r} has no batched noisy "
            "gradient (gradient_batch) to run stochastic gradient descent on"
        )
    options = options if options is not None else SGDOptions()
    n_trials = len(batch)
    X = stack_initial_iterates(x0, n_trials, problem.dimension, problem.initial_point)
    schedule = options.resolved_schedule()
    smoother = MomentumSmoother(options.momentum) if options.momentum else None

    batch.flush()  # counters must be current before the baseline read
    flops_before = [proc.flops for proc in batch.procs]
    faults_before = [proc.faults_injected for proc in batch.procs]
    step = schedule(1)

    annealing_active = options.annealing is not None and hasattr(problem, "penalty")
    for iteration in range(1, options.iterations + 1):
        if annealing_active:
            problem.penalty = options.annealing.penalty_at(iteration)
        gradients = problem.gradient_batch(X, batch)
        gradients = _sanitize_gradient_rows(gradients, options)
        directions = smoother.update(gradients) if smoother is not None else gradients
        if annealing_active:
            # Each annealing stage is solved as its own (warm-started)
            # sub-problem: the schedule restarts at every penalty increase and
            # the step is scaled by 1/μ because the penalty Hessian grows
            # linearly with μ.  The distance between successive stage optima
            # shrinks at the same 1/μ rate, so the solver keeps tracking the
            # vertex as the penalty tightens (§6.2.4).
            stage_iteration = (iteration - 1) % options.annealing.period + 1
            step = schedule(stage_iteration) * (
                options.annealing.initial_penalty / problem.penalty
            )
        else:
            step = schedule(iteration)
        X = X - step * directions
    batch.flush()  # deferred batched accounting -> per-processor counters

    iterates = [X[trial] for trial in range(n_trials)]
    iteration_counts = [options.iterations] * n_trials
    messages = ["completed scheduled iterations"] * n_trials

    if options.aggressive is not None:
        # With momentum, the smoother has accumulated a (n_trials, dim)
        # direction over the scheduled phase (iterations >= 1); each trial's
        # aggressive phase continues from its row.
        directions = smoother.direction if smoother is not None else None
        iterates, extras, messages = _aggressive_phase_batch(
            problem, batch, X, step, options, directions
        )
        iteration_counts = [
            count + extra for count, extra in zip(iteration_counts, extras)
        ]

    return [
        OptimizationResult(
            x=iterates[trial],
            objective=float(problem.value(iterates[trial])),
            iterations=iteration_counts[trial],
            converged=True,
            flops=batch.procs[trial].flops - flops_before[trial],
            faults_injected=batch.procs[trial].faults_injected - faults_before[trial],
            message=messages[trial],
        )
        for trial in range(n_trials)
    ]


def _aggressive_phase_batch(
    problem,
    batch: ProcessorBatch,
    X: np.ndarray,
    initial_step: float,
    options: SGDOptions,
    directions: Optional[np.ndarray],
):
    """The variable-step phase appended by "SGD+AS" (§3.2), as a masked batch.

    Per trial, moves that decrease the (reliably evaluated) cost are accepted
    and the step grows; moves that increase it are rejected and the step
    shrinks.  A trial's phase ends when the relative change between
    consecutive accepted costs falls below the configured threshold, when
    its step underflows, or when the iteration cap is hit.

    The accept/reject control flow is per trial, but the expensive part —
    the noisy gradient — is evaluated for all still-active trials as one
    batched call per round, on a sub-batch narrowed to those trials so that
    each generator is consumed only by its own trial's rounds.

    ``directions`` carries the momentum state accumulated over the scheduled
    phase (``None`` when momentum is off).  Returns per-trial final iterates,
    iteration counts, and termination messages.
    """
    aggressive = options.aggressive
    n_trials = len(batch)
    tiny = np.finfo(float).tiny
    steps = np.full(n_trials, max(initial_step, tiny))
    iterates = [X[trial].copy() for trial in range(n_trials)]
    current_costs = [float(problem.value(x)) for x in iterates]
    iterations_used = [0] * n_trials
    messages = ["aggressive stepping reached its iteration cap"] * n_trials
    active = np.ones(n_trials, dtype=bool)
    momentum = options.momentum if directions is not None else None
    directions = directions.copy() if directions is not None else None

    sub_batch = batch
    sub_index: Tuple[int, ...] = tuple(range(n_trials))
    for _ in range(aggressive.max_iterations):
        index = np.flatnonzero(active)
        if index.size == 0:
            break
        key = tuple(int(t) for t in index)
        if key != sub_index:
            sub_batch.flush()  # hand pending accounting over before narrowing
            sub_batch = ProcessorBatch([batch.procs[t] for t in key])
            sub_index = key
        X_active = np.stack([iterates[t] for t in key])
        gradients = _sanitize_gradient_rows(
            problem.gradient_batch(X_active, sub_batch), options
        )
        if momentum is not None:
            directions[index] = (
                momentum * gradients + (1.0 - momentum) * directions[index]
            )
            move = directions[index]
        else:
            move = gradients
        candidates = X_active - steps[index, np.newaxis] * move
        for row, trial in enumerate(key):
            iterations_used[trial] += 1
            candidate_cost = float(problem.value(candidates[row]))
            if np.isfinite(candidate_cost) and candidate_cost < current_costs[trial]:
                if aggressive.should_stop(current_costs[trial], candidate_cost):
                    iterates[trial] = candidates[row]
                    current_costs[trial] = candidate_cost
                    messages[trial] = "aggressive stepping converged"
                    active[trial] = False
                    continue
                iterates[trial] = candidates[row]
                current_costs[trial] = candidate_cost
                steps[trial] = aggressive.update_step(steps[trial], cost_decreased=True)
            else:
                steps[trial] = aggressive.update_step(steps[trial], cost_decreased=False)
                if steps[trial] < tiny:
                    messages[trial] = "aggressive stepping step size underflowed"
                    active[trial] = False
    sub_batch.flush()
    return iterates, iterations_used, messages
