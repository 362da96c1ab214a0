"""Mechanical conversion to penalty form and the shared LP solve pipeline.

Chapter 4 converts each application into a linearly constrained variational
form; Chapter 3 then converts that into an unconstrained exact-penalty
problem and minimizes it with stochastic gradient descent enhanced (per
§6.2) with preconditioning, momentum, step-size scaling, annealing and
aggressive stepping.  :func:`solve_penalized_lp_batch` implements that full
pipeline once, so every combinatorial application (sorting, matching,
max-flow, shortest paths) shares the same code path and the enhancement
ablation of Figure 6.5 can toggle each piece independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.base import OptimizationResult
from repro.optimizers.penalty import ExactPenaltyProblem, PenaltyKind
from repro.optimizers.preconditioning import QRPreconditioner
from repro.optimizers.problem import ConstrainedProblem, LinearProgram
from repro.optimizers.sgd import SGDOptions, stochastic_gradient_descent_batch
from repro.optimizers.step_schedules import AggressiveStepping
from repro.core.variants import get_variant, sgd_options_for_variant
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "RobustSolveConfig",
    "to_penalty_form",
    "solve_penalized_lp_batch",
]


def to_penalty_form(
    problem: ConstrainedProblem,
    penalty: float = 10.0,
    kind: PenaltyKind = PenaltyKind.QUADRATIC,
) -> ExactPenaltyProblem:
    """Convert a constrained problem to its unconstrained exact-penalty form.

    This is the Theorem 2 step of the methodology; the returned object can be
    handed directly to :func:`~repro.optimizers.sgd.stochastic_gradient_descent_batch`.
    """
    return ExactPenaltyProblem(problem, penalty=penalty, kind=kind)


@dataclass
class RobustSolveConfig:
    """Full configuration of a robust (penalized LP) solve.

    Combines the solver variant (which enhancements are active) with the
    workload-specific tuning knobs.  The defaults correspond to the "plain
    SGD" configuration used for the Figure 6.1–6.4 sweeps.

    Attributes
    ----------
    variant:
        Named solver variant (see :mod:`repro.core.variants`).
    iterations:
        Scheduled SGD iterations.
    base_step:
        η₀ of the step schedule.
    penalty:
        Initial exact-penalty parameter μ.
    penalty_kind:
        Quadratic (eq. 4.4) or L1 penalty.
    gradient_clip:
        Reliable-control-phase clip applied to noisy gradient components.
    annealing / aggressive:
        Concrete schedules used when the variant enables them.
    """

    variant: str = "SGD,LS"
    iterations: int = 1000
    base_step: float = 0.1
    penalty: float = 10.0
    penalty_kind: PenaltyKind = PenaltyKind.QUADRATIC
    gradient_clip: Optional[float] = 1.0e3
    annealing: PenaltyAnnealing = field(default_factory=PenaltyAnnealing)
    aggressive: AggressiveStepping = field(default_factory=AggressiveStepping)

    def sgd_options(self) -> SGDOptions:
        """The :class:`SGDOptions` implied by this configuration."""
        return sgd_options_for_variant(
            self.variant,
            iterations=self.iterations,
            base_step=self.base_step,
            gradient_clip=self.gradient_clip,
            annealing=self.annealing,
            aggressive=self.aggressive,
        )

    def uses_preconditioning(self) -> bool:
        """Whether the selected variant applies QR preconditioning."""
        return get_variant(self.variant).precondition


def solve_penalized_lp_batch(
    lp: LinearProgram,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    config: Optional[RobustSolveConfig] = None,
    x0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, List[OptimizationResult]]:
    """Solve a linear program robustly, once per stochastic processor.

    Pipeline: (optionally) QR-precondition the LP, convert it to the exact
    penalty form, run stochastic gradient descent with the variant's
    enhancements, and map each solution back to the original coordinates.
    The (deterministic, reliable) transformation steps are shared by the
    whole batch, and the stochastic solve runs through
    :func:`~repro.optimizers.sgd.stochastic_gradient_descent_batch`, which
    updates every trial's iterate in one batched numpy loop.  A single solve
    is a batch of one.

    Returns the stacked solutions (``(n_trials, dimension)``, original
    coordinates) and one :class:`~repro.optimizers.base.OptimizationResult`
    per trial, whose ``objective`` is reliably evaluated in the original
    coordinates.
    """
    config = config if config is not None else RobustSolveConfig()
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    preconditioner: Optional[QRPreconditioner] = None
    working_lp = lp
    initial = x0
    if config.uses_preconditioning():
        preconditioner = QRPreconditioner()
        working_lp = preconditioner.fit(lp)
        if x0 is not None:
            initial = preconditioner._R @ np.asarray(x0, dtype=np.float64)

    penalized = to_penalty_form(
        working_lp, penalty=config.penalty, kind=config.penalty_kind
    )
    results = stochastic_gradient_descent_batch(
        penalized, batch, options=config.sgd_options(), x0=initial
    )
    solutions: List[np.ndarray] = []
    original_penalized: Optional[ExactPenaltyProblem] = None
    for result in results:
        solution = result.x
        if preconditioner is not None:
            solution = preconditioner.recover(solution)
            result.x = solution
            if original_penalized is None:
                original_penalized = to_penalty_form(
                    lp, penalty=penalized.penalty, kind=config.penalty_kind
                )
            result.objective = float(original_penalized.value(solution))
        solutions.append(solution)
    return np.stack(solutions), results
