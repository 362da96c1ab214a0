"""Stochastic optimization engines (Chapter 3 of the paper).

This subpackage is the computational back-end of application robustification:

* :mod:`repro.optimizers.problem` — unconstrained and linearly constrained
  problem descriptions (the variational forms of Chapter 4).
* :mod:`repro.optimizers.penalty` — the exact-penalty transformation of
  Theorem 2 that converts constrained problems to unconstrained ones.
* :mod:`repro.optimizers.step_schedules` — 1/t, 1/√t, and constant step-size
  schedules plus the aggressive-stepping controller (§3.2).
* :mod:`repro.optimizers.sgd` — stochastic (sub)gradient descent with
  momentum, preconditioning hooks, annealing, and aggressive stepping.
* :mod:`repro.optimizers.conjugate_gradient` — the restarted conjugate
  gradient solver used for least squares (§3.3, Figures 6.6/6.7).
* :mod:`repro.optimizers.preconditioning` — QR-based preconditioning (§6.2.1).
* :mod:`repro.optimizers.annealing` — penalty-parameter annealing (§6.2.4).
"""

from repro.optimizers.base import OptimizationResult
from repro.optimizers.problem import (
    UnconstrainedProblem,
    LinearConstraints,
    ConstrainedProblem,
    QuadraticProblem,
    LinearProgram,
)
from repro.optimizers.penalty import ExactPenaltyProblem, PenaltyKind
from repro.optimizers.step_schedules import (
    StepSchedule,
    LinearDecaySchedule,
    SqrtDecaySchedule,
    ConstantSchedule,
    AggressiveStepping,
    make_schedule,
)
from repro.optimizers.annealing import PenaltyAnnealing
from repro.optimizers.momentum import MomentumSmoother
from repro.optimizers.preconditioning import QRPreconditioner
from repro.optimizers.sgd import SGDOptions, stochastic_gradient_descent_batch
from repro.optimizers.conjugate_gradient import (
    CGOptions,
    conjugate_gradient_least_squares_batch,
)

__all__ = [
    "OptimizationResult",
    "UnconstrainedProblem",
    "LinearConstraints",
    "ConstrainedProblem",
    "QuadraticProblem",
    "LinearProgram",
    "ExactPenaltyProblem",
    "PenaltyKind",
    "StepSchedule",
    "LinearDecaySchedule",
    "SqrtDecaySchedule",
    "ConstantSchedule",
    "AggressiveStepping",
    "make_schedule",
    "PenaltyAnnealing",
    "MomentumSmoother",
    "QRPreconditioner",
    "SGDOptions",
    "stochastic_gradient_descent_batch",
    "CGOptions",
    "conjugate_gradient_least_squares_batch",
]
