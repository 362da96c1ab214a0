"""Common result and bookkeeping types for the stochastic solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.exceptions import ProblemSpecificationError

__all__ = ["OptimizationResult", "stack_initial_iterates"]


def stack_initial_iterates(
    x0: Optional[np.ndarray],
    n_trials: int,
    dimension: int,
    default_row: Callable[[], np.ndarray],
) -> np.ndarray:
    """Per-trial starting iterates as an ``(n_trials, dimension)`` stack.

    The shared x0 convention of the batched solver drivers: ``x0`` may be
    ``None`` (``default_row()`` for every trial — the problem's initial point
    for SGD, zeros for CG), a single ``(dimension,)`` iterate shared by every
    trial, or an ``(n_trials, dimension)`` stack of per-trial iterates.
    """
    if x0 is None:
        return np.tile(default_row(), (n_trials, 1))
    x0_arr = np.asarray(x0, dtype=np.float64)
    if x0_arr.shape == (dimension,):
        return np.tile(x0_arr, (n_trials, 1))
    if x0_arr.shape == (n_trials, dimension):
        return x0_arr.copy()
    raise ProblemSpecificationError(
        f"initial iterate has shape {x0_arr.shape}, expected "
        f"({dimension},) or ({n_trials}, {dimension})"
    )


@dataclass
class OptimizationResult:
    """The outcome of a stochastic optimization run.

    Attributes
    ----------
    x:
        Final iterate (after any preconditioning has been undone).
    objective:
        Final objective value, evaluated reliably.
    iterations:
        Number of iterations executed.
    converged:
        Whether the solver's stopping criterion was met before the iteration
        budget ran out.  Solvers run for a fixed budget (as in the paper's
        experiments) report ``True`` when they complete the budget.
    flops:
        Floating-point operations charged to the stochastic processor during
        the run (used by the energy model and the overhead analysis).
    faults_injected:
        Number of corrupted results the processor produced during the run.
    message:
        Human-readable description of how the run terminated.
    """

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    flops: int = 0
    faults_injected: int = 0
    message: str = ""
