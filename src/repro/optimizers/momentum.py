"""Momentum smoothing of the search direction (§3.2, §6.2.2).

With momentum the update direction becomes an exponential running average of
recent gradients:

    d_t = β ∇f(x_{t-1}) + (1 - β) d_{t-1}

The paper uses β = 0.5 and reports that momentum improves the sorting success
rate by 20–40 % but gives only a marginal benefit (< 5 %) for bipartite
matching.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ProblemSpecificationError

__all__ = ["MomentumSmoother"]


class MomentumSmoother:
    """Exponential running average of gradient directions.

    Parameters
    ----------
    beta:
        Weight on the new gradient; ``1 - beta`` is the weight on the previous
        direction.  ``beta = 1`` reduces to plain gradient descent.
    """

    def __init__(self, beta: float = 0.5) -> None:
        if not 0.0 < beta <= 1.0:
            raise ProblemSpecificationError(f"momentum beta must be in (0, 1], got {beta}")
        self.beta = float(beta)
        self._direction: Optional[np.ndarray] = None

    @property
    def direction(self) -> Optional[np.ndarray]:
        """The current smoothed direction (``None`` before the first update)."""
        return None if self._direction is None else self._direction.copy()

    def reset(self) -> None:
        """Forget the accumulated direction (used at preconditioner changes)."""
        self._direction = None

    def update(self, gradient: np.ndarray) -> np.ndarray:
        """Fold a new gradient into the running average and return the direction."""
        gradient = np.asarray(gradient, dtype=np.float64)
        if self._direction is None or self._direction.shape != gradient.shape:
            self._direction = gradient.copy()
        else:
            self._direction = self.beta * gradient + (1.0 - self.beta) * self._direction
        return self._direction.copy()
