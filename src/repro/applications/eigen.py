"""Eigenvalue problems (§4.7, "Other numerical problems").

The Courant–Fischer theorem expresses the top eigenpair of a symmetric matrix
variationally as the maximizer of the Rayleigh quotient
``R(x) = xᵀMx / xᵀx``.  The paper suggests finding the top eigenpair this way
and peeling off subsequent pairs by deflation (subtracting the rank-1 term
``λ v vᵀ``).  We implement exactly that with the noisy matrix-vector products
and a reliable normalization/deflation control phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "EigenResult",
    "robust_top_eigenpair",
    "robust_eigenpairs",
    "robust_eigenpairs_batch",
]


@dataclass
class EigenResult:
    """Outcome of a robust eigenpair computation.

    ``eigenvalue_error`` is ``|λ − λ*| / |λ*|`` against the exact eigenvalue;
    ``eigenvector_alignment`` is ``|⟨v, v*⟩|`` (1.0 means perfectly aligned).
    """

    eigenvalue: float
    eigenvector: np.ndarray
    eigenvalue_error: float
    eigenvector_alignment: float
    iterations: int
    flops: int
    faults_injected: int


def robust_top_eigenpair(
    M: np.ndarray,
    proc: StochasticProcessor,
    iterations: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> EigenResult:
    """Top eigenpair of a symmetric matrix by Rayleigh-quotient ascent.

    Each iteration performs one noisy matrix-vector product (the gradient
    direction of the Rayleigh quotient up to scaling is ``Mx``) followed by a
    reliable normalization; non-finite components are zeroed by the control
    phase.  This is stochastic power iteration — exactly the kind of
    iterative refinement the paper argues tolerates unbiased FPU noise.

    Unlike :func:`robust_eigenpairs`, ``eigenvalue_error`` compares the
    Rayleigh quotient with the exact eigenvalue of largest magnitude, sign
    included.
    """
    M_arr = np.asarray(M, dtype=np.float64)
    _validate_eigen_matrix(M_arr, iterations)
    generator = rng if rng is not None else np.random.default_rng(0)
    batch = ProcessorBatch([proc])
    flops_before, faults_before = proc.flops, proc.faults_injected
    x = _power_iterations(M_arr[np.newaxis], batch, [generator], iterations)[0]
    batch.flush()  # deferred batched accounting -> processor counters
    eigenvalue = float(x @ M_arr @ x)

    exact_values, exact_vectors = np.linalg.eigh(M_arr)
    top_index = int(np.argmax(np.abs(exact_values)))
    exact_value = float(exact_values[top_index])
    exact_vector = exact_vectors[:, top_index]
    return EigenResult(
        eigenvalue=eigenvalue,
        eigenvector=x,
        eigenvalue_error=abs(eigenvalue - exact_value) / max(abs(exact_value), 1e-30),
        eigenvector_alignment=float(abs(x @ exact_vector)),
        iterations=iterations,
        flops=proc.flops - flops_before,
        faults_injected=proc.faults_injected - faults_before,
    )


def robust_eigenpairs(
    M: np.ndarray,
    k: int,
    proc: StochasticProcessor,
    iterations: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> List[EigenResult]:
    """Top ``k`` eigenpairs by repeated Rayleigh-quotient ascent and deflation.

    After each pair ``(λ, v)`` is found, the matrix is deflated to
    ``M − λ v vᵀ`` (reliable control phase) and the procedure repeats, as
    described in §4.7.  Each pair's ``eigenvalue_error`` compares ``|λ|``
    with the original matrix's ``k``-th largest eigenvalue magnitude.
    """
    rngs = None if rng is None else [rng]
    return robust_eigenpairs_batch(M, k, [proc], iterations=iterations, rngs=rngs)[0]


def _power_iterations(
    matrices: np.ndarray,
    batch: ProcessorBatch,
    generators: Sequence[np.random.Generator],
    iterations: int,
) -> np.ndarray:
    """Stochastic power iteration, one trial per row; returns unit iterates.

    ``matrices`` is a per-trial ``(n_trials, n, n)`` stack.  The noisy
    matrix-vector product — elementwise products and row-sum accumulations,
    each corrupted once for the whole batch — is the only corruptible work;
    the reliable control phase (zeroing non-finite components,
    normalization, random restarts from the trial's own stream) runs per
    trial.  Call ``batch.flush()`` before reading the processors' counters.
    """
    n_trials, n = matrices.shape[0], matrices.shape[1]
    tiny = np.finfo(float).tiny
    X = np.empty((n_trials, n))
    for trial, generator in enumerate(generators):
        x = generator.standard_normal(n)
        X[trial] = x / np.linalg.norm(x)
    for _ in range(iterations):
        products = batch.corrupt(matrices * X[:, np.newaxis, :], ops_per_element=1)
        Y = batch.corrupt(products.sum(axis=2), ops_per_element=max(n - 1, 1))
        Y = np.where(np.isfinite(Y), Y, 0.0)
        for trial in range(n_trials):
            y = Y[trial]
            norm = np.linalg.norm(y)
            if norm <= tiny:
                # Restart from a fresh random direction (reliable control
                # phase), from this trial's own stream.
                y = generators[trial].standard_normal(n)
                norm = np.linalg.norm(y)
            X[trial] = y / norm
    return X


def _validate_eigen_matrix(M_arr: np.ndarray, iterations: int) -> None:
    """Argument checks of the eigenpair solvers (square, symmetric, iterations ≥ 1)."""
    n = M_arr.shape[0]
    if M_arr.shape != (n, n):
        raise ProblemSpecificationError(f"expected a square matrix, got {M_arr.shape}")
    if not np.allclose(M_arr, M_arr.T, atol=1e-10):
        raise ProblemSpecificationError("matrix must be symmetric")
    if iterations < 1:
        raise ProblemSpecificationError("iterations must be at least 1")


def robust_eigenpairs_batch(
    M: np.ndarray,
    k: int,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    iterations: int = 200,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> List[List[EigenResult]]:
    """Run one :func:`robust_eigenpairs` computation per processor, batched.

    Every trial's power iteration advances together (:func:`_power_iterations`):
    the noisy matrix-vector product is evaluated for the whole stack with
    one fused corruption pass per iteration, each row drawn from its trial's
    own generator (see :class:`~repro.processor.batch.ProcessorBatch`).
    Deflation makes the iterated matrix *per trial* after the first pair, so
    the stacked product uses each trial's own deflated matrix.

    ``rngs`` supplies one private random stream per trial (defaulting to
    ``np.random.default_rng(0)`` each).  Trial ``t``'s result list —
    eigenpairs, errors, and FLOP/fault counters — equals
    ``robust_eigenpairs(M, k, procs[t], iterations, rngs[t])``.
    """
    M_arr = np.asarray(M, dtype=np.float64).copy()
    _validate_eigen_matrix(M_arr, iterations)
    if k < 1 or k > M_arr.shape[0]:
        raise ProblemSpecificationError(
            f"k must be between 1 and {M_arr.shape[0]}, got {k}"
        )
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    n_trials = len(batch)
    if rngs is None:
        generators = [np.random.default_rng(0) for _ in range(n_trials)]
    else:
        generators = list(rngs)
        if len(generators) != n_trials:
            raise ProblemSpecificationError(
                f"{len(generators)} streams for a batch of {n_trials} trials"
            )
    n = M_arr.shape[0]
    exact_magnitudes = np.sort(np.abs(np.linalg.eigvalsh(M_arr)))[::-1]
    deflated = np.broadcast_to(M_arr, (n_trials, n, n)).copy()
    outcomes: List[List[EigenResult]] = [[] for _ in range(n_trials)]

    for index in range(k):
        for trial in range(n_trials):
            _validate_eigen_matrix(deflated[trial], iterations)
        batch.flush()  # counters must be current before the baseline read
        flops_before = [proc.flops for proc in batch.procs]
        faults_before = [proc.faults_injected for proc in batch.procs]

        X = _power_iterations(deflated, batch, generators, iterations)
        batch.flush()  # deferred batched accounting -> per-processor counters

        # Score against the original matrix's spectrum rather than the
        # deflated one.
        target = float(exact_magnitudes[index])
        for trial, proc in enumerate(batch.procs):
            x = X[trial]
            D = deflated[trial]
            eigenvalue = float(x @ D @ x)
            # The deflated matrix's eigendecomposition only supplies the
            # alignment reference vector.
            exact_values, exact_vectors = np.linalg.eigh(D)
            exact_vector = exact_vectors[:, int(np.argmax(np.abs(exact_values)))]
            result = EigenResult(
                eigenvalue=eigenvalue,
                eigenvector=x,
                eigenvalue_error=abs(abs(eigenvalue) - target) / max(target, 1e-30),
                eigenvector_alignment=float(abs(x @ exact_vector)),
                iterations=iterations,
                flops=proc.flops - flops_before[trial],
                faults_injected=proc.faults_injected - faults_before[trial],
            )
            outcomes[trial].append(result)
            deflated[trial] = D - result.eigenvalue * np.outer(
                result.eigenvector, result.eigenvector
            )
    return outcomes
