"""Golden values of every robust application, and the batch composition law.

Each robust application has one solver: its ``*_batch`` entry point, with the
single-trial ``robust_X(..., proc)`` defined as a batch of one.  Two oracles
pin that solver:

* **Golden values.**  For every application, at fault rates 0, 0.01 and 0.1
  on the ``leon3-fpu`` (float32) and ``double-precision`` (float64) models,
  the SHA-256 of the output bytes, the FLOP and fault counts, the iteration
  count and the termination message.  They were captured from the per-trial
  serial solvers that the batch path replaced, so a batch of one still
  reproduces that path bit for bit.
* **Composition.**  Row ``t`` of a batch of ``n`` trials (mixed per-row
  fault rates) equals a batch of one for trial ``t`` — output, counters,
  iterations and message — on the ``numpy`` and ``cnative`` backends.

The workloads are the small inputs of ``tests/test_tensor_backend.py``'s
batch cases.  Regenerate the table (only when a change is *meant* to move
solver output) by running this file as a script and pasting its output::

    PYTHONPATH=src:. python tests/test_solver_golden.py
"""

import hashlib

import numpy as np
import pytest
from conftest import backend_param
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.eigen import (
    robust_eigenpairs,
    robust_eigenpairs_batch,
    robust_top_eigenpair,
)
from repro.applications.iir import robust_iir_filter, robust_iir_filter_batch
from repro.applications.least_squares import (
    default_least_squares_step,
    robust_least_squares_cg,
    robust_least_squares_cg_batch,
    robust_least_squares_sgd,
    robust_least_squares_sgd_batch,
)
from repro.applications.matching import (
    default_matching_config,
    robust_matching,
    robust_matching_batch,
)
from repro.applications.maxflow import (
    default_maxflow_config,
    robust_max_flow,
    robust_max_flow_batch,
)
from repro.applications.shortest_path import (
    default_apsp_config,
    robust_all_pairs_shortest_path,
    robust_all_pairs_shortest_path_batch,
)
from repro.applications.sorting import (
    default_sorting_config,
    robust_sort,
    robust_sort_batch,
)
from repro.applications.svm import robust_svm_train_sgd, robust_svm_train_sgd_batch
from repro.backends import use_backend
from repro.core.variants import sgd_options_for_variant
from repro.optimizers.conjugate_gradient import CGOptions
from repro.optimizers.step_schedules import AggressiveStepping
from repro.processor.stochastic import StochasticProcessor
from repro.workloads.generators import (
    random_array,
    random_bipartite_graph,
    random_flow_network,
    random_least_squares,
    random_spd_matrix,
    random_svm_data,
    random_weighted_graph,
)
from repro.workloads.signals import random_stable_iir, sum_of_sinusoids

RATES = (0.0, 0.01, 0.1)
MODELS = ("leon3-fpu", "double-precision")

# --------------------------------------------------------------------------- #
# Workloads (the inputs of tests/test_tensor_backend.py's batch cases)
# --------------------------------------------------------------------------- #
SORT_VALUES = random_array(4, rng=2010, min_gap=0.08)
LSQ_A, LSQ_B, _ = random_least_squares(50, 8, rng=2010)
CG_A, CG_B, _ = random_least_squares(60, 8, rng=2010)
IIR_FILTER = random_stable_iir(6, rng=2010, pole_radius=0.8)
IIR_SIGNAL = sum_of_sinusoids(100)
MATCHING_GRAPH = random_bipartite_graph(4, 5, 14, rng=2010)
FLOW_NETWORK = random_flow_network(6, 12, rng=2010)
APSP_GRAPH = random_weighted_graph(5, 10, rng=2010)
EIGEN_MATRIX = random_spd_matrix(6, rng=2010)
SVM_X, SVM_Y, _ = random_svm_data(40, 4, rng=2010)

#: Shorter solves keep the many-example composition property cheap.
SHORT_ITERATIONS = 30
SHORT_POLISH = AggressiveStepping(max_iterations=20, fail_factor=0.8, success_factor=1.5)


def _sort_config(iterations=60):
    return default_sorting_config(
        iterations=iterations, variant="SGD+AS,SQS", values=SORT_VALUES
    )


def _matching_config(iterations=60):
    return default_matching_config(iterations=iterations, variant="ALL", graph=MATCHING_GRAPH)


def _maxflow_config(iterations=60):
    return default_maxflow_config(
        iterations=iterations, variant="SGD+AS,SQS", network=FLOW_NETWORK
    )


def _apsp_config(iterations=60):
    return default_apsp_config(iterations=iterations, variant="SGD+AS,SQS", graph=APSP_GRAPH)


def _lsq_options():
    return sgd_options_for_variant(
        "SGD+AS,LS", iterations=80, base_step=default_least_squares_step(LSQ_A)
    )


def _cg_options():
    # Short restart period + outlier rejection exercise both masked branches.
    return CGOptions(iterations=9, restart_every=2, outlier_rejection=6.0)


def _iir_options():
    return sgd_options_for_variant("SGD+AS,LS", iterations=30, base_step=0.25)


def _svm_options():
    return sgd_options_for_variant("SGD+AS,LS", iterations=40, base_step=0.05)


# --------------------------------------------------------------------------- #
# Result summaries
# --------------------------------------------------------------------------- #
def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return hasher.hexdigest()


def _solver_fields(result) -> dict:
    inner = result.optimizer_result
    return {"iterations": inner.iterations, "message": inner.message}


def _summarize(app: str, result) -> dict:
    """The pinned fields of one application result."""
    if app == "sort":
        fields = {"digest": _digest(result.output, result.optimizer_result.x),
                  **_solver_fields(result)}
    elif app == "matching":
        edges = np.asarray(sorted(result.edges), dtype=np.float64)
        fields = {"digest": _digest(edges, result.optimizer_result.x),
                  **_solver_fields(result)}
    elif app in ("lsq_sgd", "lsq_cg"):
        fields = {"digest": _digest(result.x), **_solver_fields(result)}
    elif app == "iir":
        fields = {"digest": _digest(result.y, result.optimizer_result.x),
                  **_solver_fields(result)}
    elif app == "maxflow":
        fields = {"digest": _digest(result.flow, result.optimizer_result.x),
                  **_solver_fields(result)}
    elif app == "apsp":
        fields = {"digest": _digest(result.distances, result.optimizer_result.x),
                  **_solver_fields(result)}
    elif app == "svm":
        fields = {"digest": _digest(result.weights, [result.objective]),
                  "iterations": result.iterations, "message": None}
    elif app == "eigen_top":
        fields = {"digest": _digest(result.eigenvector, [result.eigenvalue,
                                                         result.eigenvalue_error]),
                  "iterations": result.iterations, "message": None}
    elif app == "eigenpairs":
        # A list of k pairs: digest all of them, count over all of them.
        fields = {
            "digest": _digest(*[np.append(pair.eigenvector,
                                          [pair.eigenvalue, pair.eigenvalue_error])
                                for pair in result]),
            "iterations": sum(pair.iterations for pair in result),
            "message": None,
        }
        return {**fields, "flops": sum(pair.flops for pair in result),
                "faults": sum(pair.faults_injected for pair in result)}
    else:  # pragma: no cover - table and runners are kept in step
        raise KeyError(app)
    return {**fields, "flops": result.flops, "faults": result.faults_injected}


# --------------------------------------------------------------------------- #
# Single-trial runners (the public robust_X API) and batch runners
# --------------------------------------------------------------------------- #
SINGLE = {
    "sort": lambda proc: robust_sort(SORT_VALUES, proc, _sort_config()),
    "matching": lambda proc: robust_matching(MATCHING_GRAPH, proc, _matching_config()),
    "lsq_sgd": lambda proc: robust_least_squares_sgd(LSQ_A, LSQ_B, proc, options=_lsq_options()),
    "lsq_cg": lambda proc: robust_least_squares_cg(CG_A, CG_B, proc, options=_cg_options()),
    "iir": lambda proc: robust_iir_filter(IIR_FILTER, IIR_SIGNAL, proc, options=_iir_options()),
    "svm": lambda proc: robust_svm_train_sgd(SVM_X, SVM_Y, proc, options=_svm_options()),
    "maxflow": lambda proc: robust_max_flow(FLOW_NETWORK, proc, _maxflow_config()),
    "apsp": lambda proc: robust_all_pairs_shortest_path(APSP_GRAPH, proc, _apsp_config()),
    "eigen_top": lambda proc: robust_top_eigenpair(
        EIGEN_MATRIX, proc, iterations=40, rng=np.random.default_rng(3)
    ),
    "eigenpairs": lambda proc: robust_eigenpairs(
        EIGEN_MATRIX, 2, proc, iterations=40, rng=np.random.default_rng(3)
    ),
}


def _short_polish(config):
    config.aggressive = SHORT_POLISH
    return config


def _short_polish_options(options):
    options.aggressive = SHORT_POLISH
    return options


#: Batch runners for the composition property: ``(procs, streams) -> results``.
BATCH = {
    "sort": lambda procs, streams: robust_sort_batch(
        SORT_VALUES, procs, _short_polish(_sort_config(SHORT_ITERATIONS))
    ),
    "matching": lambda procs, streams: robust_matching_batch(
        MATCHING_GRAPH, procs, _short_polish(_matching_config(SHORT_ITERATIONS))
    ),
    "lsq_sgd": lambda procs, streams: robust_least_squares_sgd_batch(
        LSQ_A, LSQ_B, procs, options=_short_polish_options(_lsq_options())
    ),
    "lsq_cg": lambda procs, streams: robust_least_squares_cg_batch(
        CG_A, CG_B, procs, options=_cg_options()
    ),
    "iir": lambda procs, streams: robust_iir_filter_batch(
        IIR_FILTER, IIR_SIGNAL, procs, options=_short_polish_options(_iir_options())
    ),
    "svm": lambda procs, streams: robust_svm_train_sgd_batch(
        SVM_X, SVM_Y, procs, options=_short_polish_options(_svm_options())
    ),
    "maxflow": lambda procs, streams: robust_max_flow_batch(
        FLOW_NETWORK, procs, _short_polish(_maxflow_config(SHORT_ITERATIONS))
    ),
    "apsp": lambda procs, streams: robust_all_pairs_shortest_path_batch(
        APSP_GRAPH, procs, _short_polish(_apsp_config(SHORT_ITERATIONS))
    ),
    "eigenpairs": lambda procs, streams: robust_eigenpairs_batch(
        EIGEN_MATRIX, 2, procs, iterations=20, rngs=streams
    ),
}


def _proc(model: str, rate: float, seed=7) -> StochasticProcessor:
    return StochasticProcessor(
        fault_rate=rate, fault_model=model, rng=np.random.default_rng(seed)
    )


def _capture() -> dict:
    return {
        (app, model, rate): _summarize(app, run(_proc(model, rate)))
        for app, run in SINGLE.items()
        for model in MODELS
        for rate in RATES
    }


# fmt: off
GOLDEN = {
    ('apsp', 'double-precision', 0.0): {'digest': '4911f42fd69e1561239ddf051eb3e7cfbe4e018116534261480da408b0eb475b', 'iterations': 88, 'message': 'aggressive stepping converged', 'flops': 486200, 'faults': 0},
    ('apsp', 'double-precision', 0.01): {'digest': '5f04e737e51953682c6cca724c940fae13a22a9503fa8b44f28b377c16e3912e', 'iterations': 105, 'message': 'aggressive stepping converged', 'flops': 580125, 'faults': 5286},
    ('apsp', 'double-precision', 0.1): {'digest': 'b930bec7c2b6ceb631bfaf5cb3d9dc4d6af796df448f1e7bf85830a03c67b50f', 'iterations': 146, 'message': 'aggressive stepping converged', 'flops': 806650, 'faults': 54224},
    ('apsp', 'leon3-fpu', 0.0): {'digest': '4911f42fd69e1561239ddf051eb3e7cfbe4e018116534261480da408b0eb475b', 'iterations': 88, 'message': 'aggressive stepping converged', 'flops': 486200, 'faults': 0},
    ('apsp', 'leon3-fpu', 0.01): {'digest': '426e44e08d6be93ff2191f262b38a965bd8156dd3eebfa05d8c43fdfefb83c88', 'iterations': 102, 'message': 'aggressive stepping converged', 'flops': 563550, 'faults': 5138},
    ('apsp', 'leon3-fpu', 0.1): {'digest': '5c2a15d9fbb7423ce0a29d7c9d2cb10b98b9b3e5c89186a94ff32262c16b3d93', 'iterations': 120, 'message': 'aggressive stepping converged', 'flops': 663000, 'faults': 44533},
    ('eigen_top', 'double-precision', 0.0): {'digest': '6ee8b6e48d52adf52bf7a8ba8bab40c59f543c33de37ca80c7d088e1f37ef36a', 'iterations': 40, 'message': None, 'flops': 2640, 'faults': 0},
    ('eigen_top', 'double-precision', 0.01): {'digest': '95921d9cba58fd7a2280381f77b2920f0884b4cf348cd299abae5a72748f0143', 'iterations': 40, 'message': None, 'flops': 2640, 'faults': 17},
    ('eigen_top', 'double-precision', 0.1): {'digest': 'efa00668f8760ef0bb2253eba73663c4d59afa7769a7f2b40cb67cf33b5f6c95', 'iterations': 40, 'message': None, 'flops': 2640, 'faults': 250},
    ('eigen_top', 'leon3-fpu', 0.0): {'digest': '4b97af19e3188a0aef5a6304256b4c8336c889beeeb7ec7fbf23f9172e12e523', 'iterations': 40, 'message': None, 'flops': 2640, 'faults': 0},
    ('eigen_top', 'leon3-fpu', 0.01): {'digest': '57822619382ea1480b6747cb4b47c333a63ad891e1720ba3f7466622d05e2a9c', 'iterations': 40, 'message': None, 'flops': 2640, 'faults': 17},
    ('eigen_top', 'leon3-fpu', 0.1): {'digest': '9357e904d9c5d56a5d68b4ef09d9c9be9cd92a8e19c29f5300781e32420a9a9d', 'iterations': 40, 'message': None, 'flops': 2640, 'faults': 250},
    ('eigenpairs', 'double-precision', 0.0): {'digest': 'a8933074bff61696126df30357d98c44983bf04f199a534b6fb112439f4bcec4', 'iterations': 80, 'message': None, 'flops': 5280, 'faults': 0},
    ('eigenpairs', 'double-precision', 0.01): {'digest': '8151d6b5679b18d2abfdbf00bfcacf4a5951056fbc5272d5c3a82fc9927adabe', 'iterations': 80, 'message': None, 'flops': 5280, 'faults': 44},
    ('eigenpairs', 'double-precision', 0.1): {'digest': '8743766b2bfcd9a838874e3653247c878689939b5acd02d7b9b8331562445786', 'iterations': 80, 'message': None, 'flops': 5280, 'faults': 489},
    ('eigenpairs', 'leon3-fpu', 0.0): {'digest': '4824b0d10d8af684b0eded3620e906f1bf30c90632f633fdaeed64c70c132db5', 'iterations': 80, 'message': None, 'flops': 5280, 'faults': 0},
    ('eigenpairs', 'leon3-fpu', 0.01): {'digest': 'cf44d7d23cd694025d0f325b74fa910e701f228c912fef975a971bf2534f2b21', 'iterations': 80, 'message': None, 'flops': 5280, 'faults': 44},
    ('eigenpairs', 'leon3-fpu', 0.1): {'digest': 'c4f3f283c893acfcf25a78f3b792d2c25ebc54a214e5679f2915753ad562f042', 'iterations': 80, 'message': None, 'flops': 5280, 'faults': 489},
    ('iir', 'double-precision', 0.0): {'digest': 'e5c0f56f5e4d46fa1f7f68e93085854be2cd07ce388af7ee30ab934bab6aaab7', 'iterations': 31, 'message': 'aggressive stepping converged', 'flops': 891940, 'faults': 0},
    ('iir', 'double-precision', 0.01): {'digest': '1fa10490f5e9b92388cc92216e4fa30ce0c98e4f15553f0f68943b89a88e9aba', 'iterations': 230, 'message': 'aggressive stepping reached its iteration cap', 'flops': 6603240, 'faults': 37384},
    ('iir', 'double-precision', 0.1): {'digest': '39af8d5107eea2d24768172543b2570ee320833822ce5dd07952ad8b2a7e169c', 'iterations': 230, 'message': 'aggressive stepping reached its iteration cap', 'flops': 6603240, 'faults': 66725},
    ('iir', 'leon3-fpu', 0.0): {'digest': '9508e5a427a8a631fee72630ea5093c59ae7d43620b51c9279c0011247ad61de', 'iterations': 50, 'message': 'aggressive stepping converged', 'flops': 1437240, 'faults': 0},
    ('iir', 'leon3-fpu', 0.01): {'digest': '3768f034259da28da63b4207b7810bfe67e86edf30a6e34b6cebeb1fe5b21fdd', 'iterations': 230, 'message': 'aggressive stepping reached its iteration cap', 'flops': 6603240, 'faults': 37384},
    ('iir', 'leon3-fpu', 0.1): {'digest': 'd243ae236dbb1ac7403b7683e75846af6067dc61eac3596380e864629ab85057', 'iterations': 175, 'message': 'aggressive stepping converged', 'flops': 5024740, 'faults': 50763},
    ('lsq_cg', 'double-precision', 0.0): {'digest': '57efe84083e4dc70e532e8d73367994e8d0d9a046d9a78ed377fdd317ee63a2f', 'iterations': 9, 'message': 'completed CG iterations', 'flops': 27581, 'faults': 0},
    ('lsq_cg', 'double-precision', 0.01): {'digest': '21ffb3a683017b2d2a27b746450f5333045636f412a0cd0ceee873bca6e05613', 'iterations': 9, 'message': 'completed CG iterations', 'flops': 27581, 'faults': 224},
    ('lsq_cg', 'double-precision', 0.1): {'digest': '40d52024d1b13f48a553eea0424287599a5ddc4cfc8334a1932ea0d2a0f108fa', 'iterations': 9, 'message': 'completed CG iterations', 'flops': 27581, 'faults': 1918},
    ('lsq_cg', 'leon3-fpu', 0.0): {'digest': 'dea97e57be63ed780f102474575f592ba2549f6918f9f6df93e3095f70a5fca3', 'iterations': 9, 'message': 'completed CG iterations', 'flops': 27581, 'faults': 0},
    ('lsq_cg', 'leon3-fpu', 0.01): {'digest': 'cb2cb2ee762ae819cb63c145f9f57006f87b0ac6352fab613d838494778f275a', 'iterations': 9, 'message': 'completed CG iterations', 'flops': 27581, 'faults': 224},
    ('lsq_cg', 'leon3-fpu', 0.1): {'digest': '18909c307ce7c5b48fc5d2378058339c10b3a703c4c27d547c694a25249f7727', 'iterations': 9, 'message': 'completed CG iterations', 'flops': 27581, 'faults': 1918},
    ('lsq_sgd', 'double-precision', 0.0): {'digest': 'af3b9b58558deed834663b4020d3c597118f2dc1cc8ec8222387155c0e0c41ea', 'iterations': 111, 'message': 'aggressive stepping converged', 'flops': 177600, 'faults': 0},
    ('lsq_sgd', 'double-precision', 0.01): {'digest': '302e46be16ac29ad4e11d5f2130571a24fa1ec76fc3132dc704d48eb56e7d7a9', 'iterations': 217, 'message': 'aggressive stepping converged', 'flops': 347200, 'faults': 3270},
    ('lsq_sgd', 'double-precision', 0.1): {'digest': '5b23dae725c120f8a0a38d4ed934985b5f615f23e5609542b5d5b63c8bfb6924', 'iterations': 135, 'message': 'aggressive stepping converged', 'flops': 216000, 'faults': 16017},
    ('lsq_sgd', 'leon3-fpu', 0.0): {'digest': 'a3c0e47f2fbd7a94111e807ec197569a031ed168965e6762f9f1a961b0c14a3e', 'iterations': 111, 'message': 'aggressive stepping converged', 'flops': 177600, 'faults': 0},
    ('lsq_sgd', 'leon3-fpu', 0.01): {'digest': '5727b964e02c8ef0e664e5589a2b0f4b1abc23d49616ec1845ed97e9fda7425d', 'iterations': 217, 'message': 'aggressive stepping converged', 'flops': 347200, 'faults': 3270},
    ('lsq_sgd', 'leon3-fpu', 0.1): {'digest': '4e2b8203db41945c95cb8f4b2f086a0dec781960e268b05df063df39605ad25e', 'iterations': 135, 'message': 'aggressive stepping converged', 'flops': 216000, 'faults': 16017},
    ('matching', 'double-precision', 0.0): {'digest': '14d4b32bfc4c5b3ff71a29b9e64f9cc6a439c5d994ca4860283ffcd8f878e1ba', 'iterations': 159, 'message': 'aggressive stepping converged', 'flops': 207018, 'faults': 0},
    ('matching', 'double-precision', 0.01): {'digest': 'c9eee52517a076a310ee3d673726ae2d3bf85bebff23c03c1a894fcb7dac30bb', 'iterations': 143, 'message': 'aggressive stepping converged', 'flops': 186186, 'faults': 1756},
    ('matching', 'double-precision', 0.1): {'digest': '7aeddf10d8dac548c6fffb33b650ae0634352e5280b4a0a56840c17189dcacf7', 'iterations': 107, 'message': 'aggressive stepping converged', 'flops': 139314, 'faults': 10534},
    ('matching', 'leon3-fpu', 0.0): {'digest': 'f2ffabf6735dbb0973a729139bab44818d794f4066971d6bf16e8009f41b2300', 'iterations': 159, 'message': 'aggressive stepping converged', 'flops': 207018, 'faults': 0},
    ('matching', 'leon3-fpu', 0.01): {'digest': '1fefffa1f98d3eab4ef6ca2918ebb89937d22876c26f7cc6b47ab569de622030', 'iterations': 151, 'message': 'aggressive stepping converged', 'flops': 196602, 'faults': 1868},
    ('matching', 'leon3-fpu', 0.1): {'digest': '6c9de3188e3d5535dc107ae9976a612df08235aec7bb7a3e8b32b2b9392da4ab', 'iterations': 148, 'message': 'aggressive stepping converged', 'flops': 192696, 'faults': 14570},
    ('maxflow', 'double-precision', 0.0): {'digest': 'd6fc543cca70f4c5d05f831d020b3377eb62b285c2f9da47ac1966822b5414bc', 'iterations': 163, 'message': 'aggressive stepping converged', 'flops': 221028, 'faults': 0},
    ('maxflow', 'double-precision', 0.01): {'digest': '1a55b9f111107b9e5d134a38308dac05c9b1e4c4f35fb259e17ceac17cb459c4', 'iterations': 121, 'message': 'aggressive stepping converged', 'flops': 164076, 'faults': 1625},
    ('maxflow', 'double-precision', 0.1): {'digest': '8bfc44b722543839832d6b06481c4694387eae2362e86d682226ea95132ea7b8', 'iterations': 230, 'message': 'aggressive stepping converged', 'flops': 311880, 'faults': 24341},
    ('maxflow', 'leon3-fpu', 0.0): {'digest': 'c29a9802e07835a0fb56324d56d04be532078d99199d2ebdd6d0abd2602a7028', 'iterations': 164, 'message': 'aggressive stepping converged', 'flops': 222384, 'faults': 0},
    ('maxflow', 'leon3-fpu', 0.01): {'digest': 'b24faf4a589bd3a265957d3bac1123831f87ebbe739f1b53229b14136657cab3', 'iterations': 140, 'message': 'aggressive stepping converged', 'flops': 189840, 'faults': 1860},
    ('maxflow', 'leon3-fpu', 0.1): {'digest': '5f89c93483ff633862472a8b202287f025919ddb168e7d2848b4d089415f195f', 'iterations': 132, 'message': 'aggressive stepping converged', 'flops': 178992, 'faults': 13939},
    ('sort', 'double-precision', 0.0): {'digest': '5b0c7f06729c98af4f5f7d31d33974fba32196bb1c70bfbe0d8221abdfae202d', 'iterations': 320, 'message': 'aggressive stepping converged', 'flops': 496640, 'faults': 0},
    ('sort', 'double-precision', 0.01): {'digest': '870c243372dcf93a836b9d579b7cbebd51f43d624262defed87feb1a6c337a87', 'iterations': 271, 'message': 'aggressive stepping converged', 'flops': 420592, 'faults': 3963},
    ('sort', 'double-precision', 0.1): {'digest': '5e7ffa6550b24b40dc65e1956582b796c6a801c032e98a2d751d79feb2f9346f', 'iterations': 263, 'message': 'aggressive stepping converged', 'flops': 408176, 'faults': 30163},
    ('sort', 'leon3-fpu', 0.0): {'digest': '6621776e6b2053ce7609e3312ba8301114280f1f4e4f714bd9a1e1040cb1b82f', 'iterations': 258, 'message': 'aggressive stepping converged', 'flops': 400416, 'faults': 0},
    ('sort', 'leon3-fpu', 0.01): {'digest': '5b505eb9c4b1b647251305d850d98f3ad086ee4e5802c5a17cdddc2bdd65a5ee', 'iterations': 205, 'message': 'aggressive stepping converged', 'flops': 318160, 'faults': 3030},
    ('sort', 'leon3-fpu', 0.1): {'digest': 'e5c63e8e2cac58a40bc7bc1786bc05cf85f60286d3241443b3535472a7a2f00e', 'iterations': 222, 'message': 'aggressive stepping converged', 'flops': 344544, 'faults': 25447},
    ('svm', 'double-precision', 0.0): {'digest': '55e5b775996f8f3ed5ad284275c7c6aa08adb84bb40c4f8b9104b09f228b48fa', 'iterations': 143, 'message': None, 'flops': 86372, 'faults': 0},
    ('svm', 'double-precision', 0.01): {'digest': '8f08f4d9d38535e1de8c05873d2931607346871b68b4857dbbf51601c9158b6a', 'iterations': 148, 'message': None, 'flops': 89392, 'faults': 832},
    ('svm', 'double-precision', 0.1): {'digest': 'bad5d81fd7d0d74e30ccdda4233408d1f59ed8c25cb3f99be371fa3e4fee7fdc', 'iterations': 123, 'message': None, 'flops': 74292, 'faults': 5844},
    ('svm', 'leon3-fpu', 0.0): {'digest': '804ce584091df2c91701130a73206ee19a00cb30bc0065c81baa387e8c8bc78e', 'iterations': 143, 'message': None, 'flops': 86372, 'faults': 0},
    ('svm', 'leon3-fpu', 0.01): {'digest': '7332662c8753d030b7c884688b7001a4590677c6f9d075cf2caf450094dd07f2', 'iterations': 137, 'message': None, 'flops': 82748, 'faults': 764},
    ('svm', 'leon3-fpu', 0.1): {'digest': 'fae4d75bf2e23c299a734bbd9c4c899c8e72ff316b7dfd66dc9d9edb30b0c31d', 'iterations': 123, 'message': None, 'flops': 74292, 'faults': 5844},
}
# fmt: on


@pytest.mark.parametrize("key", sorted(GOLDEN, key=repr), ids=lambda key: "-".join(map(str, key)))
def test_single_trial_solvers_match_golden(key):
    app, model, rate = key
    assert _summarize(app, SINGLE[app](_proc(model, rate))) == GOLDEN[key]


def test_golden_table_covers_every_application():
    assert set(GOLDEN) == {
        (app, model, rate) for app in SINGLE for model in MODELS for rate in RATES
    }


@pytest.mark.parametrize("backend", [backend_param("numpy"), backend_param("cnative")])
@pytest.mark.parametrize("app", sorted(BATCH))
# Every application gets its own search; a quarter of the profile's example
# budget each keeps the 18 searches near the cost of one.
@settings(deadline=None, max_examples=max(4, settings.default.max_examples // 4))
@given(
    rates=st.lists(st.sampled_from([0.0, 0.001, 0.01, 0.1, 0.5]), min_size=1, max_size=5),
    model=st.sampled_from(MODELS),
    seed=st.integers(0, 2**16),
)
def test_batch_row_equals_batch_of_one(backend, app, rates, model, seed):
    """Row t of a batch of n equals a batch of one for trial t."""

    def procs():
        return [_proc(model, rate, seed=[seed, t]) for t, rate in enumerate(rates)]

    def streams():
        return [np.random.default_rng([seed, t, 1]) for t in range(len(rates))]

    with use_backend(backend):
        batched = BATCH[app](procs(), streams())
        singles = [
            BATCH[app]([proc], [stream])[0]
            for proc, stream in zip(procs(), streams())
        ]
    assert len(batched) == len(rates)
    for row, single in zip(batched, singles):
        assert _summarize(app, row) == _summarize(app, single)


if __name__ == "__main__":
    for key, fields in sorted(_capture().items(), key=lambda item: repr(item[0])):
        print(f"    {key!r}: {fields!r},")
