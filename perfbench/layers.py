"""The layer table: which ``repro`` entry points belong to which layer.

:meth:`Installation.install` wraps every entry in :data:`LAYER_TABLE` with a
:class:`~layertrace.LayerTrace` span, and adds the counting hooks the
per-layer metrics need (processor draws/faults/FLOPs, store bytes and
hits, campaign shard accounting, search probes).  Inside forked pool
workers it resets the tracer when a shard starts and writes the shard's
accumulators to a file when it ends, so worker-side layer time is measured
rather than inferred from how long the parent waited.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from layertrace import LayerTrace, Patcher, pcg64_distance

# (layer, module, attribute).  An attribute is ``Class.method``, a function
# name, or ``*`` for every public function defined in the module.
LAYER_TABLE: List[Tuple[str, str, str]] = [
    # processor + faults: fault draws and bit flips.  The injector and the
    # fault-mask helpers are not wrapped on their own: their time is the
    # self time of the processor entry point (corrupt, or an FPU op) above.
    ("processor.batch_corrupt", "repro.processor.batch", "ProcessorBatch.corrupt"),
    ("processor.scalar_corrupt", "repro.processor.stochastic", "StochasticProcessor.corrupt"),
    *[
        ("processor.fpu", "repro.faults.fpu", f"StochasticFPU.{op}")
        for op in ("add", "sub", "mul", "div", "sqrt", "move", "neg", "abs", "fma",
                   "less_than", "greater_than", "compare", "dot", "sum")
    ],
    # linalg: noisy BLAS, batched BLAS and the decomposition baselines
    ("linalg.noisy_ops", "repro.linalg.ops", "*"),
    ("linalg.batch_blas", "repro.processor.batch", "batch_sub"),
    ("linalg.batch_blas", "repro.processor.batch", "batch_scale"),
    ("linalg.batch_blas", "repro.processor.batch", "batch_matvec"),
    *[
        ("linalg.decompositions", f"repro.linalg.{module}", "*")
        for module in ("cholesky", "qr", "svd", "solve", "triangular")
    ],
    # optimizers + core: solver control
    ("optimizers.sgd", "repro.optimizers.sgd", "*"),
    ("optimizers.cg", "repro.optimizers.conjugate_gradient", "*"),
    *[
        ("optimizers.penalty", "repro.optimizers.penalty", f"ExactPenaltyProblem.{name}")
        for name in ("value", "gradient", "gradient_batch", "constraint_violation")
    ],
    *[
        ("optimizers.problem", "repro.optimizers.problem", f"UnconstrainedProblem.{name}")
        for name in ("value", "gradient", "gradient_batch")
    ],
    ("core.transform", "repro.core.transform", "*"),
    # applications: robust drivers with control-phase rounding, baselines
    *[
        ("applications.robust", f"repro.applications.{module}", name)
        for module, names in {
            "sorting": ("robust_sort", "robust_sort_batch", "round_to_permutation"),
            "matching": ("robust_matching", "robust_matching_batch", "round_to_matching"),
            "least_squares": ("robust_least_squares_sgd", "robust_least_squares_sgd_batch",
                              "robust_least_squares_cg", "robust_least_squares_cg_batch"),
        }.items()
        for name in names
    ],
    ("applications.baselines", "repro.applications.sorting", "baseline_sort"),
    ("applications.baselines", "repro.applications.matching", "baseline_matching"),
    ("applications.baselines", "repro.applications.least_squares", "baseline_least_squares"),
    *[
        ("applications.baselines", f"repro.applications.baselines.{module}", "*")
        for module in ("sorting_baselines", "hungarian")
    ],
    # experiments: engine, executors, tensor cells
    ("experiments.engine", "repro.experiments.engine", "ExperimentEngine.run_sweep"),
    ("experiments.engine", "repro.experiments.engine", "run_point_block"),
    ("experiments.engine", "repro.experiments.engine", "assemble_series"),
    *[
        ("experiments.engine", "repro.experiments.executors", f"{cls}.run")
        for cls in ("SerialExecutor", "VectorizedExecutor", "AutoExecutor")
    ],
    ("experiments.engine", "repro.experiments.spec", "run_trial"),
    ("experiments.engine", "repro.experiments.spec", "TrialSpec.make_processor"),
    ("experiments.engine", "repro.experiments.tensor", "run_tensor_cell"),
    # experiments.campaign: planner, scheduler/pool, store
    ("campaign.planner", "repro.experiments.campaign.planner", "ShardPlanner.plan"),
    ("campaign.pool", "repro.experiments.campaign.scheduler", "CampaignScheduler.run"),
    ("campaign.pool", "repro.experiments.campaign.scheduler", "execute_shard"),
    ("campaign.runner", "repro.experiments.campaign.campaign", "CampaignRunner.submit"),
    ("campaign.runner", "repro.experiments.campaign.campaign", "Campaign.run"),
    ("campaign.runner", "repro.experiments.campaign.campaign", "Campaign.result"),
    *[
        ("store.write", "repro.experiments.campaign.store", f"ShardStore.{name}")
        for name in ("store_shard", "store_manifest", "store_search")
    ],
    *[
        ("store.read", "repro.experiments.campaign.store", f"ShardStore.{name}")
        for name in ("load_shard", "load_manifest", "load_search")
    ],
    # experiments.search
    ("search", "repro.experiments.search.drivers", "CriticalVoltageBisector.run"),
    ("search", "repro.experiments.search.drivers", "bisect_crossing"),
    ("search", "repro.experiments.search.probes", "ProbeRunner.run"),
]

#: Layer groups reported for pool workers (share of worker busy time).
WORKER_GROUPS = ("processor", "linalg", "optimizers", "applications", "experiments")


def _group(layer: str) -> str:
    head = layer.split(".")[0]
    return {"core": "optimizers", "campaign": "experiments",
            "store": "experiments", "search": "experiments"}.get(head, head)


class ProcessorLedger:
    """Per-trial processor accounting, read from public counters at the end.

    Every processor a trial builds comes from ``TrialSpec.make_processor``.
    The ledger records each one with the starting state of its fault
    generator (derived, like ``make_processor`` does, from a copy of the
    trial stream) and, when settled, sums FLOPs, faults and the number of
    64-bit draws the generator produced (see :func:`pcg64_distance`).
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[Any, Optional[Dict[str, int]]]] = []

    def before_make(self, args: tuple, kwargs: dict) -> Optional[Dict[str, int]]:
        stream = args[1]  # TrialSpec.make_processor(self, stream)
        if not isinstance(stream.bit_generator, np.random.PCG64):
            return None
        seed = int(copy.deepcopy(stream).integers(0, 2**63 - 1))
        return np.random.PCG64(seed).state["state"]

    def after_make(self, start, args, kwargs, proc, elapsed) -> None:
        self.entries.append((proc, start))

    def settle(self, trace: LayerTrace) -> None:
        draws = faults = flops = 0
        for proc, start in self.entries:
            faults += proc.faults_injected
            flops += proc.flops
            generator = proc.injector.rng.bit_generator
            if start is not None and isinstance(generator, np.random.PCG64):
                end = generator.state["state"]
                if end["inc"] == start["inc"]:
                    draws += pcg64_distance(start["state"], end["state"], start["inc"])
        self.entries.clear()
        trace.count("processor.elements_drawn", draws)
        trace.count("processor.faults_injected", faults)
        trace.count("processor.sim_flops", flops)


class Installation:
    """The installed wrappers of one traced process, and how to undo them."""

    def __init__(self, trace: LayerTrace, worker_dir: Path) -> None:
        self.trace = trace
        self.ledger = ProcessorLedger()
        self.patcher = Patcher(trace)
        self.worker_dir = Path(worker_dir)
        self.parent_pid = os.getpid()
        self._flushes = 0

    # ------------------------------------------------------------------ #
    # Counting hooks (run after each span closes)
    # ------------------------------------------------------------------ #
    def _after_write(self, token, args, kwargs, path, elapsed) -> None:
        self.trace.count("store.write.bytes", Path(path).stat().st_size)

    def _after_load_shard(self, token, args, kwargs, result, elapsed) -> None:
        store, shard = args  # ShardStore.load_shard(self, shard)
        if result is None:
            self.trace.count("store.read.misses")
        else:
            self.trace.count("store.read.hits")
            self.trace.count("store.read.bytes", store.shard_path(shard.shard_id).stat().st_size)

    def _after_scheduler(self, token, args, kwargs, stats, elapsed) -> None:
        scheduler = args[0]
        count = self.trace.count
        count("campaign.shards_total", stats["total"])
        count("campaign.shards_computed", stats["computed"])
        count("campaign.shards_reused", stats["reused"])
        count("campaign.pool.retries", stats["retries"])
        if stats["pool"] == "process" and stats["computed"]:
            count("campaign.pool.capacity_s", elapsed * scheduler.workers)

    def _after_probe(self, token, args, kwargs, probe, elapsed) -> None:
        count = self.trace.count
        count("search.probes")
        if probe.reused:
            count("search.probes_reused")
        else:
            count("search.probes_computed")
            count("search.trials_executed", probe.trials)

    def _after_tensor_cell(self, token, args, kwargs, values, elapsed) -> None:
        self.trace.count("experiments.tensor_cells")

    def _after_trial(self, token, args, kwargs, value, elapsed) -> None:
        self.trace.count("experiments.serial_trials")

    # Pool workers: a forked worker starts each shard from a clean tracer
    # (the fork copied the parent's open spans) and writes the shard's
    # accumulators out when it ends.
    def _before_shard(self, args, kwargs):
        if os.getpid() != self.parent_pid:
            self.trace.reset()
            self.ledger.entries.clear()
        return None

    def _after_shard(self, token, args, kwargs, result, elapsed) -> None:
        if os.getpid() == self.parent_pid:
            return
        self.ledger.settle(self.trace)
        self.trace.count("workers.busy_s", elapsed)
        self._flushes += 1
        target = self.worker_dir / f"worker-{os.getpid()}-{self._flushes}.json"
        target.write_text(json.dumps(self.trace.snapshot()))
        self.trace.reset()

    def _hooks(self, layer: str, module: str, attr: str):
        hooks = {
            ("repro.experiments.spec", "TrialSpec.make_processor"):
                (self.ledger.before_make, self.ledger.after_make),
            ("repro.experiments.campaign.store", "ShardStore.load_shard"):
                (None, self._after_load_shard),
            ("repro.experiments.campaign.scheduler", "CampaignScheduler.run"):
                (None, self._after_scheduler),
            ("repro.experiments.campaign.scheduler", "execute_shard"):
                (self._before_shard, self._after_shard),
            ("repro.experiments.search.probes", "ProbeRunner.run"):
                (None, self._after_probe),
            ("repro.experiments.tensor", "run_tensor_cell"):
                (None, self._after_tensor_cell),
            ("repro.experiments.spec", "run_trial"):
                (None, self._after_trial),
        }
        if layer == "store.write":
            return None, self._after_write
        return hooks.get((module, attr), (None, None))

    def install(self) -> "Installation":
        for layer, module_name, attr in LAYER_TABLE:
            module = importlib.import_module(module_name)
            before, after = self._hooks(layer, module_name, attr)
            if attr == "*":
                self.patcher.module_functions(layer, module)
            elif "." in attr:
                cls_name, method = attr.split(".")
                self.patcher.method(layer, getattr(module, cls_name), method, before, after)
            else:
                self.patcher.function(layer, module, attr, before, after)
        return self

    def restore(self) -> None:
        self.patcher.restore()

    def collect_workers(self) -> LayerTrace:
        """Merge (and delete) every shard snapshot the pool workers wrote."""
        merged = LayerTrace()
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            merged.merge(json.loads(path.read_text()))
            path.unlink()
        return merged


# --------------------------------------------------------------------------- #
# Metric table
# --------------------------------------------------------------------------- #
_CALLS_AND_SELF = ("processor.batch_corrupt", "processor.scalar_corrupt", "processor.fpu",
                   "linalg.noisy_ops", "linalg.decompositions", "linalg.batch_blas",
                   "store.write", "store.read")
_SELF_ONLY = ("optimizers.sgd", "optimizers.cg", "optimizers.penalty",
              "optimizers.problem", "core.transform", "applications.robust",
              "applications.baselines", "experiments.engine", "campaign.planner",
              "campaign.runner", "search")
_SHARES = ("processor.batch_corrupt", "processor.scalar_corrupt")
_COUNTERS = ("experiments.tensor_cells", "experiments.serial_trials",
             "campaign.shards_total", "campaign.shards_computed", "campaign.shards_reused",
             "campaign.pool.retries", "store.read.hits", "store.read.misses",
             "search.probes", "search.probes_computed", "search.probes_reused",
             "search.trials_executed", "processor.elements_drawn",
             "processor.faults_injected", "processor.sim_flops")
_UNITS = {"calls": "count", "self_s": "s", "share": "fraction", "bytes": "B"}

ROOT_LAYER = "trace.root"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit (the ``BENCHMARK.json`` list)."""
    units: Dict[str, str] = {}
    for layer in _CALLS_AND_SELF:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in _SELF_ONLY:
        units[f"{layer}.self_s"] = "s"
    for layer in _SHARES:
        units[f"{layer}.share"] = "fraction"
    for name in _COUNTERS:
        units[name] = "flop" if name.endswith("sim_flops") else "count"
    units.update({
        "processor.fault_yield": "fraction",
        "processor.sim_flops_per_s": "flop/s",
        "store.write.bytes": "B",
        "store.read.bytes": "B",
        "campaign.pool.wait_s": "s",
        "campaign.pool.utilisation": "fraction",
        "workers.busy_s": "s",
        **{f"workers.{group}.share": "fraction" for group in WORKER_GROUPS},
        "workloads.build_s": "s",
        "backends.warmup_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
        "trace.wrapped_calls": "count",
    })
    return units


_HIGHER_IS_BETTER = ("processor.fault_yield", "processor.sim_flops_per_s",
                     "campaign.pool.utilisation", "campaign.shards_reused",
                     "store.read.hits", "search.probes_reused")


def better(name: str) -> str:
    """Direction of one per-layer metric: less time and work is better."""
    return "higher" if name in _HIGHER_IS_BETTER else "lower"


def layer_metrics(parent: LayerTrace, workers: LayerTrace, wall_s: float) -> Dict[str, float]:
    """The per-layer values of one traced study (before setup/overhead fields).

    ``parent`` holds the benchmark process's spans, rooted at
    :data:`ROOT_LAYER`, so its self times (root included) sum to the traced
    wall time; ``workers`` holds the merged pool-worker shard snapshots.
    """
    self_s, calls, counters = parent.self_s, parent.calls, parent.counters
    values: Dict[str, float] = {}
    for layer in _CALLS_AND_SELF:
        values[f"{layer}.calls"] = calls.get(layer, 0) + workers.calls.get(layer, 0)
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in _SELF_ONLY:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in _SHARES:
        values[f"{layer}.share"] = self_s.get(layer, 0.0) / wall_s
    for name in _COUNTERS:
        values[name] = counters.get(name, 0) + workers.counters.get(name, 0)
    drawn = values["processor.elements_drawn"]
    values["processor.fault_yield"] = values["processor.faults_injected"] / drawn if drawn else 0.0
    values["processor.sim_flops_per_s"] = values["processor.sim_flops"] / wall_s
    for name in ("store.write.bytes", "store.read.bytes"):
        values[name] = counters.get(name, 0) + workers.counters.get(name, 0)
    values["campaign.pool.wait_s"] = self_s.get("campaign.pool", 0.0)
    busy = workers.counters.get("workers.busy_s", 0.0)
    capacity = counters.get("campaign.pool.capacity_s", 0.0)
    values["campaign.pool.utilisation"] = busy / capacity if capacity else 0.0
    values["workers.busy_s"] = busy
    for group in WORKER_GROUPS:
        group_s = sum(v for k, v in workers.self_s.items() if _group(k) == group)
        values[f"workers.{group}.share"] = group_s / busy if busy else 0.0
    values["trace.wall_s"] = wall_s
    values["trace.unattributed_s"] = self_s.get(ROOT_LAYER, 0.0)
    values["trace.wrapped_calls"] = sum(
        n for layer, n in calls.items() if layer != ROOT_LAYER
    ) + sum(workers.calls.values())
    return values
