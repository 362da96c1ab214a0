"""The benchmark's two study workloads, their reference paths and digests.

Each workload is one *study* a user of the repository waits for, run closed
loop (the next study starts when the previous one returns) from a single
process:

``lsq-baselines``
    Figure 6.6 (CGNR vs the QR/SVD/Cholesky baselines, 100x10) and
    Figure 6.2 (the SVD baseline vs SGD least squares), on
    ``ExperimentEngine("vectorized")`` with the numpy backend, no cache,
    store or pool.
``voltage-campaign``
    Sorting and matching, series ``Base`` and ``SGD+AS,SQS``, crossed with
    voltage-pinned scenarios from 0.80 V to 0.60 V, on the ``cnative``
    backend: a series-granularity campaign on the 2-worker process pool, a
    resubmission that must reuse every shard, and a critical-voltage
    bisection per robust series on the serial pool, all against one fresh
    ``ShardStore``.

The workload instances (arrays, graphs, matrices) are the registry's fixed
figure workloads; the benchmark seed selects the sweep seeds, i.e. every
trial's fault stream.  Each study's output is reduced to one SHA-256 over
canonical JSON of all series values (and, for the campaign, the bisection
crossings), which is compared with a digest pinned from the reference path
(``pin.py``).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

WORKLOADS = ("lsq-baselines", "voltage-campaign")

#: Input sets with a pinned digest.  ``--seed n`` selects input set
#: ``n % 16``, whose sweep seeds are ``set * block + 0 .. block - 1``.
PINNED_SEEDS = 16

#: Supply voltages of the campaign's pinned scenarios (rates 1e-5 .. 0.3).
CAMPAIGN_VOLTAGES = (0.80, 0.75, 0.70, 0.65, 0.60)
CAMPAIGN_SERIES = ("Base", "SGD+AS,SQS")
ROBUST_SERIES = "SGD+AS,SQS"
POOL_WORKERS = 2

#: Per-workload sizes.  ``bench`` is what the benchmark runs, sized so one
#: study takes about 4 s on a 2-vCPU host; ``block`` is the number of sweep
#: seeds per study.  ``tiny`` keeps the benchmark's own tests fast.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "bench": {
        "lsq-baselines": {"block": 1, "trials": 1, "cg_iterations": 10, "sgd_iterations": 300},
        "voltage-campaign": {"block": 1, "trials": 2, "iterations": 400, "search_trials": 6,
                             "threshold": 0.9, "tolerance": 0.02},
    },
    "tiny": {
        "lsq-baselines": {"block": 1, "trials": 1, "cg_iterations": 2, "sgd_iterations": 20},
        "voltage-campaign": {"block": 1, "trials": 2, "iterations": 20, "search_trials": 2,
                             "threshold": 0.5, "tolerance": 0.1},
    },
}


def canonical_digest(payload: Any) -> str:
    """SHA-256 over canonical JSON (sorted keys, exact float repr, NaN allowed)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def series_payload(series) -> List[Dict[str, Any]]:
    return [entry.to_dict() for entry in series]


@dataclass
class StudyOutput:
    """One study's result: what it computed, its digest and its own checks."""

    payload: Dict[str, Any]
    trials: int
    problems: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return canonical_digest(self.payload)


class Study:
    """Base class: ``setup`` once per process, then ``run`` per repetition."""

    name = ""

    def __init__(self, seed: int, scale: str = "bench", workdir: Optional[Path] = None) -> None:
        self.seed = int(seed) % PINNED_SEEDS  # the input set
        self.params = dict(SCALES[scale][self.name])
        block = self.params["block"]
        self.seeds = [self.seed * block + offset for offset in range(block)]
        self.scale = scale
        self.workdir = Path(workdir) if workdir is not None else None
        self.setup_parts: Dict[str, float] = {}

    def planned_trials(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> StudyOutput:
        raise NotImplementedError

    def reference(self) -> StudyOutput:
        raise NotImplementedError

    def prepare(self) -> None:
        """Make a repetition's fresh inputs (outside the timed section)."""

    def cleanup(self) -> None:
        """Remove what a repetition left behind (outside the timed section)."""

    def _timed(self, part: str, build: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        value = build()
        self.setup_parts[part] = self.setup_parts.get(part, 0.0) + time.perf_counter() - started
        return value

    def _warm_backend(self, name: str) -> None:
        from repro.backends import get_backend

        def warm():
            backend = get_backend(name)
            if not backend.available():
                raise RuntimeError(
                    f"backend {name!r} unavailable: {backend.unavailable_reason}"
                )
            backend.warmup()

        self._timed("backends.warmup_s", warm)


class LsqBaselines(Study):
    """Figures 6.6 and 6.2 on the single-process engine (numpy backend)."""

    name = "lsq-baselines"
    labels = ("figure_6_6", "figure_6_2")

    def setup(self) -> None:
        from repro.experiments.kernels import get_kernel

        self.functions = self._timed("workloads.build_s", lambda: [
            get_kernel("cg_least_squares").sweep_functions(
                cg_iterations=self.params["cg_iterations"], shape=(100, 10)
            ),
            get_kernel("least_squares_sgd").sweep_functions(
                iterations=self.params["sgd_iterations"], shape=(100, 10)
            ),
        ])
        self._warm_backend("numpy")

    def _sweeps(self) -> List[Tuple[str, Any]]:
        from repro.experiments.spec import DEFAULT_FAULT_RATES, SweepSpec

        return [
            (f"{label}@{seed}", SweepSpec(
                trial_functions=functions,
                fault_rates=DEFAULT_FAULT_RATES,
                trials=self.params["trials"],
                seed=seed,
            ))
            for seed in self.seeds
            for label, functions in zip(self.labels, self.functions)
        ]

    def planned_trials(self) -> int:
        return sum(len(sweep) for _, sweep in self._sweeps())

    def _run_with(self, executor: str) -> StudyOutput:
        from repro.experiments.engine import ExperimentEngine

        engine = ExperimentEngine(executor, backend="numpy")
        payload = {label: series_payload(engine.run_sweep(sweep)) for label, sweep in self._sweeps()}
        return StudyOutput(payload=payload, trials=self.planned_trials())

    def run(self) -> StudyOutput:
        return self._run_with("vectorized")

    def reference(self) -> StudyOutput:
        return self._run_with("serial")


class VoltageCampaign(Study):
    name = "voltage-campaign"

    def setup(self) -> None:
        from repro.experiments.kernels import WORKLOAD_SEED, get_kernel

        iterations = self.params["iterations"]

        def build():
            functions = {}
            for kernel in ("sorting", "matching"):
                mapping = get_kernel(kernel).sweep_functions(iterations=iterations)
                for series in CAMPAIGN_SERIES:
                    functions[f"{kernel}:{series}"] = mapping[series]
            return functions

        self.functions = self._timed("workloads.build_s", build)
        self.key = {
            "kernels": ["sorting", "matching"],
            "workload_seed": WORKLOAD_SEED,
            "factory": {"iterations": iterations},
        }
        self._warm_backend("cnative")
        self.repetition = 0
        # Store creation: each repetition gets a fresh directory of its own.
        self.store_root = self.workdir / f"stores-{self.seed}"
        self._timed("store_s", lambda: self._fresh_store(self.store_root / "setup"))

    def _fresh_store(self, directory: Path):
        from repro.experiments.campaign import ShardStore

        shutil.rmtree(directory, ignore_errors=True)
        store = ShardStore(directory)
        for sub in (store.shards_dir, store.campaigns_dir, store.searches_dir):
            sub.mkdir(parents=True, exist_ok=True)
        return store

    def sweep(self, seed: int, backend: str):
        from repro.experiments.scenarios import voltage_scenario
        from repro.experiments.spec import SweepSpec

        return SweepSpec(
            trial_functions=dict(self.functions),
            fault_rates=(0.0,),
            trials=self.params["trials"],
            seed=seed,
            scenarios=tuple(voltage_scenario(v) for v in CAMPAIGN_VOLTAGES),
            backend=backend,
        )

    def planned_trials(self) -> int:
        # The bisection's probe count is data-dependent; its trials are
        # counted as they run.  This is the campaign legs' fixed part.
        return sum(len(self.sweep(seed, "cnative")) for seed in self.seeds)

    def _bisect(self, store, seed: int, backend: str) -> Tuple[Dict[str, Any], int]:
        """One serial-pool bisection per robust series; (crossings, trials run)."""
        from repro.experiments.search import CriticalVoltageBisector, ProbeRunner

        driver = CriticalVoltageBisector(
            tolerance=self.params["tolerance"], threshold=self.params["threshold"],
            v_low=min(CAMPAIGN_VOLTAGES), v_high=max(CAMPAIGN_VOLTAGES),
        )
        crossings, trials = {}, 0
        for label in sorted(self.functions):
            if not label.endswith(ROBUST_SERIES):
                continue
            runner = ProbeRunner(
                store, self.functions[label], label,
                trials=self.params["search_trials"], seed=seed, backend=backend,
                key=self.key, pool="serial",
            )
            result = driver.run(runner)
            crossings[label] = {
                "status": result.status,
                "critical_voltage": result.critical_voltage,
                "lo": result.lo,
                "hi": result.hi,
                "probes": [[p.voltage, list(p.values)] for p in result.probes],
            }
            trials += runner.stats["trials_executed"]
        return crossings, trials

    def prepare(self) -> None:
        """Create this repetition's fresh store (untimed)."""
        self.repetition += 1
        self.store = self._fresh_store(self.store_root / f"rep-{self.repetition}")

    def run(self) -> StudyOutput:
        from repro.experiments.campaign import CampaignRunner, ShardPlanner

        runner = CampaignRunner(
            self.store, planner=ShardPlanner("series"), pool="process",
            workers=POOL_WORKERS,
        )
        payload: Dict[str, Any] = {}
        problems: List[str] = []
        trials = 0
        for seed in self.seeds:
            sweep = self.sweep(seed, "cnative")
            campaign = runner.submit(sweep, key=self.key)
            fresh = series_payload(campaign.run())
            fresh_stats = dict(campaign.stats)
            resumed_campaign = runner.submit(sweep, key=self.key)
            resumed = series_payload(resumed_campaign.run())
            resume_stats = dict(resumed_campaign.stats)
            crossings, search_trials = self._bisect(self.store, seed, "cnative")
            payload[str(seed)] = {"campaign": fresh, "bisection": crossings}
            trials += len(sweep) + search_trials
            shards = len(campaign.shards)
            if resumed != fresh:
                problems.append(f"seed {seed}: resumed merge differs from the fresh merge")
            if resume_stats.get("computed") != 0 or resume_stats.get("reused") != shards:
                problems.append(f"seed {seed}: resume recomputed shards ({resume_stats})")
            if fresh_stats.get("computed") != shards:
                problems.append(f"seed {seed}: fresh campaign reused shards ({fresh_stats})")
        return StudyOutput(payload=payload, trials=trials, problems=problems)

    def reference(self) -> StudyOutput:
        """Single-process vectorized engine and serial-pool bisection, numpy backend."""
        from repro.experiments.engine import ExperimentEngine

        engine = ExperimentEngine("vectorized")
        payload: Dict[str, Any] = {}
        trials = 0
        self.prepare()
        try:
            for seed in self.seeds:
                sweep = self.sweep(seed, "numpy")
                campaign = series_payload(engine.run_sweep(sweep))
                crossings, search_trials = self._bisect(self.store, seed, "numpy")
                payload[str(seed)] = {"campaign": campaign, "bisection": crossings}
                trials += len(sweep) + search_trials
        finally:
            self.cleanup()
        return StudyOutput(payload=payload, trials=trials)

    def cleanup(self) -> None:
        shutil.rmtree(self.store_root, ignore_errors=True)


STUDIES = {cls.name: cls for cls in (LsqBaselines, VoltageCampaign)}


def make_study(name: str, seed: int, scale: str = "bench", workdir: Optional[Path] = None) -> Study:
    return STUDIES[name](seed, scale=scale, workdir=workdir)
