"""Search-driven campaigns: probe the operating space, don't enumerate it.

This package sits **above** the campaign layer: where a campaign expands a
:class:`~repro.experiments.spec.SweepSpec` into every shard of a fixed grid,
a :class:`~repro.experiments.search.drivers.SearchDriver` decides *which
point to run next* from the answers so far.  Each probe is the smallest
possible campaign — a single-point sweep planned into one content-addressed
shard (:mod:`~repro.experiments.search.probes`) — so the ordinary
:class:`~repro.experiments.campaign.ShardStore` doubles as a point-level
memo: re-running a completed search recomputes zero probes, concurrent
searches dedupe, and a bisection that lands on a point some prior grid
already computed reuses it.

Drivers (:mod:`~repro.experiments.search.drivers`):

* :class:`CriticalVoltageBisector` — bracket + bisect the voltage axis to
  each series' success-rate crossing, O(log 1/tol) probes vs O(grid).
* :class:`ParetoTracer` — the energy-vs-accuracy frontier, refining only
  segments where accuracy actually changes.
* :class:`RecipeRanker` — a successive-halving race of robustification
  recipes, pruning losers at low trial budgets.

``scripts/run_search.py`` is the CLI front-end; searches persist manifests
under ``searches/`` in the store (see :func:`search_id`), mirroring
campaign resume/status semantics.  ``docs/search.md`` documents the layer.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.experiments.cache import spec_hash

from repro.experiments.search.drivers import (
    BisectionResult,
    CriticalVoltageBisector,
    ParetoTracer,
    RecipeRanker,
    SearchDriver,
    bisect_crossing,
    bisection_probe_bound,
    successive_halving,
    trace_frontier,
)
from repro.experiments.search.probes import ProbeResult, ProbeRunner

#: Length of the (hex) search id prefix, matching campaign ids.
SEARCH_ID_LENGTH = 16

__all__ = [
    "SEARCH_ID_LENGTH",
    "search_id",
    "ProbeResult",
    "ProbeRunner",
    "SearchDriver",
    "bisect_crossing",
    "bisection_probe_bound",
    "BisectionResult",
    "CriticalVoltageBisector",
    "trace_frontier",
    "ParetoTracer",
    "successive_halving",
    "RecipeRanker",
]


def search_id(
    driver: SearchDriver,
    runners: Mapping[str, ProbeRunner],
    key: Optional[Mapping[str, Any]] = None,
) -> str:
    """Content-address a search: driver config + every entrant's probe config.

    Anything that could change the probe sequence or probe values — driver
    tolerances and ranges, series line-up, trial budgets, seeds, budget
    policy, workload key — lands in the hash, so a drifted
    configuration gets a fresh search id instead of silently inheriting an
    old manifest.  Probe *artifacts* still dedupe across different search
    ids through the shard store; only the manifest is per-configuration.
    """
    payload: Dict[str, Any] = {
        "driver": driver.fingerprint(),
        "entrants": {
            str(label): runner.fingerprint()
            for label, runner in runners.items()
        },
        "key": None if key is None else dict(key),
    }
    return spec_hash(payload)[:SEARCH_ID_LENGTH]
