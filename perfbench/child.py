"""One benchmark process: ``build``, ``setup`` or ``measure`` a workload.

``run.py`` starts this file as a fresh interpreter for every sample, so
set-up (imports, registry, workload build, backend warm-up, store creation)
is timed from a cold process each time.  The last stdout line is a JSON
object for the parent.

    python perfbench/child.py measure --workload lsq-baselines --seed 3 \
        --seconds 10 --trace 0 --workdir .bench_build/work
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from studies import WORKLOADS, make_study  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins.json"


def expected_digest(study, pins_path: Path = PINS) -> str:
    """The pinned reference digest, or (unpinned input) the reference run's."""
    if study.scale == "bench" and pins_path.is_file():
        pinned = json.loads(pins_path.read_text()).get(study.name, {}).get(str(study.seed))
        if pinned is not None:
            return pinned
    return study.reference().digest


def run_repetition(study, expected: str, section=contextlib.nullcontext):
    """One closed-loop repetition: (wall seconds, trials, failed trials, problems).

    Only ``study.run()`` is timed, inside ``section()`` (the traced run's
    root span); per-repetition preparation and cleanup are not.
    """
    study.prepare()
    try:
        with section():
            started = time.perf_counter()
            try:
                output = study.run()
            finally:
                wall = time.perf_counter() - started
    except Exception:  # a failed study is counted, not fatal
        study.cleanup()
        trials = study.planned_trials()
        return wall, trials, trials, [traceback.format_exc(limit=3)]
    study.cleanup()
    problems = list(output.problems)
    if output.digest != expected:
        problems.append(f"digest {output.digest[:16]} != expected {expected[:16]}")
    return wall, output.trials, output.trials if problems else 0, problems


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_facts() -> dict:
    import os
    import platform

    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        import cffi

        facts["cffi"] = cffi.__version__
    except ImportError:
        facts["cffi"] = None
    from repro.backends import get_backend

    for name in ("numpy", "cnative"):
        backend = get_backend(name)
        facts[f"backend.{name}"] = backend.version() if backend.available() else None
    return facts


def measure(args) -> dict:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    study = make_study(args.workload, args.seed, scale=args.scale, workdir=workdir)
    study.setup()
    setup_s = time.perf_counter() - STARTED
    expected = expected_digest(study)

    record = {"setup_s": setup_s, "setup_parts": study.setup_parts,
              "input_set": study.seed, "sweep_seeds": study.seeds,
              "expected_digest": expected}
    walls, trials, failed, problems = [], [], 0, []

    def loop(deadline: float, section=contextlib.nullcontext) -> list:
        nonlocal failed
        samples = []
        while not samples or time.perf_counter() < deadline:
            wall, n, bad, issues = run_repetition(study, expected, section)
            samples.append(wall)
            trials.append(n)
            failed += bad
            problems.extend(issues)
        return samples

    started = time.perf_counter()
    # Warm-up: one checked but untimed repetition lets lazy set-up finish.
    _, warmup_trials, bad, issues = run_repetition(study, expected)
    failed += bad
    problems.extend(issues)
    if not args.trace:
        walls = loop(started + args.seconds)
    else:
        from layers import ROOT_LAYER, Installation, layer_metrics, per_layer_units
        from layertrace import LayerTrace

        walls = loop(started + args.seconds / 2)
        trace = LayerTrace()
        worker_dir = workdir / "workers"
        worker_dir.mkdir(parents=True, exist_ok=True)
        installation = Installation(trace, worker_dir).install()
        try:
            traced_walls = loop(started + args.seconds, lambda: trace.span(ROOT_LAYER))
        finally:
            installation.restore()
        installation.ledger.settle(trace)
        workers = installation.collect_workers()
        reps = len(traced_walls)
        for tracer in (trace, workers):
            tracer.self_s = {k: v / reps for k, v in tracer.self_s.items()}
            tracer.calls = {k: v / reps for k, v in tracer.calls.items()}
            tracer.counters = {k: v / reps for k, v in tracer.counters.items()}
        traced_wall = sum(trace.self_s.values())
        layers = layer_metrics(trace, workers, traced_wall)
        layers["workloads.build_s"] = study.setup_parts.get("workloads.build_s", 0.0)
        layers["backends.warmup_s"] = study.setup_parts.get("backends.warmup_s", 0.0)
        layers["trace.overhead_s"] = traced_wall - statistics.fmean(walls)
        record["layers"] = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in per_layer_units().items()
        }

    record.update(
        walls=walls,
        trials=trials,
        attempted=warmup_trials + sum(trials),
        failed=failed,
        problems=problems[:10],
        peak_rss_mb=peak_rss_mb(),
        host=host_facts(),
    )
    return record


def setup_only(args) -> dict:
    study = make_study(args.workload, args.seed, scale=args.scale, workdir=Path(args.workdir))
    study.setup()
    setup_s = time.perf_counter() - STARTED
    study.cleanup()
    return {"setup_s": setup_s, "setup_parts": study.setup_parts}


def build(args) -> dict:
    """Compile the cnative extension into its cache (not part of any timing)."""
    from repro.backends import get_backend

    backend = get_backend("cnative")
    if not backend.available():
        raise SystemExit(f"cnative backend unavailable: {backend.unavailable_reason}")
    return {"build_s": backend.warmup()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("build", "setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench")
    parser.add_argument("--workdir", default=".bench_build/work")
    args = parser.parse_args(argv)
    handler = {"build": build, "setup": setup_only, "measure": measure}[args.mode]
    print(json.dumps(handler(args), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

