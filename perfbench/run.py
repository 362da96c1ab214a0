#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload lsq-baselines --seed 1 --seconds 45 --trace 0

Workloads are ``lsq-baselines`` and ``voltage-campaign`` (see ``studies.py``
and ``PREDICTIONS.md``).  The run

1. builds the compiled backend into ``.bench_build/`` (untimed);
2. times set-up in ``SETUP_SAMPLES`` fresh processes and reports the median;
3. runs one untimed warm-up repetition, then the workload's study closed
   loop, in one fresh process for ``--seconds`` seconds in all, checking
   every repetition's output digest against the digest pinned from the
   reference path, and reports the median wall time (``--trace 0``), or
   with ``--trace 1`` runs it half untraced and half with every layer's
   entry points wrapped, and reports the per-layer table.

Host facts are printed on the line before the result.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 on a
completed run (even one whose outputs were wrong: ``correct`` says so),
2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from studies import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"

#: Fresh-process set-up samples per run, besides the measuring process's own.
SETUP_SAMPLES = 3
BUILD_TIMEOUT_S = 600
SETUP_TIMEOUT_S = 30
#: Slack past ``--seconds`` for the measuring process (set-up, the last
#: repetition's overrun, and the host-facts probe).
MEASURE_SLACK_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env["REPRO_CNATIVE_CACHE"] = str(BUILD_DIR / "repro-cnative")
    env["TMPDIR"] = str(BUILD_DIR / "tmp")
    env["PYTHONHASHSEED"] = "0"
    # Single-threaded BLAS: on a few cores, idle BLAS threads of the
    # measuring process and its pool workers would compete for them.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(mode: str, args, timeout: float) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "child.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--workdir", str(BUILD_DIR / "work"),
    ]
    # A session of its own, so a timeout also stops the child's pool workers.
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"perfbench: child {mode} exceeded {timeout:.0f} s")
    finally:
        try:  # nothing of the child's session may outlive it
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"perfbench: child {mode} failed with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def source_facts() -> dict:
    """Commit (when the tree is a git checkout) and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(measured: dict, setup_samples: list) -> dict:
    walls = measured["walls"]
    untraced_trials = measured["trials"][: len(walls)]
    rates = [n / wall for n, wall in zip(untraced_trials, walls)]
    ok = 1.0 - measured["failed"] / measured["attempted"]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "trials_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MiB"},
        "ok_share": {"value": ok, "unit": "fraction"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)

    run_child("build", args, BUILD_TIMEOUT_S)
    setup_samples = [
        run_child("setup", args, SETUP_TIMEOUT_S)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    measured = run_child("measure", args, args.seconds + MEASURE_SLACK_S)
    setup_samples.append(measured["setup_s"])

    metrics = measured["layers"] if args.trace else end_to_end(measured, setup_samples)
    host = dict(measured["host"], **source_facts(), workload=args.workload,
                seed=args.seed, input_set=measured["input_set"],
                sweep_seeds=measured["sweep_seeds"], trace=args.trace,
                repetitions=len(measured["trials"]), walls=measured["walls"])
    for problem in measured["problems"]:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print(json.dumps({"host": host}, sort_keys=True))
    print(json.dumps({
        "correct": measured["failed"] == 0,
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
