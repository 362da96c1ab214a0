"""Regenerate ``pins.json``: reference-path digests for every pinned input.

The reference path is the ``serial`` executor for ``lsq-baselines``, and
the single-process ``vectorized`` engine (numpy backend) plus a serial-pool
bisection for ``voltage-campaign`` — never the path the benchmark times, so
a matching digest is a bit-identity check.
Run from the repository root after a change to the studies' sizes:

    PYTHONPATH=src:perfbench python perfbench/pin.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from studies import PINNED_SEEDS, WORKLOADS, make_study

PINS = Path(__file__).resolve().parent / "pins.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for name in args.workload or WORKLOADS:
        entry = pins.setdefault(name, {})
        with tempfile.TemporaryDirectory(dir=Path.cwd() / ".bench_build") as workdir:
            for seed in range(PINNED_SEEDS):
                study = make_study(name, seed, workdir=Path(workdir))
                study.setup()
                entry[str(seed)] = study.reference().digest
                print(f"{name} seed {seed}: {entry[str(seed)][:16]}", flush=True)
        # Re-read before writing so concurrent runs for other workloads merge.
        latest = json.loads(PINS.read_text()) if PINS.is_file() else {}
        latest[name] = entry
        PINS.write_text(json.dumps(latest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
