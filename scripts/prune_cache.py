#!/usr/bin/env python
"""Garbage-collect artifact-store directories.

The :class:`~repro.experiments.campaign.store.ShardStore` (shards, figures
and manifests) accumulates standalone JSON artifacts that are never deleted
by the writers — this tool is the retention policy, applied explicitly:

    PYTHONPATH=src python scripts/prune_cache.py .repro-cache --max-age 7d
    PYTHONPATH=src python scripts/prune_cache.py .repro-cache/campaigns \
        --max-bytes 50m --dry-run

``--max-age`` accepts plain seconds or ``30m`` / ``12h`` / ``7d`` suffixes;
``--max-bytes`` accepts plain bytes or ``k`` / ``m`` / ``g`` suffixes.  Age
pruning runs first; if the survivors still exceed the size budget, the
oldest go next (mtime order, path tie-break).  Orphaned ``*.tmp`` files from
crashed writers are collected too.  Every artifact is standalone, so
removal can only ever cost recomputation, never correctness.

Campaign and search **manifests** (``campaigns/``, ``searches/``) are kept
by default: they are tiny, and they are what lets ``run_campaign.py
--status`` / ``run_search.py --status`` report pruned shards as *pending*
(recomputable) instead of forgetting the run ever existed.  Pass
``--prune-manifests`` to reclaim them too, accepting that status queries
for those ids will answer "unknown" afterwards.

Exit codes: 0 success (including nothing to remove); 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.campaign import prune_artifacts

_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
_SIZE_UNITS = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_age(text: str) -> float:
    """``"45"``/``"45s"``/``"30m"``/``"12h"``/``"7d"`` → seconds."""
    raw = text.strip().lower()
    scale = 1.0
    if raw and raw[-1] in _AGE_UNITS:
        scale = _AGE_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r}: expected seconds or <n>[s|m|h|d]"
        ) from None
    if seconds < 0:
        raise argparse.ArgumentTypeError(f"age must be non-negative, got {text!r}")
    return seconds


def parse_bytes(text: str) -> int:
    """``"1048576"``/``"512k"``/``"50m"``/``"2g"`` → bytes."""
    raw = text.strip().lower()
    scale = 1
    if raw and raw[-1] in _SIZE_UNITS:
        scale = _SIZE_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        size = int(float(raw) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}: expected bytes or <n>[k|m|g]"
        ) from None
    if size < 0:
        raise argparse.ArgumentTypeError(f"size must be non-negative, got {text!r}")
    return size


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("directories", nargs="+", metavar="DIR",
                        help="artifact directories to prune (ShardStore "
                        "roots or subdirectories)")
    parser.add_argument("--max-age", type=parse_age, default=None, metavar="AGE",
                        help="remove artifacts older than AGE "
                        "(seconds, or 30m / 12h / 7d)")
    parser.add_argument("--max-bytes", type=parse_bytes, default=None,
                        metavar="SIZE",
                        help="then remove oldest artifacts until each "
                        "directory fits SIZE (bytes, or 512k / 50m / 2g)")
    parser.add_argument("--prune-manifests", action="store_true",
                        help="also remove campaign/search manifests (by "
                        "default they survive so --status can report pruned "
                        "shards as pending)")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be removed without deleting")
    parser.add_argument("--verbose", action="store_true",
                        help="list every removed artifact path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_age is None and args.max_bytes is None:
        print("[prune] nothing to do: pass --max-age and/or --max-bytes",
              file=sys.stderr)
        return 2
    verb = "would remove" if args.dry_run else "removed"
    for directory in args.directories:
        report = prune_artifacts(
            directory,
            max_age_seconds=args.max_age,
            max_bytes=args.max_bytes,
            dry_run=args.dry_run,
            keep_manifests=not args.prune_manifests,
        )
        print(f"[prune] {directory}: examined {report.examined}, {verb} "
              f"{report.removed_count} ({report.freed_bytes} bytes), kept "
              f"{report.kept} ({report.kept_bytes} bytes)")
        if args.verbose:
            for path in report.removed:
                print(f"[prune]   {verb}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
