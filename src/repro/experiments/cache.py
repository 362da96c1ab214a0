"""Content addressing and atomic publication for the on-disk artifact store.

:func:`spec_hash` names an artifact by the SHA-256 of its canonicalized key
payload, and :func:`atomic_write_json` publishes it.  The payload is an
arbitrary JSON-serializable mapping supplied by the caller — for figure
reproductions it combines the sweep fingerprint (series, rates, trials,
seed, fault model, and for scenario grids every scenario's resolved
configuration: model name, dtype, the full bit-position pmf, pinned rate or
voltage) with the figure's workload parameters — so any change to the spec
changes the hash, while re-running an unchanged spec is a cheap file read.
Executor and compute-backend choice are deliberately *not* part of the key:
both are bit-identical by contract, so a figure computed one way satisfies
a later request made another way.  The trial-budget policy *is* part of
the key — an adaptive
(:class:`~repro.experiments.sequential.ConfidenceTarget`) sweep fingerprint
carries a ``budget`` block, so adaptive and fixed-count runs can never
collide on an entry, while no-policy fingerprints (and their hashes) are
byte-identical to historical ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any, Mapping

__all__ = ["spec_hash", "atomic_write_json"]


def atomic_write_json(path: Path, entry: Mapping[str, Any]) -> Path:
    """Publish ``entry`` as JSON at ``path`` via a per-writer atomic rename.

    The write goes through a temporary file unique to this writer (pid +
    uuid) followed by an atomic rename, so a crashed writer cannot leave a
    truncated entry behind and two processes publishing the same path
    concurrently cannot interleave their writes into one corrupt file (each
    publishes its own complete file; last rename wins).  This is the single
    write discipline of the on-disk artifact store
    (:class:`~repro.experiments.campaign.ShardStore`).

    No ``default=str`` fallback: a non-JSON value in the entry must fail
    loudly at store time, not round-trip as its ``str()``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        tmp_path.write_text(json.dumps(entry, sort_keys=True))
        tmp_path.replace(path)
    finally:
        # A failed replace (or an exception mid-write) must not leave the
        # tmp file behind to accumulate in the artifact directory.
        tmp_path.unlink(missing_ok=True)
    return path


def _canonical_json(payload: Mapping[str, Any]) -> str:
    """Strict canonical JSON form of a cache-key payload.

    Canonicalization must be *injective* on distinct payloads: a lenient
    ``default=str`` fallback would stringify non-JSON values, making e.g. a
    float and its string form (or any two objects with equal ``str()``) hash
    identically and silently serve one spec's figure for another.  Payload
    values must therefore already be JSON-serializable (and finite — JSON has
    no NaN/inf); anything else raises ``TypeError``/``ValueError`` so the
    caller converts explicitly (as ``SweepSpec.fingerprint`` does for fault
    models).
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as error:
        raise type(error)(
            f"cache-key payload is not strictly JSON-serializable: {error}; "
            "convert non-JSON values (objects, NaN/inf) explicitly before "
            "keying the cache"
        ) from error


def spec_hash(payload: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a cache-key payload.

    Raises ``TypeError``/``ValueError`` when the payload contains values with
    no strict JSON form (see :func:`_canonical_json`) instead of hashing a
    lossy stringification.
    """
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()
