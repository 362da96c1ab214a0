"""The ``numpy`` reference backend.

This is the always-available tier: it provides *no* kernel overrides, so
every consumer runs its existing vectorized numpy code path.  Those numpy
implementations are the bit-identity reference that every other backend's
kernels are pinned against.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.backends.registry import ComputeBackend, register_backend

__all__ = ["NUMPY"]


def _load() -> Dict[str, Callable]:
    return {}


def _version() -> Optional[str]:
    return np.__version__


#: The reference tier: no kernel table, pure numpy code paths everywhere.
NUMPY = register_backend(ComputeBackend("numpy", load=_load, version=_version))
