"""Put the benchmark modules and the repository sources on ``sys.path``.

Run from the repository root:  ``python -m pytest perfbench/tests -q``
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)
# The cnative extension compiles into the benchmark's build directory.
os.environ.setdefault("REPRO_CNATIVE_CACHE", str(ROOT / ".bench_build" / "repro-cnative"))
