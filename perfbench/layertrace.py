"""Outside-in layer tracer: per-layer call counts and self time.

The tracer never touches ``src/``.  It wraps the public entry points of each
layer of the ``repro`` package from here — class attributes for methods,
and for module functions every ``repro.*`` module binding that holds the
function (a ``from x import f`` copy does not see a patch on ``x``).  Each
wrapped call is one span; a layer's *self time* is the span's duration minus
the time covered by the spans it encloses.  Spans are folded into per-layer
accumulators as they close, so there are no per-call events and memory stays
constant however many calls are made.

The tracer assumes one thread per process, which holds for every workload
here: the campaign pool runs worker *processes*, each with its own tracer
state (``layers.py`` resets it when a shard starts and flushes it when
the shard ends).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Hooks: ``before(args, kwargs) -> token`` runs outside the span, before the
# call; ``after(token, args, kwargs, result, elapsed)`` runs after the span
# has closed.  Their own cost lands in the enclosing span's self time.
Before = Callable[[tuple, dict], Any]
After = Callable[[Any, tuple, dict, Any, float], None]


class LayerTrace:
    """Per-layer accumulators: calls, self seconds, and named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[List[float]] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _close(self, layer: str, frame: List[float], elapsed: float) -> None:
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - frame[0]
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][0] += elapsed

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """An explicit span, for the benchmark's own root section."""
        frame = [0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            self._close(layer, frame, elapsed)

    def wrap(
        self,
        layer: str,
        func: Callable,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> Callable:
        """``func`` wrapped as a span of ``layer``."""
        trace = self
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stack = trace._stack
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                trace._close(layer, frame, elapsed)
            if after is not None:
                after(token, args, kwargs, result, elapsed)
            return result

        traced.__perfbench_layer__ = layer
        return traced

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Fold another tracer's snapshot (e.g. a pool worker's) into this one."""
        for name, value in snapshot["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in snapshot["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        for name, value in snapshot["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value


class Patcher:
    """Applies wrappers to classes and modules, and undoes them in reverse."""

    def __init__(self, trace: LayerTrace, package: str = "repro") -> None:
        self.trace = trace
        self.package = package
        self._undo: List[Tuple[Any, str, Any]] = []
        self._seen: set = set()

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, layer: str, cls: type, name: str,
               before: Optional[Before] = None, after: Optional[After] = None) -> None:
        """Wrap a plain function defined on ``cls`` itself."""
        original = cls.__dict__[name]
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{name} is not a plain method")
        if id(original) in self._seen:
            return
        self._seen.add(id(original))
        self._set(cls, name, self.trace.wrap(layer, original, before, after))

    def function(self, layer: str, module: Any, name: str,
                 before: Optional[Before] = None, after: Optional[After] = None) -> int:
        """Wrap a module function and rebind every package copy of it.

        Returns how many module bindings were replaced.
        """
        original = getattr(module, name)
        if id(original) in self._seen:
            return 0
        self._seen.add(id(original))
        wrapped = self.trace.wrap(layer, original, before, after)
        rebound = 0
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)
                    rebound += 1
        return rebound

    def module_functions(self, layer: str, module: Any) -> None:
        """Wrap the public functions *defined* in ``module``."""
        names = [
            name for name, value in vars(module).items()
            if not name.startswith("_")
            and callable(value)
            and getattr(value, "__module__", None) == module.__name__
            and not isinstance(value, type)
        ]
        for name in names:
            self.function(layer, module, name)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self._seen.clear()


# --------------------------------------------------------------------------- #
# Draw counting: how many 64-bit outputs a PCG64 generator produced
# --------------------------------------------------------------------------- #
#: numpy's PCG64 LCG multiplier (the 128-bit PCG default).
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def pcg64_distance(start: int, end: int, increment: int) -> int:
    """Number of LCG steps taking PCG64 state ``start`` to ``end``.

    Solves ``end = a^n start + c (a^n - 1)/(a - 1) mod 2^128`` for ``n`` one
    bit at a time (the jump-distance method of the PCG reference code), so a
    trial's draw count is read from its generator's state before and after,
    without hooking the generator.
    """
    distance, bit = 0, 1
    mult, plus = PCG64_MULTIPLIER, increment
    state = start
    while state != end:
        if (state & bit) != (end & bit):
            state = (state * mult + plus) & _MASK128
            distance |= bit
        bit <<= 1
        if bit > _MASK128:
            raise ValueError("states are not on one PCG64 stream")
        plus = ((mult + 1) * plus) & _MASK128
        mult = (mult * mult) & _MASK128
    return distance
