"""Self-time arithmetic, patching, and draw counting of the layer tracer."""

import sys
import types

import numpy as np
import pytest

from layertrace import LayerTrace, Patcher, pcg64_distance


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    trace = LayerTrace(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(0.5)
        wrapped_leaf()

    def outer():
        clock.advance(3.0)
        wrapped_middle()

    wrapped_leaf = trace.wrap("c", leaf)
    wrapped_middle = trace.wrap("b", middle)
    wrapped_outer = trace.wrap("a", outer)
    with trace.span("root"):
        clock.advance(0.25)
        wrapped_outer()

    assert trace.self_s == {"c": 4.0, "b": 1.5, "a": 3.0, "root": 0.25}
    assert trace.calls == {"c": 2, "b": 1, "a": 1, "root": 1}
    # Self times telescope: together they are the root span's duration.
    assert sum(trace.self_s.values()) == pytest.approx(clock.now)


def test_same_layer_recursion_and_exceptions_keep_the_stack_balanced():
    clock = FakeClock()
    trace = LayerTrace(clock=clock)

    def inner():
        clock.advance(1.0)
        raise ValueError("boom")

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            wrapped_inner()

    wrapped_inner = trace.wrap("x", inner)
    wrapped_outer = trace.wrap("x", outer)
    wrapped_outer()
    assert trace.self_s == {"x": 2.0}
    assert trace.calls == {"x": 2}
    assert trace._stack == []


def test_merge_adds_snapshots():
    first, second = LayerTrace(), LayerTrace()
    first.self_s, first.calls, first.counters = {"a": 1.0}, {"a": 2}, {"n": 3}
    second.merge(first.snapshot())
    second.merge(first.snapshot())
    assert second.self_s == {"a": 2.0} and second.calls == {"a": 4}
    assert second.counters == {"n": 6}


def test_patcher_rebinds_every_package_copy_and_restores():
    source = types.ModuleType("fakepkg.source")
    importer = types.ModuleType("fakepkg.importer")

    def work():
        return 7

    work.__module__ = "fakepkg.source"
    source.work = work
    importer.work = work  # a ``from fakepkg.source import work`` copy

    class Box:
        def method(self):
            return 3

    source.Box = Box
    sys.modules.update({"fakepkg.source": source, "fakepkg.importer": importer})
    try:
        trace = LayerTrace()
        patcher = Patcher(trace, package="fakepkg")
        assert patcher.function("layer.f", source, "work") == 2
        patcher.method("layer.m", Box, "method")
        assert importer.work() == 7 and source.work() == 7 and Box().method() == 3
        assert trace.calls == {"layer.f": 2, "layer.m": 1}
        patcher.restore()
        assert importer.work is work and source.work is work
        assert Box.__dict__["method"].__name__ == "method"
        assert not hasattr(Box.__dict__["method"], "__perfbench_layer__")
    finally:
        for name in ("fakepkg.source", "fakepkg.importer"):
            sys.modules.pop(name, None)


def test_pcg64_distance_counts_draws():
    generator = np.random.default_rng(2010)
    start = generator.bit_generator.state["state"]
    generator.random(1234)
    generator.random(out=np.empty(17))
    end = generator.bit_generator.state["state"]
    assert pcg64_distance(start["state"], end["state"], start["inc"]) == 1251
    assert pcg64_distance(start["state"], start["state"], start["inc"]) == 0
