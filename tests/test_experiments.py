"""Tests for the experiment harness (runner, reporting, figure generators)
and the correctness contract of the on-disk figure store.

Figure generators are exercised at miniature scale so the whole module runs
in seconds; the benchmark harness runs them at representative scale.
"""

import math
import threading

import pytest

from repro.experiments import figures
from repro.experiments.cache import spec_hash
from repro.experiments.campaign import ShardStore
from repro.experiments.reporting import figure_to_rows, format_figure, save_figure_report
from repro.experiments.runner import FigureResult, SeriesResult, run_fault_rate_sweep


class TestRunner:
    def test_sweep_shapes_and_determinism(self):
        def metric(proc, rng):
            return proc.fault_rate + 0.001 * rng.random()

        series = run_fault_rate_sweep(
            {"a": metric, "b": metric}, fault_rates=(0.0, 0.1), trials=3, seed=7
        )
        assert len(series) == 2
        assert series[0].fault_rates == [0.0, 0.1]
        assert all(len(v) == 3 for v in series[0].values)
        repeat = run_fault_rate_sweep(
            {"a": metric, "b": metric}, fault_rates=(0.0, 0.1), trials=3, seed=7
        )
        assert series[0].values == repeat[0].values

    def test_processors_have_requested_fault_rate(self):
        observed = []

        def metric(proc, rng):
            observed.append(proc.fault_rate)
            return 0.0

        run_fault_rate_sweep({"x": metric}, fault_rates=(0.05,), trials=2, seed=0)
        assert observed == [0.05, 0.05]

    def test_series_success_rates(self):
        series = SeriesResult(name="s", fault_rates=[0.0], values=[[1.0, 0.0, 1.0, 1.0]])
        assert series.success_rates() == [0.75]
        assert series.means() == [pytest.approx(0.75)]

    def test_figure_result_lookup(self):
        figure = FigureResult("F", "t", "x", "y", series=[SeriesResult(name="s")])
        assert figure.series_named("s").name == "s"
        with pytest.raises(KeyError):
            figure.series_named("missing")

    def test_success_rates_empty_trials_are_nan(self):
        """A fault rate with no trials must not masquerade as 0 % success."""
        series = SeriesResult(name="s", fault_rates=[0.0, 0.1], values=[[], [1.0]])
        rates = series.success_rates()
        assert math.isnan(rates[0])
        assert rates[1] == 1.0

    def test_empty_series_aggregates(self):
        series = SeriesResult(name="s")
        assert series.success_rates() == []
        assert series.means() == []
        assert series.summaries() == []

    def test_figure_fault_rates_skip_empty_series(self):
        empty = SeriesResult(name="pending")
        filled = SeriesResult(name="done", fault_rates=[0.0, 0.1], values=[[1.0], [0.5]])
        figure = FigureResult("F", "t", "x", "y", series=[empty, filled])
        assert figure.fault_rates == [0.0, 0.1]
        assert FigureResult("F", "t", "x", "y").fault_rates == []
        assert FigureResult("F", "t", "x", "y", series=[empty]).fault_rates == []


class TestReporting:
    def _figure(self):
        series = SeriesResult(name="robust", fault_rates=[0.0, 0.1], values=[[1.0], [0.5]])
        other = SeriesResult(name="base", fault_rates=[0.0, 0.1], values=[[1.0], [0.0]])
        return FigureResult("Figure X", "demo", "fault rate", "success", series=[series, other])

    def test_rows_layout(self):
        rows = figure_to_rows(self._figure())
        assert rows[0] == ["fault rate", "robust", "base"]
        assert len(rows) == 3

    def test_format_contains_series(self):
        text = format_figure(self._figure())
        assert "robust" in text and "base" in text and "Figure X" in text

    def test_save_report(self, tmp_path):
        path = save_figure_report(self._figure(), tmp_path / "fig.txt")
        assert path.exists()
        assert "demo" in path.read_text()


class TestFigureGenerators:
    def test_figure_5_1(self):
        figure = figures.figure_5_1()
        assert {s.name for s in figure.series} == {"Measured", "Emulated"}
        for series in figure.series:
            assert sum(v[0] for v in series.values) == pytest.approx(1.0)

    def test_figure_5_2(self):
        figure = figures.figure_5_2(n_points=8)
        rates = [v[0] for v in figure.series[0].values]
        assert rates == sorted(rates)  # error rate grows as voltage drops

    def test_figure_6_1_miniature(self):
        figure = figures.figure_6_1(trials=1, iterations=300, fault_rates=(0.0,))
        assert {s.name for s in figure.series} == {"Base", "SGD", "SGD+AS,LS", "SGD+AS,SQS"}
        assert figure.series_named("Base").values[0][0] == 1.0

    def test_figure_6_2_miniature(self):
        figure = figures.figure_6_2(trials=1, iterations=150, fault_rates=(0.0,), shape=(30, 5))
        assert figure.series_named("Base: SVD").values[0][0] < 1e-2

    def test_figure_6_3_miniature(self):
        figure = figures.figure_6_3(
            trials=1, iterations=150, fault_rates=(0.0,), signal_length=120, n_taps=6
        )
        assert figure.series_named("Base").values[0][0] < 1e-4

    def test_figure_6_4_miniature(self):
        figure = figures.figure_6_4(trials=1, iterations=400, fault_rates=(0.0,))
        assert figure.series_named("Base").values[0][0] == 1.0

    def test_figure_6_6_miniature(self):
        figure = figures.figure_6_6(trials=1, fault_rates=(0.0,), shape=(30, 5))
        assert figure.series_named("CG, N=10").values[0][0] < 1e-2

    def test_eigen_study_miniature(self):
        figure = figures.eigen_study(trials=1, iterations=30, fault_rates=(0.0,))
        assert {s.name for s in figure.series} == {"Power, k=1", "Power+deflation, k=2"}
        assert figure.series_named("Power, k=1").values[0][0] < 0.05

    def test_maxflow_study_miniature(self):
        figure = figures.maxflow_study(trials=1, iterations=200, fault_rates=(0.0,))
        assert {s.name for s in figure.series} == {"Base", "SGD,SQS", "SGD+AS,SQS"}
        assert figure.series_named("Base").values[0][0] < 1e-3

    def test_apsp_study_miniature(self):
        figure = figures.apsp_study(trials=1, iterations=200, fault_rates=(0.0,))
        assert {s.name for s in figure.series} == {"Base", "SGD,SQS", "SGD+AS,SQS"}
        assert figure.series_named("Base").values[0][0] < 1e-3

    def test_svm_study_miniature(self):
        figure = figures.svm_study(
            trials=1, iterations=60, fault_rates=(0.0,), n_samples=20, n_features=3
        )
        names = {s.name for s in figure.series}
        assert names == {"Base: Pegasos", "SGD,LS", "SGD+AS,LS"}
        assert figure.series_named("SGD,LS").values[0][0] >= 0.9

    def test_flop_cost_comparison(self):
        figure = figures.flop_cost_comparison(shape=(30, 5))
        names = {s.name for s in figure.series}
        assert "CG, N=10" in names and "Base: Cholesky" in names
        cg_flops = figure.series_named("CG, N=10").values[0][0]
        svd_flops = figure.series_named("Base: SVD").values[0][0]
        assert cg_flops < svd_flops  # CG is the cheaper accurate solver (§6.3)

    def test_overhead_table_shows_large_overheads(self):
        figure = figures.overhead_table(iterations_sorting=300, iterations_lsq=100)
        ratios = {s.name: s.values[0][0] for s in figure.series}
        assert ratios["sorting"] > 10.0
        assert ratios["matching"] > 10.0


class TestFigureStoreCorrectness:
    """The figure store's two correctness contracts: injective keys, atomic stores."""

    def test_spec_hash_distinguishes_value_types(self):
        """Regression: default=str made a float and its string form collide."""
        assert spec_hash({"a": 1.0}) != spec_hash({"a": "1.0"})
        assert spec_hash({"a": [1, 2]}) != spec_hash({"a": "[1, 2]"})

    def test_spec_hash_rejects_non_json_payloads(self):
        """Regression: objects with equal str() silently hashed identically."""

        class Opaque:
            def __str__(self):
                return "same"

        with pytest.raises(TypeError, match="not strictly JSON-serializable"):
            spec_hash({"a": Opaque()})
        # NaN has no strict JSON form either (json would emit non-standard
        # text); payloads must convert it explicitly.
        with pytest.raises(ValueError, match="not strictly JSON-serializable"):
            spec_hash({"a": float("nan")})

    def test_spec_hash_accepts_figure_cache_payloads(self):
        """Every registered kernel's cache payload must stay hashable."""
        from repro.experiments import kernels

        for spec in kernels.list_kernels():
            payload = {
                "figure": spec.figure,
                "params": spec.cache_params(spec.reduced_kwargs(3, 0.25)),
            }
            assert len(spec_hash(payload)) == 64, spec.name

    def test_concurrent_stores_of_one_entry_never_publish_corruption(self, tmp_path):
        """Regression: a shared .tmp path let two writers interleave writes.

        Many threads repeatedly store the same spec while a reader keeps
        loading it; with per-writer tmp files every observed entry is a
        complete, loadable figure.
        """
        store = ShardStore(tmp_path)
        key = {"figure": "demo", "trials": 3}
        figure = FigureResult(
            "F", "t" * 512, "x", "y",
            series=[SeriesResult(name="s", fault_rates=[0.0], values=[[1.0]])],
        )
        errors = []

        def writer():
            for _ in range(25):
                store.store_figure(key, figure)

        def reader():
            for _ in range(100):
                loaded = store.load_figure(key)
                if loaded is not None and loaded.title != figure.title:
                    errors.append("torn read")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = store.load_figure(key)
        assert final is not None and final.title == figure.title
        # No per-writer tmp files may be left behind.
        assert not list(tmp_path.rglob("*.tmp"))
