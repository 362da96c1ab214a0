"""The benchmark's own contract, at tiny scale.

Run from the repository root:  ``python -m pytest perfbench/tests -q``
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from child import run_repetition
from layers import ROOT_LAYER, Installation, per_layer_units
from layertrace import LayerTrace
from studies import WORKLOADS, StudyOutput, make_study

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_names_what_the_traced_run_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"wall_s", "trials_per_s", "setup_s",
                                                       "peak_rss_mb"}
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    completed = run_bench(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    host = json.loads(lines[-2])["host"]
    for fact in ("nproc", "python", "numpy", "cffi", "backend.cnative", "src_sha256"):
        assert fact in host
    if trace:
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        assert metrics["trace.wrapped_calls"] > 0
        assert metrics["trace.unattributed_s"] < metrics["trace.wall_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced_and_self_times_sum_to_wall(workload, tmp_path):
    study = make_study(workload, 3, scale="tiny", workdir=tmp_path)
    study.setup()
    study.prepare()
    untraced = study.run()
    study.cleanup()

    trace = LayerTrace()
    installation = Installation(trace, tmp_path / "workers")
    (tmp_path / "workers").mkdir()
    installation.install()
    try:
        study.prepare()
        with trace.span(ROOT_LAYER):
            start = trace.clock()
            traced = study.run()
            wall = trace.clock() - start
        study.cleanup()
    finally:
        installation.restore()
    installation.ledger.settle(trace)
    workers = installation.collect_workers()

    assert traced.digest == untraced.digest
    assert not traced.problems and not untraced.problems
    total = sum(trace.self_s.values())
    assert total == pytest.approx(wall, rel=0.05)
    assert trace.counters["processor.sim_flops"] + workers.counters.get(
        "processor.sim_flops", 0) > 0
    if workload == "voltage-campaign":
        assert workers.counters["workers.busy_s"] > 0
        assert trace.counters["campaign.shards_reused"] > 0


def test_perturbed_output_is_caught(tmp_path):
    study = make_study("lsq-baselines", 1, scale="tiny", workdir=tmp_path)
    study.setup()
    expected = study.run().digest
    wall, trials, failed, problems = run_repetition(study, expected)
    assert failed == 0 and not problems

    honest_run = study.run

    def perturbed_run():
        output = honest_run()
        payload = json.loads(json.dumps(output.payload))
        first = next(iter(payload.values()))[0]
        first["values"][0][0] += 1e-12
        return StudyOutput(payload=payload, trials=output.trials)

    study.run = perturbed_run
    wall, trials, failed, problems = run_repetition(study, expected)
    assert failed == trials > 0
    assert any("digest" in problem for problem in problems)


def test_exits_nonzero_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    completed = run_bench("lsq-baselines", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
