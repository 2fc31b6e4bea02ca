"""Self-test of the repo benchmark.

Runs every workload at its tiny size through the same command the
benchmark is run with.  From the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from hostspeed import REFERENCE_S  # noqa: E402
from run import WORKLOADS, run_pass, timed_metrics  # noqa: E402
from tracing import layer_of  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_run_py_accepts():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    stdout, result = tiny_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
        assert metric["name"] in stdout
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _stdout, result = tiny_run(workload, 1)
    assert result["correct"]
    names = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: printed["unit"]
            for name, printed in result["metrics"].items()} == names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reproduces_untraced_outputs_and_sim_counts(workload):
    untraced = run_pass(workload, 5, "tiny", False, 170)
    traced = run_pass(workload, 5, "tiny", True, 170)
    assert traced["outputs"] == untraced["outputs"]
    assert traced["sim"] == untraced["sim"]
    assert traced["sim"]["sim.cycles"] > 0
    assert traced["restored"] and untraced["restored"]
    assert traced["silent_spans"] == []


def test_host_seconds_are_scaled_to_the_reference_speed():
    # A pass on a host running at half the reference speed.
    slow = {"wall_s": 2.0, "setup_s": 0.1, "rss_mb": 30.0,
            "reference_s": [1.5 * REFERENCE_S, 2.5 * REFERENCE_S],
            "sim": {"sim.cycles": 4e6}}
    metrics = timed_metrics([slow] * 3)
    assert metrics["wall_s"]["value"] == pytest.approx(1.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.05)
    assert metrics["sim_mcycles_per_s"]["value"] == pytest.approx(4.0)
    assert metrics["rss_peak_mb"]["value"] == 30.0


def test_calls_by_layer_repeat_exactly():
    first = run_pass("serve-kv", 5, "tiny", True, 170)["layers"]
    second = run_pass("serve-kv", 5, "tiny", True, 170)["layers"]
    calls = {k: v for k, v in first.items() if k.startswith("calls.")}
    assert calls == {k: v for k, v in second.items()
                     if k.startswith("calls.")}
    assert calls["calls.serve"] > 0


def test_seeds_change_the_inputs():
    one = run_pass("compute-suite", 1, "tiny", False, 170)["outputs"]
    two = run_pass("compute-suite", 2, "tiny", False, 170)["outputs"]
    assert one["consoles"] != two["consoles"]


def test_recorded_seeds_include_default_and_held_out():
    with open(os.path.join(BENCH, "expected.json")) as handle:
        expected = json.load(handle)["workloads"]
    for workload in WORKLOADS:
        entry = expected[workload]
        assert entry["default_seed"] != entry["held_out_seed"]
        for seed in (entry["default_seed"], entry["held_out_seed"]):
            assert str(seed) in entry["seeds"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "serve-kv", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_of_maps_source_files_to_packages():
    assert layer_of("/x/src/repro/hw/phys.py") == "hw"
    assert layer_of("/x/src/repro/core/shim/runtime.py") == "core"
    assert layer_of("/x/src/repro/machine.py") == "machine"
    assert layer_of("~") is None
