"""Tests of the benchmark itself: metric names and units, the verdict gate,
and failure outside a source checkout.

Run from the repository root with:  python3 -m pytest perfbench/tests
"""

import importlib.util
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(workload, trace, cwd=ROOT, seconds=1):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc, time.monotonic() - start


def _units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def test_declared_metrics_match_the_runner():
    declared = _benchmark_json()
    assert _units(declared["end_to_end"]) == run.END_TO_END_UNITS
    assert _units(declared["per_layer"]) == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload,trace", [("smoke", 0), ("smoke", 1),
                                            ("catalog", 0)])
def test_run_reports_every_metric_with_its_unit(workload, trace):
    proc, elapsed = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert "fail_ratio 0.0000 ratio" in proc.stdout
    assert elapsed < 60


def test_verdict_gate_fires_on_a_wrong_expectation():
    spec = run.load_spec("smoke")
    wrong = dict(spec["actions"][0], polar=not spec["actions"][0]["polar"])
    spec = dict(spec, actions=[wrong] + spec["actions"][1:])
    env = run.child_env(1)
    p, _ = run.run_pass(spec, random.Random(0), False, env, run.RunClock(1))
    assert (p.attempted, p.failed) == (2, 1)
    assert p.op_walls[0] is None and p.op_walls[1] > 0  # failed: no time
    right, _ = run.run_pass(run.load_spec("smoke"), random.Random(0), False,
                            env, run.RunClock(1))
    assert right.failed == 0


def test_catalog_gate_counts_mismatches_missing_and_extra_results():
    pins = {"a": {"transitive": True}, "b": {"min_cohomogeneity": 7},
            "c": {"polar": True, "hyperpolar": False}}
    good = {"a": {"transitive": True, "passed": True},
            "b": {"cohomogeneity": 7}, "c": {"polar": True,
                                             "hyperpolar": False}}
    call = {"exit_code": 0, "results": good}
    assert run.check_call(call, pins) == (3, 0)
    assert run.check_call(dict(call, exit_code=1), pins) == (3, 1)
    bad = dict(good, a={"transitive": True, "passed": False},
               b={"cohomogeneity": 6}, z={})
    del bad["c"]
    assert run.check_call({"exit_code": 1, "results": bad}, pins) == (4, 4)


def test_parse_importtime_counts_outermost_scipy_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       500 |        600 |     scipy",
        "import time:      1000 |       1000 |       scipy.linalg._x",
        "import time:      2000 |       3000 |     scipy.linalg",
        "import time:       700 |       4300 |   polarcheck.actions",
        "import time:       200 |       4500 | polarcheck",
    ])
    assert run.parse_importtime(stderr) == (0.0045, 0.0036)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, elapsed = _run("smoke", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert elapsed < 60
