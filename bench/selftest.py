"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test run; they
start benchmark processes and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


class _Fixed:
    """Workload stand-in whose every pass is the given ops."""

    def __init__(self, ops):
        self._ops = ops

    def ops(self, seed, index):
        return self._ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(tmp_path, name):
    workload = workloads.WORKLOADS[name](tmp_path)

    def inputs(seed, index):
        return [(op.label, op.inputs, op.units) for op in workload.ops(seed, index)]

    assert inputs(5, 0) == inputs(5, 0)
    assert inputs(5, 1) == inputs(5, 1)
    assert inputs(5, 0) != inputs(6, 0)
    assert inputs(5, 0) != inputs(5, 1)


def test_interior_points_lie_in_the_triangle():
    for seed in range(20):
        for alpha in workloads.interior_points(workloads.pass_rng(seed, 0)):
            assert all(0.0 <= a <= 1.0 for a in alpha)
            assert abs(sum(alpha) - 2.0) <= 1e-12


def test_same_seed_gives_same_output_bytes(tmp_path):
    workload = workloads.Certify(tmp_path)
    quick = {"simulate5", "simulate7", "coherence"}

    def outputs():
        outcomes = [run.execute(op) for op in workload.ops(11, 0) if op.label in quick]
        assert all(o.failed == 0 for o in outcomes)
        return [o.output for o in outcomes]

    first = outputs()
    assert all(first)
    assert first == outputs()


def test_failing_op_is_counted_not_raised():
    def boom():
        raise ZeroDivisionError("no")

    ops = [
        Op("raises", boom, lambda out: ([None], b"")),
        Op("wrong", lambda: 1, lambda out: (["wrong answer", None], b""), units=2),
        Op("right", lambda: 1, lambda out: ([None], b"1")),
    ]
    passes = run.run_passes(_Fixed(ops), seed=0, seconds=1.0, count=2)
    attempted, failed, wrong, kinds = run.tally(passes)
    assert (attempted, failed, wrong) == (8, 4, 2)
    assert kinds == {"raises raised ZeroDivisionError": 2, "wrong: wrong answer": 2}


def test_printed_metrics_match_benchmark_json():
    spec = _bench_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        printed = {name: m["unit"] for name, m in last["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_benchmark_json_names_this_directory():
    spec = _bench_json()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
