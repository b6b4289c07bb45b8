"""Every committed benchmark record holds what a performance claim rests on.

A root-level ``BENCH_*.json`` compares a parent and a change run by the
benchmark with one BLAS thread.  For each workload and end-to-end metric that
``BENCHMARK.json`` declares, both sides give a median inside their quartiles,
and every run on both sides passed its output checks.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_some_benchmark_record_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_record_pins_one_blas_thread(path):
    env = json.loads(path.read_text())["environment"]
    assert env["blas_threads"] == 1
    assert env["pinned"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_record_covers_every_workload_and_metric(path):
    workloads = json.loads(path.read_text())["workloads"]
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        record = workloads[name]
        for side in SIDES:
            assert record["correct"][side] is True, (name, side)
            assert record["failed"][side] == 0, (name, side)
        for metric in BENCHMARK["end_to_end"]:
            summary = record["metrics"][metric["name"]]
            for side in SIDES:
                q1, median, q3 = (summary[side][k] for k in ("q1", "median", "q3"))
                assert q1 <= median <= q3, (name, metric["name"], side)
