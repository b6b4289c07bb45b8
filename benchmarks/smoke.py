"""The benchmark's own smoke test: every workload, untraced and traced, on
tiny series.

    python3 benchmarks/smoke.py

It fails (exit code 1) when a run exits badly, a metric named in
BENCHMARK.json is missing or extra, a unit differs, an output check fails,
an end-to-end value is not positive, or the forward-only workload records
backward, tape or optimizer work.  It also checks that the benchmark refuses
to run with unpinned BLAS threads.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORWARD_ONLY_ZERO = ("tensor.backward_ms_p50", "tensor.backward_ms_p90",
                     "tensor.tape_nodes", "training.adam_ms", "training.steps")


def run(config: dict, workload: str, trace: int, env=None):
    cmd = config["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                               "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          env=env)


def problems_in(config: dict, workload: str, trace: int, proc) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"output checks failed: {proc.stderr.strip()[-400:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        found.append(f"attempted {result.get('attempted')!r}")
    expected = {m["name"]: m for m in config["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        found.append(f"missing {sorted(set(expected) - set(metrics))}, "
                     f"extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if name in expected and entry.get("unit") != expected[name]["unit"]:
            found.append(f"{name}: unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            found.append(f"{name}: end-to-end value {value} is not positive")
    if trace and workload == "electricity-eval":
        found += [f"{name} reads {metrics[name]['value']} on a forward-only workload"
                  for name in FORWARD_ONLY_ZERO if metrics.get(name, {}).get("value")]
    return found


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            found = problems_in(config, workload, trace, run(config, workload, trace))
            print(f"{workload} trace {trace}: " + ("ok" if not found else "; ".join(found)))
            failures += bool(found)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = run(config, config["workloads"][0]["name"], 0, env=env)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print("unpinned BLAS threads refused: " + ("ok" if refused else "NO"))
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
