"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 benchmarks/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0]
                                 [--seconds N] [--out FILE]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (distance
between the quartiles as a share of the median), the bound from
BENCHMARK.json and whether the spread stays under a third of it.  With
``--out`` the summary and every run's result are written as JSON.  Runs go
one after another, never in parallel, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(config: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    row = {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
    if bound is not None:
        row["bound"] = bound
        row["steady"] = spread < bound / 3
    return row


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary = {}
    runs = {}
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(config, workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        runs[workload] = results
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            row = summarise(values, bounds.get(name))
            summary[workload][name] = row
            flag = "" if "steady" not in row else ("  ok" if row["steady"] else "  WIDE")
            print(f"  {workload:20s} {name:30s} median {row['median']:12.6g} "
                  f"spread {row['spread']:7.2%}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
