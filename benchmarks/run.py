"""mixcast benchmark: one workload per process, closed loop, single BLAS thread.

    python3 benchmarks/run.py --workload etth1-train --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  Both report the attempted and failed operation counts (output
checks included).  Earlier lines print the environment, a readable table and
the checks; the same record, plus the spans of a traced run, goes to
``benchmarks/_runs/<run id>/``.  ``--tiny`` shrinks every series for a quick
end-to-end check of the benchmark itself (see smoke.py).
"""

from __future__ import annotations

import os
import sys
import time

# BLAS threads are pinned before numpy is imported: on a two-core machine the
# thread count alone moves a training step by about 2x.
_PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in _PINNED:
    os.environ.setdefault(_var, "1")
_unpinned = [f"{v}={os.environ[v]}" for v in _PINNED if os.environ[v] != "1"]
if _unpinned or "numpy" in sys.modules:
    sys.exit("refusing to run: BLAS threads must be pinned to 1 before numpy is "
             f"imported ({', '.join(_unpinned) or 'numpy already imported'})")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
EVAL_SHARE = 0.25       # train workloads: share of time in eval passes
UNTRACED_SHARE = 0.25   # traced runs: untraced reference passes first


def import_program():
    """Import mixcast from this checkout's sources, never from elsewhere;
    returns the module and the (start, end) of its import."""
    src = ROOT / "src"
    if not (src / "mixcast" / "__init__.py").is_file():
        sys.exit(f"cannot run: no program sources at {src / 'mixcast'}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import mixcast
    end = time.perf_counter()
    if Path(mixcast.__file__).resolve().parent != (src / "mixcast").resolve():
        sys.exit(f"cannot run: imported mixcast from {mixcast.__file__}, not {src}")
    return mixcast, (start, end)


def import_generator():
    """The synthetic series generator shared with the test suite."""
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        sys.exit(f"cannot run: no series generator at {path}")
    spec = importlib.util.spec_from_file_location("mixcast_series_generator", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synthetic_series, module.write_series_csv


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the loaded library; None if the
    library does not export the query."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, threads) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "pinned": {v: os.environ[v] for v in _PINNED},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def attempt(run, op) -> bool:
    """Run one operation; a failure is counted and reported."""
    try:
        op()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        run.failed += 1
        print(f"operation failed: {op.__name__}: {exc!r}", file=sys.stderr)
        return False
    return True


def measure(run, started: float, until: float, min_eval: int) -> bool:
    """Closed loop until ``until`` seconds after ``started``: the next
    operation starts when the previous one returns.  Train workloads
    alternate one fit epoch with eval passes that keep EVAL_SHARE of the
    time, so both sample the whole run; the eval workload runs eval passes.
    Returns False when an operation failed."""
    fits, evals = len(run.fit_passes), len(run.eval_passes)

    def spent(passes, since):
        return sum(end - start for start, end in passes[since:])

    while True:
        if run.w.train and not attempt(run, run.fit_epoch):
            return False
        while True:
            if not attempt(run, run.eval_pass):
                return False
            eval_s = spent(run.eval_passes, evals)
            if eval_s >= EVAL_SHARE * (eval_s + spent(run.fit_passes, fits)):
                break
        if (time.perf_counter() - started >= until
                and len(run.eval_passes) - evals >= min_eval):
            return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small series, for checking the benchmark itself")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    mixcast, import_interval = import_program()
    threads = blas_threads()
    if threads not in (None, 1):
        sys.exit(f"refusing to run: OpenBLAS reports {threads} threads, not 1")
    make_series, write_csv = import_generator()

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{uuid.uuid4().hex[:8]}"
    workdir = BENCH / "_runs" / run_id
    workdir.mkdir(parents=True)
    env = environment(args, threads)
    print("env " + json.dumps(env))
    tracer = spans.Tracer(run_id)
    table = spans.targets(mixcast)
    traced = args.trace == 1
    seconds = args.seconds

    run = workloads.WorkloadRun(mixcast, workloads.WORKLOADS[args.workload], args.seed,
                                workdir, make_series, write_csv, args.tiny)
    # Untraced runs report probe-scaled times (see probe.py); traced runs
    # report wall time.
    speed = contextlib.nullcontext() if traced else probe.SpeedProbe()

    def tracing():
        return spans.installed(tracer, table) if traced else contextlib.nullcontext()

    try:
        with speed:
            setup_passes = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                with tracing():
                    run.setup_once()
                setup_passes.append((start, time.perf_counter()))
            if run.w.train:
                run.untrained_val_mae = run.val_mae()

            started = time.perf_counter()
            untraced_passes = 0
            ok = True
            if traced:
                ok = measure(run, started, UNTRACED_SHARE * seconds, 1)
                untraced_passes = len(run.main_passes())
            if ok:
                with tracing():
                    ok = measure(run, started, seconds, 3)
        if not ok:
            print(f"no result: {run.failed} operation(s) failed", file=sys.stderr)
            return 1
        # Peak memory of the workload itself, before the float64 check runs.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.check_outputs()
    finally:
        run.remove_inputs()

    def wall(start, end):
        return end - start

    record = {"run": run_id, "env": env, "attempted": run.attempted, "failed": run.failed,
              "checks": {k: f"{sum(v)}/{len(v)}" for k, v in run.checks.items()},
              "float64_max_abs_diff": run.f64_max_abs_diff}
    if traced:
        passes = [wall(*p) for p in run.main_passes()]
        overhead = (statistics.median(passes[untraced_passes:])
                    / statistics.median(passes[:untraced_passes]) - 1.0)
        metrics = spans.layer_metrics(tracer.spans, overhead)
        record["self_time"] = spans.self_times(tracer.spans)
        tracer.dump(workdir / "spans.jsonl")
    else:
        def setup_s(seconds_of):
            return (seconds_of(*import_interval)
                    + statistics.median(seconds_of(*p) for p in setup_passes))

        metrics = run.end_to_end(setup_s(speed.seconds), peak_rss_mb, speed.seconds)
        raw = run.end_to_end(setup_s(wall), peak_rss_mb, wall)
        record["wall"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        record["probe"] = speed.summary()
        record["passes_s"] = {
            kind: {"probe_scaled": [speed.seconds(*p) for p in passes],
                   "wall": [wall(*p) for p in passes]}
            for kind, passes in (("fit", run.fit_passes), ("eval", run.eval_passes))}
        if run.w.train:
            windows = len(run.splits["train"]) * len(run.fit_passes)
            record["train_windows_per_s"] = windows / sum(speed.seconds(*p)
                                                          for p in run.fit_passes)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, (calls, total, own) in sorted(
            (k, (v["calls"], v["total_s"], v["self_s"]))
            for k, v in record.get("self_time", {}).items()):
        print(f"  span {name:27s} calls {calls:7d}  total {total:9.4f} s  self {own:9.4f} s")
    print("checks " + json.dumps(record["checks"]))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
