"""Span recording for the traced benchmark run.

The traced run swaps a recording wrapper in at each module attribute the
program calls between its layers, and restores the originals afterwards; the
program's own files are never edited.  Spans (name, start, end, parent) share
one run id, stay in memory while the run lasts, and are written out once at
the end.  Per-layer metrics are computed from the spans alone.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Single-threaded span recorder: each span is
    ``[id, parent_id, name, start_s, end_s, attrs]`` with perf-counter times."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name, attrs_of=None):
        """Wrap ``fn`` so each call records one span.  ``name`` is a string or
        a function of the call's (args, kwargs); ``attrs_of`` computes extra
        attributes before the clock starts, so their cost is not in the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            attrs = attrs_of(args, kwargs) if attrs_of else None
            span = [len(tracer.spans), tracer._open[-1] if tracer._open else None,
                    label, 0.0, 0.0, attrs]
            tracer.spans.append(span)
            tracer._open.append(span[0])
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._open.pop()

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                row = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def _forward_name(args, kwargs):
    training = kwargs["training"] if "training" in kwargs else (
        len(args) > 3 and args[3])
    return "mixer.forward_train" if training else "mixer.forward_eval"


def _tape_attrs(args, kwargs):
    # Bytes held by the tape, computed from the recorded output arrays at
    # backward entry; the node list is the tape's private record.
    tape = args[0]
    nodes = getattr(tape, "_nodes", ())
    return {"nodes": len(tape),
            "bytes": int(sum(out.data.nbytes for out, _ in nodes))}


def targets(mixcast):
    """(owner, attribute, span name, attrs_of) for every layer boundary.

    The slstm entry is the stack function the pipeline calls once per view;
    a program change that renames it updates this table."""
    data, mixer, slstm = mixcast.data, mixcast.mixer, mixcast.slstm
    tensor, training, metrics = mixcast.tensor, mixcast.training, mixcast.metrics
    return [
        (data, "load_csv", "data.load_csv", None),
        (data.WindowedDataset, "batch", "data.batch", None),
        (mixer, "forward_batch", _forward_name, None),
        (mixer, "revin_normalize", "mixer.revin", None),
        (mixer, "nlinear_forecast", "mixer.nlinear", None),
        (mixer, "up_project", "mixer.up_project", None),
        (mixer, "reconcile_views", "mixer.reconcile", None),
        (mixer, "revin_denormalize", "mixer.denorm", None),
        (mixer, "save_checkpoint", "mixer.ckpt_save", None),
        (mixer, "load_checkpoint", "mixer.ckpt_load", None),
        (slstm, "_stack_tokens", "slstm.stack", None),
        (tensor, "backward", "tensor.backward", _tape_attrs),
        (training, "clip_global_norm", "training.clip", None),
        (training, "adam_step", "training.adam", None),
        (training, "evaluate_mae", "training.val", None),
        (metrics, "compute_metrics", "metrics.compute", None),
    ]


@contextmanager
def installed(tracer: Tracer, table):
    """Swap the recording wrappers in for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs_of in table:
            original = getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(original, name, attrs_of))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------

def _p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _median(values):
    return statistics.median(values) if values else 0.0


def self_times(spans) -> dict:
    """Per span name: calls, total seconds, and self seconds (span minus the
    time its child spans cover)."""
    child_time: dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    table: dict[str, dict] = {}
    for sid, _, name, start, end, _ in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
    return table


def layer_metrics(spans, overhead_frac: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}; layers a workload
    does not reach read zero."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def durations(name, scale=1.0):
        return [(s[4] - s[3]) * scale for s in by_name.get(name, [])]

    forwards = by_name.get("mixer.forward_train", []) + by_name.get("mixer.forward_eval", [])
    forward_ids = {s[0] for s in forwards}
    per_forward: dict[str, dict[int, float]] = {}
    child_time: dict[int, float] = {}
    for sid, parent, name, start, end, _ in spans:
        if parent in forward_ids:
            per_forward.setdefault(name, {})
            per_forward[name][parent] = per_forward[name].get(parent, 0.0) + (end - start)
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def stage_ms(name):
        # Median over forward calls of the stage's time within one forward.
        times = per_forward.get(name, {})
        return _median([times.get(f[0], 0.0) * 1e3 for f in forwards])

    fwd_train = durations("mixer.forward_train", 1e3)
    fwd_eval = durations("mixer.forward_eval", 1e3)
    backward = durations("tensor.backward", 1e3)
    tape = [s[5] for s in by_name.get("tensor.backward", [])]
    stack_total = sum(per_forward.get("slstm.stack", {}).values())
    forward_total = sum(f[4] - f[3] for f in forwards)

    out = {
        "data.load_csv_s": (_median(durations("data.load_csv")), "s"),
        "data.batch_ms": (_median(durations("data.batch", 1e3)), "ms"),
        "data.batch_calls": (len(by_name.get("data.batch", [])), "count"),
        "mixer.forward_train_calls": (len(fwd_train), "count"),
        "mixer.forward_train_ms_p50": (_median(fwd_train), "ms"),
        "mixer.forward_train_ms_p90": (_p90(fwd_train) if fwd_train else 0.0, "ms"),
        "mixer.forward_eval_calls": (len(fwd_eval), "count"),
        "mixer.forward_eval_ms_p50": (_median(fwd_eval), "ms"),
        "mixer.forward_eval_ms_p90": (_p90(fwd_eval) if fwd_eval else 0.0, "ms"),
        "mixer.forward_self_ms": (_median(
            [((f[4] - f[3]) - child_time.get(f[0], 0.0)) * 1e3 for f in forwards]), "ms"),
        "mixer.revin_ms": (stage_ms("mixer.revin"), "ms"),
        "mixer.nlinear_ms": (stage_ms("mixer.nlinear"), "ms"),
        "mixer.up_project_ms": (stage_ms("mixer.up_project"), "ms"),
        "mixer.reconcile_ms": (stage_ms("mixer.reconcile"), "ms"),
        "mixer.denorm_ms": (stage_ms("mixer.denorm"), "ms"),
        "mixer.ckpt_save_ms": (_median(durations("mixer.ckpt_save", 1e3)), "ms"),
        "mixer.ckpt_load_ms": (_median(durations("mixer.ckpt_load", 1e3)), "ms"),
        "slstm.stack_ms": (stage_ms("slstm.stack"), "ms"),
        "slstm.stack_calls": (len(by_name.get("slstm.stack", [])) / len(forwards)
                              if forwards else 0.0, "count"),
        "slstm.stack_share": (stack_total / forward_total if forward_total else 0.0,
                              "ratio"),
        "tensor.backward_ms_p50": (_median(backward), "ms"),
        "tensor.backward_ms_p90": (_p90(backward) if backward else 0.0, "ms"),
        "tensor.tape_nodes": (_median([a["nodes"] for a in tape]), "count"),
        "tensor.tape_bytes": (_median([a["bytes"] for a in tape]), "bytes"),
        "training.clip_ms": (_median(durations("training.clip", 1e3)), "ms"),
        "training.adam_ms": (_median(durations("training.adam", 1e3)), "ms"),
        "training.val_s": (_median(durations("training.val")), "s"),
        "training.steps": (len(by_name.get("training.adam", [])), "count"),
        "metrics.compute_ms": (_median(durations("metrics.compute", 1e3)), "ms"),
        "trace_overhead_frac": (overhead_frac, "ratio"),
    }
    return out
