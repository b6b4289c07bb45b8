"""Optimization loop: L1 objective, Adam, cosine-annealed learning rate with
linear warmup, global-norm gradient clipping, seeded shuffling, and
best-validation checkpointing.  The Adam betas and the clip norm are module
constants, the same for every run.

At its start, ``fit`` lays every parameter end to end, in
``named_parameters`` order, in one contiguous array, and each parameter's
``data`` becomes a view of its segment; a gradient buffer and the Adam moments
share that layout, and each parameter's ``grad`` is a view of its segment of
the gradient buffer, which the engine's backward adds into in place.  The
buffers, the moments and the step count all live on one ``FlatParams``, and
that step count indexes both Adam's bias correction and the learning-rate
schedule.  A step zeroes the gradient buffer, runs the backward, clips the
whole buffer and Adam updates the whole parameter buffer in place, so after
``fit`` the parameters and their gradients are still views of its buffers.

All randomness (shuffling, dropout) derives from the run seed, and gradient
reduction order is fixed, so identical seed + data + config reproduces the
run to within float addition order, i.e. exactly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mixer, slstm
from . import tensor as T
from .metrics import compute_metrics
from .mixer import MixerConfig, MixerParams
from .tensor import ShapeError, Tape, Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 1.0


@dataclass
class TrainConfig:
    batch_size: int = 32
    lr_initial: float = 1e-3
    warmup_steps: int = 10
    max_epochs: int = 60
    seed: int = 2021
    patience: int = 10

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr_initial) and self.lr_initial > 0):
            raise ValueError(f"lr_initial must be positive and finite, got {self.lr_initial}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")


class FlatParams:
    """A model's parameters in one contiguous array, in ``named_parameters``
    order, each tensor's ``data`` a view of its segment, plus a zeroed
    gradient buffer of the same layout whose segments are the tensors'
    ``grad``.  The backward adds each gradient into its view, rejecting one
    of another shape or dtype, so a step clips and updates from the buffer
    as the backward left it.  The Adam moments ``m`` and ``v`` start as
    zeros in the same layout, and ``t`` counts the steps taken.

    The parameters must share one dtype: laying mixed widths into one array
    would cast some of them silently, so the first that differs is named."""

    def __init__(self, params: MixerParams):
        named = [(name, tensor) for name, tensor, _ in params.named_parameters()]
        dtype = named[0][1].data.dtype
        for name, tensor in named:
            if tensor.data.dtype != dtype:
                raise ValueError(f"parameter {name} is {tensor.data.dtype}, "
                                 f"the parameters before it {dtype}")
        stops = np.cumsum([tensor.size for _, tensor in named]).tolist()
        self.segments = [(name, slice(lo, hi)) for (name, _), lo, hi
                         in zip(named, [0] + stops, stops)]
        self.data = np.empty(stops[-1], dtype)
        self.grad = np.zeros_like(self.data)
        for (_, seg), (_, tensor) in zip(self.segments, named):
            view = self.data[seg].reshape(tensor.shape)
            view[...] = tensor.data
            tensor.data = view
            tensor.grad = self.grad[seg].reshape(tensor.shape)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.t = 0


@dataclass
class RunArtifacts:
    best_checkpoint: str
    log: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0
    best_val_mae: float = math.inf

    @property
    def epochs_trained(self) -> int:
        return len(self.log)


def mae_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error over every entry as one tape op; the target is a
    constant array, and the subgradient is 0 at exact zeros."""
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred.data - target
    n = diff.size

    def backward(g):
        return [(g / n) * np.sign(diff)]

    return T.custom_op(np.abs(diff).mean(), [pred], backward)


def clip_global_norm(grad: np.ndarray, segments) -> float:
    """Scale the flat gradient so its global L2 norm is <= CLIP_NORM.

    ``segments`` holds each parameter's ``(name, slice)`` of the buffer.  The
    squares are summed in float64 along numpy's pairwise tree within each
    segment, and the segment sums are added in order, so the norm is the one
    a per-tensor reduction gives.  Returns the pre-clip norm.  Non-finite
    gradients abort, naming the first parameter that holds one: they surface
    divergence at the step that produced them."""
    squares = np.square(grad, dtype=np.float64)
    total = 0.0
    for name, seg in segments:
        s = float(np.add.reduce(squares[seg]))
        if not math.isfinite(s):
            raise FloatingPointError(f"non-finite gradient in {name} before clipping")
        total += s
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        grad *= CLIP_NORM / norm
    return norm


def adam_step(flat: FlatParams, lr: float) -> None:
    """Bias-corrected Adam update of ``flat.data`` from ``flat.grad`` in
    place (eps outside the square root, no weight decay), advancing
    ``flat.t`` and the moments ``flat.m`` and ``flat.v``, which share the
    buffer's layout.  Every entry rounds as
    ``p - lr * m_hat / (sqrt(v_hat) + eps)`` does, term by term."""
    flat.t += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, flat.t
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    grad, m, v = flat.grad, flat.m, flat.v
    step = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += step
    np.multiply(grad, grad, out=step)
    step *= 1.0 - b2
    v *= b2
    v += step
    denom = np.divide(v, c2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, c1, out=step)
    step *= lr
    step /= denom
    flat.data -= step


def lr_at_step(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> lr over warmup_steps, then cosine decay to 0 at
    ``total_steps``.  A warmup that is not shorter than the run is cut to
    ``total_steps - 1`` steps, so a tiny run still reaches the peak rate."""
    warmup = min(cfg.warmup_steps, total_steps - 1)
    if warmup > 0 and step < warmup:
        return cfg.lr_initial * step / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return cfg.lr_initial * 0.5 * (1.0 + math.cos(math.pi * progress))


def _eval_batches(n: int, batch_size: int):
    """(lo, hi) ranges of the eval batches over n windows in file order: full
    batches, with a remainder under half a batch joining the last of them,
    so that no tiny batch pays the per-token cost of a whole recurrence."""
    bounds = list(range(0, n, batch_size)) + [n]
    if len(bounds) > 2 and 2 * (n - bounds[-2]) < batch_size:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def evaluate_mae(params: MixerParams, cfg: MixerConfig, dataset) -> float:
    """Mean absolute error over a dataset, eval mode: the MAE every report
    gives for it."""
    return compute_metrics(*predict_dataset(params, cfg, dataset))["mae"]


def predict_dataset(params: MixerParams, cfg: MixerConfig, dataset,
                    batch_size: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """[N, V, H] forecasts and targets, eval mode, file order: C-ordered
    forecasts; targets are the dataset's read-only window view.

    Each batch is a slice of ``dataset.windows()``, read in place, and the
    forward writes its forecasts straight into their slice of the one
    forecast array.  Every forward of the pass carves its chunk buffers from
    one scratch, which its first carve allocates and only a larger batch
    replaces, and which is dropped with the pass."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot predict an empty dataset")
    xs, ys = dataset.windows()
    scratch = slstm.Scratch()
    preds = np.empty((n, cfg.num_variates, cfg.horizon), dtype=mixer.forecast_dtype(params, xs))
    for lo, hi in _eval_batches(n, batch_size):
        mixer.forward_batch(params, cfg, xs[lo:hi], training=False, scratch=scratch,
                            out=preds[lo:hi])
    return preds, ys


def fit(params: MixerParams, cfg: MixerConfig, train_ds, val_ds,
        train_cfg: TrainConfig, out_dir, log_path=None) -> RunArtifacts:
    """Train with shuffled mini-batches, checkpointing on validation
    improvement and stopping once ``patience + 1`` epochs in a row bring
    none.  An epoch's steps carve the stack's history from one scratch arena."""
    if len(train_ds) < 1 or len(val_ds) < 1:
        raise ValueError("train and validation datasets must be non-empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_dir = out_dir / "best"

    rng = np.random.default_rng(train_cfg.seed)
    flat = FlatParams(params)

    n = len(train_ds)
    batches_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.max_epochs * batches_per_epoch

    log_rows: list[dict] = []
    log_file = Path(log_path).open("w") if log_path else None
    best_val = math.inf
    epochs_without_improve = 0
    started = time.perf_counter()

    try:
        for epoch in range(train_cfg.max_epochs):
            order = rng.permutation(n)
            scratch = slstm.Scratch()  # each backward runs before the next carve
            epoch_abs = 0.0
            for b in range(batches_per_epoch):
                idx = order[b * train_cfg.batch_size:(b + 1) * train_cfg.batch_size]
                xs, ys = train_ds.batch(idx)
                flat.grad.fill(0)
                lr = lr_at_step(flat.t, total_steps, train_cfg)
                try:
                    with Tape() as tape:
                        # The forecast is not bound, so it dies once the loss
                        # is made (no backward reads it), and the loss once
                        # its backward has run.
                        loss = mae_loss(mixer.forward_batch(params, cfg, xs, training=True,
                                                            rng=rng, scratch=scratch), ys)
                        value = loss.item()
                        if not math.isfinite(value):
                            raise FloatingPointError(f"non-finite loss {value}")
                        tape.backward(loss)
                        del loss
                    clip_global_norm(flat.grad, flat.segments)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"{exc} at epoch {epoch}, batch {b}, step {flat.t}, "
                                             f"learning rate {lr:g}") from exc
                adam_step(flat, lr)
                epoch_abs += value * xs.shape[0] * cfg.num_variates * cfg.horizon

            train_mae = epoch_abs / (n * cfg.num_variates * cfg.horizon)
            del scratch  # not alive beside the validation pass's own arena
            val_mae = evaluate_mae(params, cfg, val_ds)
            row = {"epoch": epoch, "train_mae": train_mae, "val_mae": val_mae,
                   "lr": lr_at_step(flat.t - 1, total_steps, train_cfg)}
            log_rows.append(row)
            if log_file:
                log_file.write(json.dumps(row) + "\n")
                log_file.flush()

            if val_mae < best_val:
                best_val = val_mae
                epochs_without_improve = 0
                mixer.save_checkpoint(best_dir, params)
            else:
                epochs_without_improve += 1
                if epochs_without_improve > train_cfg.patience:
                    break
    finally:
        if log_file:
            log_file.close()

    return RunArtifacts(
        best_checkpoint=str(best_dir),
        log=log_rows,
        wall_time_s=time.perf_counter() - started,
        best_val_mae=best_val,
    )
