"""Optimization loop: L1 objective, Adam, cosine-annealed learning rate with
linear warmup, global-norm gradient clipping, seeded shuffling, and
best-validation checkpointing.  The Adam betas and the clip norm are module
constants, the same for every run.

All randomness (shuffling, dropout) derives from the run seed, and gradient
reduction order is fixed, so identical seed + data + config reproduces the
run to within float addition order, i.e. exactly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import mixer
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
        if self.lr_initial <= 0:
            raise ValueError("lr_initial must be positive")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


@dataclass
class RunArtifacts:
    best_checkpoint: str
    log: list[dict] = field(default_factory=list)
    epochs_trained: int = 0
    wall_time_s: float = 0.0
    best_val_mae: float = math.inf


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


def clip_global_norm(grads: list[np.ndarray]) -> float:
    """Scale all gradients jointly so their global L2 norm is <= CLIP_NORM.

    Returns the pre-clip norm.  Non-finite gradients abort: they surface
    divergence at the step that produced them."""
    total = 0.0
    for g in grads:
        s = float(np.sum(g.astype(np.float64) ** 2))
        if not np.isfinite(s):
            raise FloatingPointError("non-finite gradient before clipping")
        total += s
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        factor = CLIP_NORM / norm
        for g in grads:
            g *= factor
    return norm


def adam_step(state: AdamState, params: list[Tensor], grads: list[np.ndarray],
              lr: float) -> None:
    """Bias-corrected Adam update (eps outside the square root, no weight
    decay)."""
    if len(params) != len(grads):
        raise ShapeError("params and grads length mismatch")
    state.t += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, state.t
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for k, (p, g) in enumerate(zip(params, grads)):
        if p.data.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape}")
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * (g * g)
        m_hat = state.m[k] / c1
        v_hat = state.v[k] / c2
        update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.data = (p.data - update.astype(p.data.dtype, copy=False))


def lr_at_step(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> lr over warmup_steps, then cosine decay to 0."""
    warmup = cfg.warmup_steps
    if warmup >= total_steps:
        raise ValueError("warmup_steps must be smaller than total_steps")
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
    """Forecasts and targets as C-ordered [N, V, H] arrays, eval mode, file
    order; each batch is written straight into them."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot predict an empty dataset")
    preds = targets = None
    for lo, hi in _eval_batches(n, batch_size):
        xs, ys = dataset.batch(range(lo, hi))
        out = mixer.forward_batch(params, cfg, xs, training=False).data
        if preds is None:
            preds = np.empty((n, cfg.num_variates, cfg.horizon), dtype=out.dtype)
            targets = np.empty((n,) + ys.shape[1:], dtype=ys.dtype)
        preds[lo:hi] = out.reshape(cfg.num_variates, hi - lo, cfg.horizon).transpose(1, 0, 2)
        targets[lo:hi] = ys
    return preds, targets


def fit(params: MixerParams, cfg: MixerConfig, train_ds, val_ds,
        train_cfg: TrainConfig, out_dir, log_path=None) -> RunArtifacts:
    """Train with shuffled mini-batches, checkpointing on validation
    improvement and stopping after `patience` epochs without one."""
    if len(train_ds) < 1 or len(val_ds) < 1:
        raise ValueError("train and validation datasets must be non-empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_dir = out_dir / "best"

    rng = np.random.default_rng(train_cfg.seed)
    tensors = [t for _, t, _ in params.named_parameters()]

    n = len(train_ds)
    batches_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.max_epochs * batches_per_epoch
    if train_cfg.warmup_steps >= total_steps:
        # Tiny runs: shorten the ramp instead of rejecting the schedule.
        train_cfg = replace(train_cfg, warmup_steps=max(0, total_steps - 1))
    state = AdamState.for_params(tensors)

    log_rows: list[dict] = []
    log_file = Path(log_path).open("w") if log_path else None
    best_val = math.inf
    epochs_without_improve = 0
    epochs_trained = 0
    step = 0
    started = time.perf_counter()

    try:
        for epoch in range(train_cfg.max_epochs):
            order = rng.permutation(n)
            epoch_abs = 0.0
            epoch_count = 0
            for b in range(batches_per_epoch):
                idx = order[b * train_cfg.batch_size:(b + 1) * train_cfg.batch_size]
                xs, ys = train_ds.batch(idx)
                for t in tensors:
                    t.zero_grad()
                with Tape() as tape:
                    pred = mixer.forward_batch(params, cfg, xs, training=True, rng=rng)
                    loss = mae_loss(pred, mixer.flatten_targets(ys))
                    value = loss.item()
                    if not math.isfinite(value):
                        raise FloatingPointError(
                            f"non-finite loss {value} at epoch {epoch}, batch {b}"
                        )
                    tape.backward(loss)
                grads = [t.grad if t.grad is not None else np.zeros_like(t.data)
                         for t in tensors]
                clip_global_norm(grads)
                lr = lr_at_step(step, total_steps, train_cfg)
                adam_step(state, tensors, grads, lr)
                step += 1
                epoch_abs += value * xs.shape[0] * xs.shape[1] * cfg.horizon
                epoch_count += xs.shape[0] * xs.shape[1] * cfg.horizon

            train_mae = epoch_abs / epoch_count
            val_mae = evaluate_mae(params, cfg, val_ds)
            epochs_trained = epoch + 1
            row = {"epoch": epoch, "train_mae": train_mae, "val_mae": val_mae,
                   "lr": lr_at_step(step - 1, total_steps, train_cfg)}
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
        epochs_trained=epochs_trained,
        wall_time_s=time.perf_counter() - started,
        best_val_mae=best_val,
    )
