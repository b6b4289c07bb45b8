"""The benchmark's workloads: generated inputs, set-up, the timed operations,
and the output checks.

Each workload drives the program only through its public entry points
(``data.load_csv``, ``training.fit``, ``training.predict_dataset``,
``mixer.load_checkpoint``, ``metrics.compute_metrics``).  The program sees
only a CSV generated from the workload seed, or a checkpoint saved from a
model initialised with that seed.
"""

from __future__ import annotations

import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOOKBACK = HORIZON = 96
EMBED_DIM = 64
HEADS = 4
DROPOUT = 0.1
TRAIN_BATCH = 32
EVAL_BATCH = 128
TINY_ROWS = 1200  # a generic 70/10/20 split that still leaves validation windows
# float32 forecasts against a float64 re-evaluation of the same parameters
# must agree within F64_TOL * max(1, max |reference|); differences seen on
# these workloads are around 1e-6.
F64_TOL = 1e-4
# compute_metrics and the numpy oracle reduce the same float64 values.
MAE_REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    variates: int
    dataset_kind: str
    num_blocks: int
    conv_width: int
    train: bool


WORKLOADS = {w.name: w for w in (
    # ETTh1 shape, 17420 x 7 with the fixed 12/4/4-month split: per-op Python
    # and tape overhead dominate, so backward, clip and Adam show here.
    Workload("etth1-train", 17420, 7, "etth", 1, 0, train=True),
    # Weather width with the causal conv gate path and two blocks: the paths
    # a fused recurrence must also cover.
    Workload("weather-conv-train", 2200, 21, "generic", 2, 4, train=True),
    # Electricity width, forward only: no tape and no optimizer.
    Workload("electricity-eval", 2400, 321, "generic", 1, 0, train=False),
)}


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _params_equal(left, right) -> bool:
    a = [(name, t.data) for name, t, _ in left.named_parameters()]
    b = [(name, t.data) for name, t, _ in right.named_parameters()]
    return len(a) == len(b) and all(
        na == nb and _bit_equal(x, y) for (na, x), (nb, y) in zip(a, b))


class WorkloadRun:
    """One workload in one process; counts attempted and failed operations,
    output checks included."""

    def __init__(self, mixcast, workload: Workload, seed: int, workdir: Path,
                 make_series, write_csv, tiny: bool):
        self.mx = mixcast
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.kind = "generic" if tiny else workload.dataset_kind
        block = mixcast.BlockConfig(EMBED_DIM, HEADS, workload.conv_width, DROPOUT)
        self.cfg = mixcast.MixerConfig(
            lookback=LOOKBACK, horizon=HORIZON, num_variates=workload.variates,
            embed_dim=EMBED_DIM, num_blocks=workload.num_blocks, block=block)
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[bool]] = {}
        # (start, end) perf-counter times of each timed operation.
        self.fit_passes: list[tuple[float, float]] = []
        self.eval_passes: list[tuple[float, float]] = []
        # Inputs are made before any timer starts.
        rows = TINY_ROWS if tiny else workload.rows
        self.csv = write_csv(workdir / "series.csv",
                             make_series(rows, workload.variates, seed=seed))
        self.model_dir = workdir / "model"
        self.seeded = None
        if not workload.train:
            self.seeded = mixcast.init_mixer_params(self.cfg, np.random.default_rng(seed))
            mixcast.mixer.save_checkpoint(self.model_dir, self.seeded)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks.setdefault(name, []).append(bool(ok))
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}", file=sys.stderr)

    # -- set-up -------------------------------------------------------------

    def setup_once(self) -> None:
        data = self.mx.data
        raw = data.load_csv(self.csv)
        spec = data.chronological_split(raw.length, self.kind)
        series, _ = data.standardize(raw, spec)
        self.splits = {which: data.windows_for_split(series, spec, which,
                                                     LOOKBACK, HORIZON)
                       for which in ("train", "val", "test")}
        if self.w.train:
            self.params = self.mx.init_mixer_params(self.cfg,
                                                    np.random.default_rng(self.seed))
        else:
            self.params, self.loaded_cfg, _ = self.mx.mixer.load_checkpoint(self.model_dir)

    # -- timed operations ---------------------------------------------------

    def val_mae(self) -> float:
        pred, target = self.mx.training.predict_dataset(
            self.params, self.cfg, self.splits["val"], batch_size=EVAL_BATCH)
        return self.mx.metrics.compute_metrics(pred, target)["mae"]

    def fit_epoch(self) -> None:
        """One ``fit`` epoch (train steps, validation, checkpoint) continuing
        from the current weights."""
        training = self.mx.training
        train_cfg = training.TrainConfig(batch_size=TRAIN_BATCH, max_epochs=1,
                                         seed=self.seed + len(self.fit_passes))
        self.attempted += math.ceil(len(self.splits["train"]) / TRAIN_BATCH)
        start = time.perf_counter()
        artifacts = training.fit(self.params, self.cfg, self.splits["train"],
                                 self.splits["val"], train_cfg, self.dir / "fit")
        self.fit_passes.append((start, time.perf_counter()))
        # fit raises on a non-finite step loss; the epoch mean must be finite
        # as well, and every epoch must beat the untrained model on validation.
        row = artifacts.log[-1]
        self.check("train_loss_finite", math.isfinite(row["train_mae"]), str(row))
        self.check("val_mae_improved", row["val_mae"] < self.untrained_val_mae,
                   f"{row['val_mae']} >= untrained {self.untrained_val_mae}")
        self.best_checkpoint = artifacts.best_checkpoint

    def eval_pass(self) -> None:
        """Forecast the test split at B=128 and score it, as an evaluation does."""
        test = self.splits["test"]
        self.attempted += math.ceil(len(test) / EVAL_BATCH)
        start = time.perf_counter()
        pred, target = self.mx.training.predict_dataset(self.params, self.cfg, test,
                                                        batch_size=EVAL_BATCH)
        scores = self.mx.metrics.compute_metrics(pred, target)
        self.eval_passes.append((start, time.perf_counter()))
        self.last_eval = (pred, target, scores)

    def main_passes(self) -> list[tuple[float, float]]:
        return self.fit_passes if self.w.train else self.eval_passes

    # -- output checks --------------------------------------------------------

    def check_outputs(self) -> None:
        mx = self.mx
        pred, target, scores = self.last_eval
        oracle = float(np.mean(np.abs(pred.astype(np.float64) - target.astype(np.float64))))
        self.check("mae_oracle", math.isclose(scores["mae"], oracle, rel_tol=MAE_REL_TOL),
                   f"{scores['mae']} != {oracle}")

        if self.w.train:
            best, _, _ = mx.mixer.load_checkpoint(self.best_checkpoint)
            self.check("fit_checkpoint_matches", _params_equal(self.params, best))
        else:
            self.check("checkpoint_load_matches", self.loaded_cfg == self.cfg
                       and _params_equal(self.seeded, self.params))
        ref_dir = self.dir / "roundtrip"
        mx.mixer.save_checkpoint(ref_dir, self.params)
        loaded, cfg, _ = mx.mixer.load_checkpoint(ref_dir)
        self.check("checkpoint_roundtrip",
                   cfg == self.cfg and _params_equal(self.params, loaded))

        # The first test batch again, same weights, in float64.
        test = self.splits["test"]
        first = min(EVAL_BATCH, len(test))
        for _, tensor, _ in loaded.named_parameters():
            tensor.data = tensor.data.astype(np.float64)
        batch = mx.data.window_iter(
            test.values, (test.start, test.start + first + LOOKBACK + HORIZON - 1),
            LOOKBACK, HORIZON)
        with mx.tensor.precision(np.float64):
            ref, _ = mx.training.predict_dataset(loaded, cfg, batch, batch_size=EVAL_BATCH)
        got = pred[:first].astype(np.float64)
        self.f64_max_abs_diff = float(np.max(np.abs(got - ref)))
        limit = F64_TOL * max(1.0, float(np.max(np.abs(ref))))
        self.check("float64_match", self.f64_max_abs_diff <= limit,
                   f"max |diff| {self.f64_max_abs_diff:.3g} > {limit:.3g}")

    # -- results ----------------------------------------------------------------

    def end_to_end(self, setup_s: float, peak_rss_mb: float, seconds) -> dict:
        """``seconds(start, end)`` turns an operation's interval into its time."""
        n_test = len(self.splits["test"])
        return {
            "setup_s": (setup_s, "s"),
            "epoch_s": (statistics.median(seconds(*p) for p in self.main_passes()), "s"),
            "eval_windows_per_s": (statistics.median(n_test / seconds(*p)
                                                     for p in self.eval_passes),
                                   "windows/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def remove_inputs(self) -> None:
        (self.dir / "series.csv").unlink(missing_ok=True)
        for name in ("model", "fit", "roundtrip"):
            shutil.rmtree(self.dir / name, ignore_errors=True)
