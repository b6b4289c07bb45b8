"""Shared helpers: benchmark-file discovery, synthetic series builders, and
the recurrent stack run as one chunk."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from mixcast import slstm


def etth1_path() -> Path | None:
    """Locate the hourly transformer-temperature benchmark CSV, if present.

    Checked in order: $MIXCAST_ETTH1, $MIXCAST_DATA_DIR/ETTh1.csv, and the
    repository-local data/ETTh1.csv.  Tests that need the real benchmark skip
    when it is absent.
    """
    candidates = []
    if os.environ.get("MIXCAST_ETTH1"):
        candidates.append(Path(os.environ["MIXCAST_ETTH1"]))
    if os.environ.get("MIXCAST_DATA_DIR"):
        candidates.append(Path(os.environ["MIXCAST_DATA_DIR"]) / "ETTh1.csv")
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "ETTh1.csv")
    for path in candidates:
        if path.is_file():
            return path
    return None


def require_etth1() -> Path:
    path = etth1_path()
    if path is None:
        pytest.skip(
            "ETTh1.csv not available: place it at data/ETTh1.csv or set "
            "MIXCAST_ETTH1 (no network access to fetch benchmarks here)"
        )
    return path


def synthetic_series(rows: int, variates: int, seed: int = 0) -> np.ndarray:
    """Smooth multi-periodic series with noise; float64 [rows, variates]."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)[:, None]
    period = rng.uniform(16, 96, size=(1, variates))
    phase = rng.uniform(0, 2 * np.pi, size=(1, variates))
    amp = rng.uniform(0.5, 2.0, size=(1, variates))
    drift = rng.uniform(-2e-4, 2e-4, size=(1, variates))
    values = (amp * np.sin(2 * np.pi * t / period + phase)
              + 0.3 * np.sin(2 * np.pi * t / (period * 3.7))
              + drift * t
              + 0.05 * rng.standard_normal((rows, variates)))
    return values


def write_series_csv(path: Path, values: np.ndarray) -> Path:
    from datetime import datetime, timedelta

    rows, variates = values.shape
    header = "date," + ",".join(f"v{i}" for i in range(variates))
    lines = [header]
    start = datetime(2016, 7, 1)
    for r in range(rows):
        stamp = (start + timedelta(hours=r)).strftime("%Y-%m-%d %H:%M:%S")
        lines.append(stamp + "," + ",".join(repr(float(x)) for x in values[r]))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def tiny_csv(tmp_path) -> Path:
    """A 400-row, 3-variate series on disk for CLI and data tests."""
    values = synthetic_series(400, 3, seed=11)
    return write_series_csv(tmp_path / "tiny.csv", values)


def run_stack(cfg, blocks, x, batch, training=False, rng=None, stats=None):
    """The stack over all the rows of x as the one chunk of a Stream on a
    fresh arena, recording when a tape is active, and drawing dropout masks
    from rng when training with dropout."""
    rows = x.shape[0]
    dtype = np.result_type(x.data, blocks[0].cell.w_z.data)
    dropout = training and cfg.dropout_rate > 0.0
    stream = slstm.Stream(cfg, blocks, batch, rows, rows, slstm.Scratch(), dtype,
                          rng if dropout else None, stats)
    return slstm._stack_tokens(stream, x)
