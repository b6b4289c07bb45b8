"""Forecast metrics and machine-readable reports.

Metrics are computed in standardized data space: MSE and MAE are means over
all N*V*H entries, RMSE is the square root of the MSE, and MAPE guards zero
targets with a small epsilon.  Reports are line-delimited JSON records with a
stable key order plus a plain-text comparison table, so two emissions of the
same reports are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .tensor import ShapeError

MAPE_EPS = 1e-8

_REPORT_FIELDS = ("dataset", "horizon", "lookback", "seed", "mse", "mae",
                  "rmse", "mape", "epochs_trained", "wall_time_s", "config_id")


@dataclass
class MetricsReport:
    dataset: str
    horizon: int
    lookback: int
    seed: int
    mse: float
    mae: float
    rmse: float
    mape: float
    epochs_trained: int
    wall_time_s: float
    config_id: str = "full"


def compute_metrics(pred: np.ndarray, target: np.ndarray) -> dict:
    """MSE / MAE / RMSE / MAPE over every entry of matching arrays."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ShapeError("metrics need at least one entry")
    # Two float64 buffers, reused in place; every value equals the plain
    # float64 formula's, since |.| is exact in either precision.
    err = np.subtract(target, pred, dtype=np.float64)
    scratch = np.square(err)
    mse = float(np.mean(scratch))
    np.abs(err, out=err)
    mae = float(np.mean(err))
    np.abs(target, out=scratch)
    scratch += MAPE_EPS
    np.divide(err, scratch, out=scratch)
    mape = float(100.0 * np.mean(scratch))
    return {"mse": mse, "mae": mae, "rmse": float(np.sqrt(mse)), "mape": mape}


def report_record(report: MetricsReport) -> dict:
    """Dict with the stable field order used by every serialization."""
    values = asdict(report)
    return {key: values[key] for key in _REPORT_FIELDS}


def mean_rows(reports: list[MetricsReport]) -> list[dict]:
    """Arithmetic means across seeds per (dataset, horizon, config_id)."""
    groups: dict[tuple, list[MetricsReport]] = {}
    for r in reports:
        groups.setdefault((r.dataset, r.horizon, r.lookback, r.config_id), []).append(r)
    rows = []
    for (dataset, horizon, lookback, config_id), members in groups.items():
        row = {"dataset": dataset, "horizon": horizon, "lookback": lookback,
               "seed": "mean"}
        for metric in ("mse", "mae", "rmse", "mape"):
            row[metric] = float(np.mean([getattr(m, metric) for m in members]))
        row["epochs_trained"] = float(np.mean([m.epochs_trained for m in members]))
        row["wall_time_s"] = float(np.mean([m.wall_time_s for m in members]))
        row["config_id"] = config_id
        rows.append(row)
    return rows


def _format_table(records: list[dict]) -> str:
    headers = list(_REPORT_FIELDS)
    rows = [[_cell(rec[h]) for h in headers] for rec in records]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_report(reports: list[MetricsReport], path, forecast_samples=(),
                token_series=None) -> None:
    """Write the JSONL metrics document, a text table, and optional
    column-oriented numeric files for external plotting."""
    if not reports:
        raise ValueError("emit_report needs at least one report")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [report_record(r) for r in reports]
    records += mean_rows(reports)
    with path.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    table_path = path.with_suffix(".txt")
    table_path.write_text(_format_table(records))

    for i, sample in enumerate(forecast_samples):
        write_forecast_columns(path.with_name(f"{path.stem}_forecast{i}.csv"), **sample)
    if token_series is not None:
        write_series_columns(path.with_name(f"{path.stem}_token.csv"),
                             {"decoded_token": token_series})


def parse_report(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def write_forecast_columns(path, history: np.ndarray, target: np.ndarray,
                           forecast: np.ndarray) -> None:
    """One variate per file set is overkill; emit flat columns t, x, y, yhat.

    History occupies t < 0 rows with empty y/yhat cells; the forecast horizon
    occupies t >= 0 rows with an empty x cell."""
    history = np.asarray(history)
    target = np.asarray(target)
    forecast = np.asarray(forecast)
    lines = ["t,variate,x,y,yhat"]
    v, t_len = history.shape
    h_len = target.shape[1]
    for var in range(v):
        for t in range(t_len):
            lines.append(f"{t - t_len},{var},{float(history[var, t])!r},,")
        for t in range(h_len):
            lines.append(f"{t},{var},,{float(target[var, t])!r},"
                         f"{float(forecast[var, t])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_series_columns(path, columns: dict) -> None:
    keys = list(columns)
    arrays = [np.asarray(columns[k]).reshape(-1) for k in keys]
    n = max(a.size for a in arrays)
    lines = ["step," + ",".join(keys)]
    for i in range(n):
        cells = [repr(float(a[i])) if i < a.size else "" for a in arrays]
        lines.append(f"{i}," + ",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
