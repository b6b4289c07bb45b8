"""Forecast metrics and machine-readable reports.

Metrics are computed in standardized data space: MSE and MAE are means over
all N*V*H entries, RMSE is the square root of the MSE, and MAPE guards zero
targets with a small epsilon.

The sums stream through two float64 scratch buffers of at most ``_LEAF``
entries instead of full-size float64 copies.  Inputs of any strides (the
sliding window views evaluation scores, a broadcast array) are read leaf by
leaf in C order: a contiguous input in place, any other through one more
leaf-sized scratch buffer of its own dtype, never a full-size copy.  The sums
stay bit-identical to the plain float64 formula because numpy sums a
contiguous float64 array pairwise: it splits n entries at n // 2 rounded down
to a multiple of 8 and adds the two halves' sums.  ``compute_metrics`` splits the C-ordered entries
the same way until a piece fits in a leaf, lets numpy sum each leaf (the
same subtree numpy would have summed), and adds the leaf sums back along the
same tree, so every addition happens in the same order on the same values.

Reports are line-delimited JSON records with a stable key order plus a
plain-text comparison table, so two emissions of the same reports are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .tensor import ShapeError

MAPE_EPS = 1e-8

# Entries per leaf of the metric sums: two float64 scratch buffers of this
# length (256 KiB each) stay in cache.
_LEAF = 32_768


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


# The stable key order of every serialization: the field order above.
_REPORT_FIELDS = tuple(f.name for f in fields(MetricsReport))


def compute_metrics(pred: np.ndarray, target: np.ndarray) -> dict:
    """MSE / MAE / RMSE / MAPE over every entry of matching arrays of any
    strides, read in C order; each equals, bit for bit, the plain float64
    formula on C-ordered inputs, without any full-size buffer.  A contiguous
    input is read in place; of any other, only the current leaf's entries are
    copied, into a leaf-sized scratch buffer of its own dtype."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ShapeError("metrics need at least one entry")
    n = pred.size
    size = min(n, _LEAF)
    read_p, read_t = _leaf_reader(pred, size), _leaf_reader(target, size)
    err = np.empty(size)
    scratch = np.empty_like(err)

    def leaf(lo: int, hi: int) -> tuple:
        e, s = err[:hi - lo], scratch[:hi - lo]
        t = read_t(lo, hi)
        np.subtract(t, read_p(lo, hi), out=e, dtype=np.float64)
        np.square(e, out=s)
        squares = s.sum()
        np.abs(e, out=e)
        errors = e.sum()
        np.abs(t, out=s, dtype=np.float64)
        s += MAPE_EPS
        np.divide(e, s, out=s)
        return squares, errors, s.sum()

    squares, errors, ratios = _pairwise(leaf, 0, n)
    mse = float(squares / n)
    return {"mse": mse, "mae": float(errors / n), "rmse": float(np.sqrt(mse)),
            "mape": float(100.0 * (ratios / n))}


def _pairwise(leaf, lo: int, hi: int) -> tuple:
    """Sums over entries [lo, hi) along numpy's pairwise tree: split at half
    the length rounded down to a multiple of 8 until a piece fits in a leaf,
    whose sums ``leaf(lo, hi)`` gives.  A module function, not a closure: a
    closure that calls itself is a reference cycle, and would keep the inputs
    alive until the garbage collector runs."""
    if hi - lo <= _LEAF:
        return leaf(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    left, right = _pairwise(leaf, lo, lo + half), _pairwise(leaf, lo + half, hi)
    return tuple(a + b for a, b in zip(left, right))


def _leaf_reader(a: np.ndarray, size: int):
    """``read(lo, hi)``: entries [lo, hi) of ``a`` in C order, as a 1-D
    array.  A C-contiguous ``a`` is sliced in place; any other is copied,
    one block of whole rows at a time, into a scratch buffer of ``size``
    entries."""
    if a.flags.c_contiguous:
        flat = a.reshape(-1)
        return lambda lo, hi: flat[lo:hi]
    buf = np.empty(size, a.dtype)

    def read(lo: int, hi: int) -> np.ndarray:
        out = buf[:hi - lo]
        _copy_c_order(a, lo, hi, out)
        return out

    return read


def _copy_c_order(a: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """Copy entries [lo, hi) of ``a`` in C order into the 1-D ``out``: a
    partial first row, the whole rows between, and a partial last row, each
    row of the leading axis split the same way, so at most two copies per
    axis.  A module function, like ``_pairwise``, so that no closure cycle
    keeps ``a`` alive."""
    if a.ndim == 1:
        out[...] = a[lo:hi]
        return
    inner = a[0].size
    first, stop = lo // inner, hi // inner
    if first == (hi - 1) // inner:
        _copy_c_order(a[first], lo - first * inner, hi - first * inner, out)
        return
    pos = 0
    if lo > first * inner:
        pos = (first + 1) * inner - lo
        _copy_c_order(a[first], lo - first * inner, inner, out[:pos])
        first += 1
    whole = (stop - first) * inner
    out[pos:pos + whole].reshape((stop - first,) + a.shape[1:])[...] = a[first:stop]
    if hi > stop * inner:
        _copy_c_order(a[stop], 0, hi - stop * inner, out[pos + whole:])


def mean_rows(reports: list[MetricsReport]) -> list[dict]:
    """Arithmetic means across seeds per (dataset, horizon, config_id), in
    the report's key order; the seed reads "mean"."""
    groups: dict[tuple, list[MetricsReport]] = {}
    for r in reports:
        groups.setdefault((r.dataset, r.horizon, r.lookback, r.config_id), []).append(r)
    rows = []
    for (dataset, horizon, lookback, config_id), members in groups.items():
        fixed = {"dataset": dataset, "horizon": horizon, "lookback": lookback,
                 "seed": "mean", "config_id": config_id}
        rows.append({key: fixed[key] if key in fixed
                     else float(np.mean([getattr(m, key) for m in members]))
                     for key in _REPORT_FIELDS})
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


def emit_report(reports: list[MetricsReport], path) -> None:
    """Write the JSONL metrics document and its text table beside it."""
    if not reports:
        raise ValueError("emit_report needs at least one report")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [asdict(r) for r in reports]
    records += mean_rows(reports)
    with path.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    path.with_suffix(".txt").write_text(_format_table(records))


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
