"""CSV ingestion, train-only standardization, chronological splits, and
sliding-window pair generation.

``load_csv`` reads a UTF-8 file.  Its header goes through ``csv.reader``; its
data lines go, timestamp split off, to numpy's C parser (``np.loadtxt``).  A
file that parser refuses, or reads to other row or column counts than the
header and line count imply, is read again cell by cell with ``csv.reader``
and ``float``: a blank line, a ragged row, a blank or unparsable cell, a quote
character, or a cell only ``float`` accepts such as ``1_000``.  Only that
reader names the bad row and column.  Both give the same values.

Windows are (X: [V, T], Y: [V, H]) pairs cut with stride 1.  Validation and
test windows may reach back up to T rows into the preceding split for
context; standardization statistics come from the train range only.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T

DATASET_KINDS = ("etth", "ettm", "generic")

# 12/4/4 months of hourly (and quarter-hourly) samples.
_ETTH_BOUNDS = (8640, 8640 + 2880, 8640 + 2880 + 2880)
_ETTM_BOUNDS = (34560, 34560 + 11520, 34560 + 11520 + 11520)

_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}([ T]\d{2}:\d{2}(:\d{2})?)?$")


class DataError(ValueError):
    """Raised for malformed input files or impossible split/window requests."""


@dataclass
class RawSeries:
    names: list[str]
    values: np.ndarray          # [L_total, V], time-ordered
    timestamps: list[str]

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def num_variates(self) -> int:
        return self.values.shape[1]


@dataclass
class SplitSpec:
    train_range: tuple[int, int]
    val_range: tuple[int, int]
    test_range: tuple[int, int]

    def range_for(self, which: str) -> tuple[int, int]:
        try:
            return getattr(self, f"{which}_range")
        except AttributeError:
            raise DataError(f"unknown split {which!r}") from None


@dataclass
class StandardizationStats:
    mean: np.ndarray  # per variate, train range only
    std: np.ndarray   # per variate, population convention


@dataclass
class WindowedDataset:
    """Sliding (X, Y) windows over one contiguous row range.

    ``windows()`` gives every window as a read-only view, which evaluation
    reads in place; ``batch`` gathers copies of any windows, which shuffled
    training batches need."""

    values: np.ndarray
    start: int
    stop: int
    lookback: int
    horizon: int

    def __post_init__(self):
        usable = self.stop - self.start
        if usable < self.lookback + self.horizon:
            raise DataError(
                f"range of {usable} rows cannot fit lookback {self.lookback} "
                f"+ horizon {self.horizon}"
            )
        self._windows_by_dtype = {}

    def __len__(self) -> int:
        return (self.stop - self.start) - self.lookback - self.horizon + 1

    def window(self, i: int):
        """(X [V,T], Y [V,H]) for window i, in the engine's default dtype."""
        if not 0 <= i < len(self):
            raise IndexError(f"window {i} out of range (n={len(self)})")
        s = self.start + i
        dtype = T.default_dtype()
        x = np.ascontiguousarray(self.values[s:s + self.lookback].T, dtype)
        y = np.ascontiguousarray(
            self.values[s + self.lookback:s + self.lookback + self.horizon].T,
            dtype)
        return x, y

    def windows(self):
        """Read-only [n, V, T] and [n, V, H] views, in the engine's default
        dtype, whose entry i is window i.

        They slide over a [V, rows] copy of the range, made once per dtype and
        kept, so each window row is a contiguous run: evaluation slices them
        in place, and a batch of any indices is one gather from them."""
        dtype = T.default_dtype()
        views = self._windows_by_dtype.get(dtype)
        if views is None:
            rows = np.ascontiguousarray(self.values[self.start:self.stop].T, dtype)
            n = len(self)
            views = (sliding_window_view(rows, self.lookback, axis=1).swapaxes(0, 1)[:n],
                     sliding_window_view(rows[:, self.lookback:], self.horizon,
                                         axis=1).swapaxes(0, 1))
            self._windows_by_dtype[dtype] = views
        return views

    def batch(self, indices):
        """Windows as (xs [B,V,T], ys [B,V,H]) copies, each gathered from
        ``windows()`` in one step; equal to stacking window(i) for each
        index."""
        idx = np.asarray(indices)
        n = len(self)
        bad = idx[(idx < 0) | (idx >= n)]
        if bad.size:
            raise IndexError(f"window {bad[0]} out of range (n={n})")
        x_windows, y_windows = self.windows()
        return np.ascontiguousarray(x_windows[idx]), np.ascontiguousarray(y_windows[idx])


def load_csv(path) -> RawSeries:
    """Parse a header-bearing CSV whose first column is a timestamp and whose
    remaining columns are numeric variates."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        parsed = _read_with_loadtxt(path) or _read_cell_by_cell(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (cannot decode byte "
                        f"0x{exc.object[exc.start]:02x})") from None
    names, values, timestamps = parsed
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path}: non-finite cell {float(values[r, c])} at row {r + 2}, "
                        f"column {c + 2}")
    stamps = [t.strip() for t in timestamps]
    if all(_TIMESTAMP_RE.match(t) for t in stamps):
        ordered = all(a <= b for a, b in zip(stamps, stamps[1:]))
        if not ordered:
            raise DataError(f"{path}: timestamps are not in chronological order")
    return RawSeries(names=names, values=values, timestamps=timestamps)


def _read_header(path: Path, fh) -> list[str]:
    """The variate names of the header record, which is read from ``fh`` and
    nothing after it."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if len(header) < 2:
        raise DataError(f"{path}: need a timestamp column plus at least one variate")
    return [h.strip() for h in header[1:]]


def _value_fields(lines, timestamps: list[str]):
    """Each line's text after its timestamp, lazily, so that np.loadtxt
    builds no per-cell Python objects; the timestamps go to ``timestamps``.

    Raises ValueError, as loadtxt does on a cell it cannot read, on a line
    with a quote, which csv.reader unquotes and loadtxt does not, or with no
    comma or nothing after the first, which loadtxt would skip as blank."""
    for line in lines:
        stamp, comma, rest = line.partition(",")
        if not comma or rest[:1] in "\r\n" or '"' in line:
            raise ValueError("line needs the cell-by-cell reader")
        timestamps.append(stamp)
        yield rest


def _read_with_loadtxt(path: Path):
    """(names, values, timestamps) parsed by numpy's C reader, or None when the
    file needs ``_read_cell_by_cell``."""
    with path.open(encoding="utf-8", newline="") as fh:
        names = _read_header(path, fh)
        first = next(fh, None)
        if first is None:
            raise DataError(f"{path}: no data rows")
        timestamps: list[str] = []
        try:
            values = np.loadtxt(_value_fields(itertools.chain([first], fh), timestamps),
                                delimiter=",", comments=None, ndmin=2)
        except UnicodeDecodeError:  # a ValueError, which rereading cannot mend
            raise
        except ValueError:
            return None
    if values.shape != (len(timestamps), len(names)):
        return None
    return names, values, timestamps


def _read_cell_by_cell(path: Path):
    """(names, values, timestamps) parsed by csv.reader and float, naming the
    row and column of the first bad cell."""
    with path.open(encoding="utf-8", newline="") as fh:
        names = _read_header(path, fh)
        width = len(names) + 1
        timestamps: list[str] = []
        rows: list[list[float]] = []
        for r, row in enumerate(csv.reader(fh), start=2):
            if len(row) != width:
                raise DataError(f"{path}: row {r} has {len(row)} cells, expected {width}")
            timestamps.append(row[0])
            parsed = []
            for c, cell in enumerate(row[1:], start=2):
                text = cell.strip()
                if not text:
                    raise DataError(f"{path}: blank cell at row {r}, column {c}")
                try:
                    parsed.append(float(text))
                except ValueError:
                    raise DataError(
                        f"{path}: unparsable cell {cell!r} at row {r}, column {c}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return names, np.asarray(rows, dtype=np.float64), timestamps


def chronological_split(total_rows: int, dataset_kind: str) -> SplitSpec:
    """Fixed boundaries for the ETT conventions, 70/10/20 otherwise."""
    if dataset_kind not in DATASET_KINDS:
        raise DataError(f"unknown dataset kind {dataset_kind!r}")
    if dataset_kind == "etth":
        bounds = _ETTH_BOUNDS
    elif dataset_kind == "ettm":
        bounds = _ETTM_BOUNDS
    else:
        n_train = int(total_rows * 0.7)
        n_val = int(total_rows * 0.1)
        if n_train < 1 or n_val < 1 or total_rows - n_train - n_val < 1:
            raise DataError(f"{total_rows} rows are too few for a 70/10/20 split")
        return SplitSpec((0, n_train), (n_train, n_train + n_val),
                         (n_train + n_val, total_rows))
    if total_rows < bounds[2]:
        raise DataError(
            f"{dataset_kind} split needs at least {bounds[2]} rows, got {total_rows}"
        )
    return SplitSpec((0, bounds[0]), (bounds[0], bounds[1]), (bounds[1], bounds[2]))


def standardize(raw: RawSeries, split: SplitSpec):
    """Per-variate (x - mean_train) / std_train over the whole series."""
    lo, hi = split.train_range
    if hi <= lo:
        raise DataError("empty train range")
    train = raw.values[lo:hi]
    mean = train.mean(axis=0)
    std = train.std(axis=0)  # population
    for v, s in enumerate(std):
        if s == 0.0:
            raise DataError(f"variate {raw.names[v]!r} has zero train variance")
    values = (raw.values - mean) / std
    out = RawSeries(names=list(raw.names), values=values,
                    timestamps=list(raw.timestamps))
    return out, StandardizationStats(mean=mean, std=std)


def window_iter(series, split_range: tuple[int, int], lookback: int,
                horizon: int) -> WindowedDataset:
    """All stride-1 windows whose X and Y both fall inside the given range."""
    values = series.values if isinstance(series, RawSeries) else np.asarray(series)
    start, stop = split_range
    if not 0 <= start < stop <= values.shape[0]:
        raise DataError(f"range {split_range} out of bounds for {values.shape[0]} rows")
    return WindowedDataset(values=values, start=start, stop=stop,
                           lookback=lookback, horizon=horizon)


def windows_for_split(series, spec: SplitSpec, which: str, lookback: int,
                      horizon: int) -> WindowedDataset:
    """Windows for one split; val/test ranges gain the standard lookback
    overhang into the preceding rows."""
    start, stop = spec.range_for(which)
    if which in ("val", "test"):
        start = max(0, start - lookback)
    return window_iter(series, (start, stop), lookback, horizon)
