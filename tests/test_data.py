"""Loader, split, standardization, and windowing contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcast import data as D
from mixcast.data import DataError

from conftest import synthetic_series, write_series_csv


def write_csv(path, text):
    path.write_text(text)
    return path


def test_load_small_file(tmp_path):
    p = write_csv(tmp_path / "a.csv",
                  "date,u,v\n"
                  "2020-01-01 00:00:00,1.0,2.0\n"
                  "2020-01-01 01:00:00,3.0,4.0\n"
                  "2020-01-01 02:00:00,5.0,6.0\n")
    raw = D.load_csv(p)
    assert raw.values.shape == (3, 2)
    assert raw.names == ["u", "v"]
    assert raw.values[1, 1] == 4.0


def test_load_blank_cell_names_position(tmp_path):
    p = write_csv(tmp_path / "b.csv", "date,u\n2020-01-01,1.0\n2020-01-02,\n")
    with pytest.raises(DataError, match="row 3, column 2"):
        D.load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_load_nonfinite_cell_names_position(tmp_path, cell):
    p = write_csv(tmp_path / "n.csv",
                  f"date,u,v\n2020-01-01,1.0,2.0\n2020-01-02,3.0,{cell}\n")
    with pytest.raises(DataError, match="non-finite cell .* row 3, column 3"):
        D.load_csv(p)


def test_load_unparsable_cell(tmp_path):
    p = write_csv(tmp_path / "c.csv", "date,u\n2020-01-01,1.0\n2020-01-02,oops\n")
    with pytest.raises(DataError, match="oops"):
        D.load_csv(p)


def test_load_ragged_row(tmp_path):
    p = write_csv(tmp_path / "d.csv", "date,u,v\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n")
    with pytest.raises(DataError, match="row 3"):
        D.load_csv(p)


def test_load_unordered_timestamps(tmp_path):
    p = write_csv(tmp_path / "e.csv",
                  "date,u\n2020-01-02,1.0\n2020-01-01,2.0\n")
    with pytest.raises(DataError, match="chronological"):
        D.load_csv(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        D.load_csv(tmp_path / "nope.csv")


def test_generic_split_percentages():
    spec = D.chronological_split(100, "generic")
    assert spec.train_range == (0, 70)
    assert spec.val_range == (70, 80)
    assert spec.test_range == (80, 100)


def test_ett_hourly_boundaries():
    spec = D.chronological_split(17420, "etth")
    assert spec.train_range == (0, 8640)
    assert spec.val_range == (8640, 11520)
    assert spec.test_range == (11520, 14400)


def test_ett_quarter_hourly_boundaries():
    spec = D.chronological_split(69680, "ettm")
    assert spec.train_range == (0, 34560)
    assert spec.val_range == (34560, 46080)
    assert spec.test_range == (46080, 57600)


def test_split_minimum_lengths():
    with pytest.raises(DataError):
        D.chronological_split(14399, "etth")
    with pytest.raises(DataError):
        D.chronological_split(5, "generic")


@given(st.integers(10, 5000))
@settings(max_examples=50, deadline=None)
def test_generic_split_disjoint_and_ordered(total):
    spec = D.chronological_split(total, "generic")
    a, b = spec.train_range
    c, d = spec.val_range
    e, f = spec.test_range
    assert 0 == a < b == c < d == e < f == total


def make_raw(values):
    rows = values.shape[0]
    return D.RawSeries(
        names=[f"v{i}" for i in range(values.shape[1])],
        values=np.asarray(values, dtype=np.float64),
        timestamps=[str(i) for i in range(rows)],
    )


def test_standardize_hand_values():
    raw = make_raw(np.array([[1.0], [2.0], [3.0]]))
    spec = D.SplitSpec((0, 3), (0, 3), (0, 3))
    out, stats = D.standardize(raw, spec)
    expected = np.array([[-1.22474487], [0.0], [1.22474487]])
    assert np.abs(out.values - expected).max() < 1e-8
    assert stats.mean[0] == 2.0


def test_standardize_is_idempotent():
    rng = np.random.default_rng(0)
    raw = make_raw(rng.normal(2.0, 3.0, size=(50, 4)))
    spec = D.chronological_split(50, "generic")
    once, _ = D.standardize(raw, spec)
    twice, stats = D.standardize(once, spec)
    assert np.abs(twice.values - once.values).max() < 1e-12
    assert np.abs(stats.mean).max() < 1e-12
    assert np.abs(stats.std - 1.0).max() < 1e-12


def test_standardize_uses_train_stats_for_val():
    values = np.concatenate([
        np.arange(10.0).reshape(-1, 1),     # train: varies, mean 4.5
        np.full((4, 1), 7.0),               # val: constant, off the train mean
    ])
    raw = make_raw(values)
    spec = D.SplitSpec((0, 10), (10, 14), (10, 14))
    out, stats = D.standardize(raw, spec)
    assert np.all(out.values[10:] == (7.0 - stats.mean[0]) / stats.std[0])
    assert np.abs(out.values[10:]).max() > 0  # not renormalized to zero


def test_standardize_rejects_zero_variance():
    raw = make_raw(np.hstack([np.arange(8.0).reshape(-1, 1),
                              np.full((8, 1), 2.0)]))
    spec = D.SplitSpec((0, 8), (0, 8), (0, 8))
    with pytest.raises(DataError, match="v1"):
        D.standardize(raw, spec)


def test_no_leakage_from_test_rows():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(100, 3))
    spec = D.chronological_split(100, "generic")
    _, stats_a = D.standardize(make_raw(values), spec)
    perturbed = values.copy()
    perturbed[85] += 1000.0
    _, stats_b = D.standardize(make_raw(perturbed), spec)
    assert np.array_equal(stats_a.mean, stats_b.mean)
    assert np.array_equal(stats_a.std, stats_b.std)


def test_window_count_example():
    values = np.arange(20.0).reshape(10, 2)
    ds = D.window_iter(values, (0, 10), 4, 2)
    assert len(ds) == 5


def test_window_contents_no_gap_no_overlap():
    values = np.arange(10.0).reshape(10, 1)
    ds = D.window_iter(values, (0, 10), 4, 2)
    x, y = ds.window(0)
    assert x.tolist() == [[0.0, 1.0, 2.0, 3.0]]
    assert y.tolist() == [[4.0, 5.0]]
    x1, _ = ds.window(1)
    assert x1.tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_window_reconstruction():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(30, 2))
    ds = D.window_iter(values, (0, 30), 5, 3)
    for s in (0, 7, len(ds) - 1):
        x, y = ds.window(s)
        joined = np.concatenate([x.T, y.T])
        assert np.abs(joined - values[s:s + 8]).max() < 1e-6


@given(st.integers(2, 200), st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_window_count_formula(length, lookback, horizon):
    values = np.zeros((length, 1))
    if length < lookback + horizon:
        with pytest.raises(DataError):
            D.window_iter(values, (0, length), lookback, horizon)
    else:
        ds = D.window_iter(values, (0, length), lookback, horizon)
        assert len(ds) == length - lookback - horizon + 1


def test_windows_for_split_overhang():
    values = np.arange(100.0).reshape(100, 1)
    spec = D.chronological_split(100, "generic")
    t = 8
    val = D.windows_for_split(values, spec, "val", t, 2)
    # val range is [70, 80); with the overhang X may start at 62
    assert len(val) == (80 - 62) - 8 - 2 + 1
    x0, y0 = val.window(0)
    assert x0[0, 0] == 62.0
    train = D.windows_for_split(values, spec, "train", t, 2)
    assert len(train) == 70 - 8 - 2 + 1


def test_batch_stacking():
    values = synthetic_series(40, 2, seed=3)
    ds = D.window_iter(values, (0, 40), 6, 2)
    xs, ys = ds.batch([0, 3, 5])
    assert xs.shape == (3, 2, 6)
    assert ys.shape == (3, 2, 2)
    assert xs.dtype == np.float32


def test_etth1_has_seven_variates_when_available(tmp_path):
    from conftest import etth1_path
    path = etth1_path()
    if path is None:
        # same header contract checked on a synthetic stand-in
        values = synthetic_series(30, 7, seed=4)
        path = write_series_csv(tmp_path / "ett_like.csv", values)
        raw = D.load_csv(path)
        assert raw.num_variates == 7
        pytest.skip("real ETTh1.csv not available; checked synthetic stand-in")
    raw = D.load_csv(path)
    assert raw.num_variates == 7
