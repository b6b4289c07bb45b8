"""Loader, split, standardization, and windowing contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcast import data as D
from mixcast.data import DataError

from conftest import synthetic_series, write_series_csv


def write_csv(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return path


STAMPS = ["2020-01-01 00:00:00", "2020-01-01 01:00:00", "2020-01-01 02:00:00"]
SMALL = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

# (text, names, values, timestamps) of files every reader must accept alike.
VALID_FILES = [
    pytest.param("date,u,v\n"
                 "2020-01-01 00:00:00,1.0,2.0\n"
                 "2020-01-01 01:00:00,3.0,4.0\n"
                 "2020-01-01 02:00:00,5.0,6.0\n",
                 ["u", "v"], SMALL, STAMPS, id="plain"),
    pytest.param("date,u,v\r\n"
                 "2020-01-01 00:00:00,1.0,2.0\r\n"
                 "2020-01-01 01:00:00,3.0,4.0\r\n"
                 "2020-01-01 02:00:00,5.0,6.0\r\n",
                 ["u", "v"], SMALL, STAMPS, id="crlf"),
    pytest.param("date,u,v\r"
                 "2020-01-01 00:00:00,1.0,2.0\r"
                 "2020-01-01 01:00:00,3.0,4.0\r"
                 "2020-01-01 02:00:00,5.0,6.0",
                 ["u", "v"], SMALL, STAMPS, id="cr-no-final-newline"),
    pytest.param('"date","u","v"\n'
                 '"2020-01-01 00:00:00","1.0","2.0"\n'
                 '"2020-01-01 01:00:00",3.0,"4.0"\n'
                 '"2020-01-01 02:00:00",5.0,6.0\n',
                 ["u", "v"], SMALL, STAMPS, id="quoted"),
    pytest.param('date,u,v\n'
                 '"2020-01-01 00:00:00",1.0,2.0\n'
                 '"2020-01-01 01:00:00",3.0,4.0\n'
                 '"2020-01-01 02:00:00",5.0,6.0\n',
                 ["u", "v"], SMALL, STAMPS, id="quoted-timestamps"),
    pytest.param("date, u ,v \n"
                 "2020-01-01 00:00:00, 1.0 ,2.0\n"
                 "2020-01-01 01:00:00 ,3.0 , 4.0\n"
                 "2020-01-01 02:00:00,\t5.0,6.0 \n",
                 ["u", "v"], SMALL, [STAMPS[0], STAMPS[1] + " ", STAMPS[2]],
                 id="spaces"),
    pytest.param("date,u,v\n"
                 "2020-01-01 00:00:00,+1.5,2.0\n"
                 "2020-01-01 01:00:00,3.0,+4e0\n"
                 "2020-01-01 02:00:00,5.0,-6.0\n",
                 ["u", "v"], [[1.5, 2.0], [3.0, 4.0], [5.0, -6.0]], STAMPS,
                 id="signs-and-exponent"),
    pytest.param("date,u,v\n"
                 "2020-01-01 00:00:00,1_000,2.0\n"
                 "2020-01-01 01:00:00,3.0,4.0\n"
                 "2020-01-01 02:00:00,\u0665.0,6.0\n",
                 ["u", "v"], [[1000.0, 2.0], [3.0, 4.0], [5.0, 6.0]], STAMPS,
                 id="forms-only-float-reads"),
    # Stripped timestamps are in order; the raw ones are not.
    pytest.param("date,u\n2020-01-01 00:00:00,1.0\n 2020-01-01 01:00:00,2.0\n",
                 ["u"], [[1.0], [2.0]], [STAMPS[0], " " + STAMPS[1]],
                 id="timestamp-leading-space"),
]
# Of those, the files numpy's C reader leaves to the cell-by-cell reader.
CELL_READER_ONLY = {"quoted", "quoted-timestamps", "forms-only-float-reads"}


@pytest.mark.parametrize("text,names,values,timestamps", VALID_FILES)
def test_load_small_file(tmp_path, text, names, values, timestamps):
    raw = D.load_csv(write_csv(tmp_path / "a.csv", text))
    assert raw.names == names
    assert raw.values.dtype == np.float64
    assert raw.values.tolist() == values
    assert raw.timestamps == timestamps


@pytest.mark.parametrize("text,position", [
    ("date,u\n2020-01-01,1.0\n2020-01-02,\n", "row 3, column 2"),
    ("date,u,v\n2020-01-01,1.0,2.0\n2020-01-02, ,4.0\n", "row 3, column 2"),
    ("date,u\n2020-01-01,1.0\n2020-01-02,\r\n", "row 3, column 2"),
    # np.loadtxt skips a line with nothing after its timestamp's comma, and
    # warns when it is left with no line at all.
    ("date,u\n2020-01-01,\n2020-01-02,\n", "row 2, column 2"),
])
@pytest.mark.filterwarnings("error")
def test_load_blank_cell_names_position(tmp_path, text, position):
    p = write_csv(tmp_path / "b.csv", text)
    with pytest.raises(DataError, match=f"blank cell at {position}$"):
        D.load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_load_nonfinite_cell_names_position(tmp_path, cell):
    p = write_csv(tmp_path / "n.csv",
                  f"date,u,v\n2020-01-01,1.0,2.0\n2020-01-02,3.0,{cell}\n")
    with pytest.raises(DataError, match="non-finite cell .* row 3, column 3"):
        D.load_csv(p)


@pytest.mark.parametrize("cell", ["oops", "1.0.0", "0x10", "--1"])
def test_load_unparsable_cell(tmp_path, cell):
    p = write_csv(tmp_path / "c.csv", f"date,u\n2020-01-01,1.0\n2020-01-02,{cell}\n")
    with pytest.raises(DataError, match=f"unparsable cell '{cell}' at row 3, column 2$"):
        D.load_csv(p)


@pytest.mark.parametrize("text,message", [
    ("date,u,v\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n", "row 3 has 2 cells, expected 3"),
    ("date,u,v\n2020-01-01,1.0\n2020-01-02,3.0\n", "row 2 has 2 cells, expected 3"),
    ("date,u\n2020-01-01,1.0\n\n2020-01-03,3.0\n", "row 3 has 0 cells, expected 2"),
    ("date,u\n2020-01-01,1.0\n2020-01-02,2.0\n\n", "row 4 has 0 cells, expected 2"),
    ("date,u\n2020-01-01,1.0\n2020-01-02,2.0,3.0\n", "row 3 has 3 cells, expected 2"),
    ("date,u\n2020-01-01,1.0,\n2020-01-02,2.0\n", "row 2 has 3 cells, expected 2"),
    ("date,u,\n2020-01-01,1.0,\n2020-01-02,2.0,\n", "blank cell at row 2, column 3"),
], ids=["short", "every-row-short", "blank-line", "two-final-newlines",
        "extra-cell", "trailing-comma", "trailing-comma-every-line"])
def test_load_ragged_row(tmp_path, text, message):
    p = write_csv(tmp_path / "d.csv", text)
    with pytest.raises(DataError, match=f"{message}$"):
        D.load_csv(p)


@pytest.mark.parametrize("text,message", [
    ("", "empty file"),
    ("date,u\n", "no data rows"),
    ("date\n2020-01-01\n", "need a timestamp column plus at least one variate"),
], ids=["empty", "header-only", "one-column"])
def test_load_no_variates_or_rows(tmp_path, text, message):
    p = write_csv(tmp_path / "h.csv", text)
    with pytest.raises(DataError, match=f"{message}$"):
        D.load_csv(p)


@pytest.mark.parametrize("first", ["2020-01-02", " 2020-01-02"])
def test_load_unordered_timestamps(tmp_path, first):
    p = write_csv(tmp_path / "e.csv", f"date,u\n{first},1.0\n2020-01-01,2.0\n")
    with pytest.raises(DataError, match="chronological"):
        D.load_csv(p)


def latin1_rows(rows, quote=""):
    return "".join(f"{quote}2020-01-01 00:00:00{quote},{r}.0\n" for r in range(rows))


@pytest.mark.parametrize("text", [
    "date,temp\xe9rature\n" + latin1_rows(3),
    "date,u\n" + latin1_rows(2000) + "2020-01-01 00:00:00,caf\xe9\n",
    "date,u\n" + latin1_rows(2000, quote='"') + "2020-01-01 00:00:00,caf\xe9\n",
], ids=["header", "mid-stream", "mid-stream-cell-reader"])
def test_load_not_utf8_names_file(tmp_path, text):
    p = tmp_path / "latin1.csv"
    p.write_bytes(text.encode("latin-1"))
    with pytest.raises(DataError, match=r"latin1\.csv: not UTF-8 text .*0xe9"):
        D.load_csv(p)


def assert_same_parse(got, want):
    (got_names, got_values, got_stamps), (names, values, stamps) = got, want
    assert got_names == names
    assert got_stamps == stamps
    assert got_values.dtype == values.dtype and got_values.shape == values.shape
    assert got_values.tobytes() == values.tobytes()


@pytest.fixture(scope="module")
def series_csvs(tmp_path_factory):
    """The benchmark's ETTh1, Weather and Electricity shapes on disk."""
    root = tmp_path_factory.mktemp("series")
    return {shape: write_series_csv(root / f"{shape[0]}x{shape[1]}.csv",
                                    synthetic_series(*shape, seed=shape[1]))
            for shape in ((17420, 7), (2200, 21), (2400, 321))}


@pytest.mark.parametrize("shape", [(17420, 7), (2200, 21), (2400, 321)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_loadtxt_reader_matches_cell_reader(series_csvs, shape):
    path = series_csvs[shape]
    fast = D._read_with_loadtxt(path)
    assert fast is not None
    assert fast[1].shape == shape
    assert_same_parse(fast, D._read_cell_by_cell(path))


@pytest.mark.parametrize("text,names,values,timestamps", VALID_FILES)
def test_loadtxt_reader_matches_cell_reader_on_unusual_files(
        tmp_path, request, text, names, values, timestamps):
    p = write_csv(tmp_path / "u.csv", text)
    fast = D._read_with_loadtxt(p)
    if request.node.callspec.id in CELL_READER_ONLY:
        assert fast is None
    else:
        assert_same_parse(fast, D._read_cell_by_cell(p))


def test_load_peak_memory_is_near_the_values(series_csvs):
    # Feeding np.loadtxt a list of lines, or collecting Python floats, costs
    # several times the array.
    path = series_csvs[(2400, 321)]
    tracemalloc.start()
    try:
        raw = D.load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * raw.values.nbytes, (peak, raw.values.nbytes)


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


def test_split_names_an_unknown_split():
    with pytest.raises(DataError, match="^unknown split 'train2'$"):
        D.chronological_split(100, "generic").range_for("train2")


def test_split_names_an_unknown_dataset_kind():
    with pytest.raises(DataError, match="^unknown dataset kind 'hourly'$"):
        D.chronological_split(100, "hourly")


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


def test_standardize_rejects_an_empty_train_range():
    raw = make_raw(np.arange(12.0).reshape(6, 2))
    with pytest.raises(DataError, match="^empty train range$"):
        D.standardize(raw, D.SplitSpec((3, 3), (3, 4), (4, 6)))


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
    xs, ys = ds.batch([0, 1])
    assert xs[0].tolist() == [[0.0, 1.0, 2.0, 3.0]]
    assert ys[0].tolist() == [[4.0, 5.0]]
    assert xs[1].tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_window_reconstruction():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(30, 2))
    ds = D.window_iter(values, (0, 30), 5, 3)
    for s in (0, 7, len(ds) - 1):
        xs, ys = ds.batch([s])
        joined = np.concatenate([xs[0].T, ys[0].T])
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
    xs, _ = val.batch([0])
    assert xs[0, 0, 0] == 62.0
    train = D.windows_for_split(values, spec, "train", t, 2)
    assert len(train) == 70 - 8 - 2 + 1


@pytest.mark.parametrize("split_range", [(-1, 4), (4, 4), (2, 7)])
def test_windows_reject_a_range_out_of_bounds(split_range):
    with pytest.raises(DataError, match=rf"^range \({split_range[0]}, {split_range[1]}\) "
                                        "out of bounds for 6 rows$"):
        D.window_iter(np.zeros((6, 2)), split_range, 2, 1)


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


def test_batch_equals_stacked_windows():
    from mixcast import tensor as T
    values = synthetic_series(60, 3, seed=5)
    ds = D.window_iter(values, (7, 60), 8, 4)
    indices = [0, 5, 5, len(ds) - 1, 2]
    # Both precisions on one dataset, each batch in the dtype of its call.
    for dtype in (np.float32, np.float64, np.float32):
        with T.precision(dtype):
            xs, ys = ds.batch(np.array(indices))
        # Window i starts at row 7 + i of values.
        want_x = np.stack([values[7 + i:15 + i].T for i in indices]).astype(dtype)
        want_y = np.stack([values[15 + i:19 + i].T for i in indices]).astype(dtype)
        for got, want in ((xs, want_x), (ys, want_y)):
            assert got.dtype == dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def test_batch_names_an_empty_batch():
    # An empty list is a float array, which numpy refuses as indices.
    ds = D.window_iter(synthetic_series(40, 2, seed=6), (0, 40), 6, 2)
    with pytest.raises(DataError, match="an empty batch"):
        ds.batch([])


@pytest.mark.parametrize("bad", [-1, -33, 33, 99])
def test_batch_rejects_out_of_range_index(bad):
    # Fancy indexing would wrap negative indices instead of raising.
    values = synthetic_series(40, 2, seed=6)
    ds = D.window_iter(values, (0, 40), 6, 2)
    assert len(ds) == 33
    with pytest.raises(IndexError, match=f"window {bad} out of range"):
        ds.batch([0, bad, 1])
