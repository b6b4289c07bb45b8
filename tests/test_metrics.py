"""Metric formulas against a double-loop reference, plus report io."""

import gc
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcast import metrics as M
from mixcast.metrics import MetricsReport, compute_metrics
from mixcast.tensor import ShapeError


def double_loop_reference(pred, target, eps=1e-8):
    """Scalar-at-a-time metric computation, the oracle for compute_metrics."""
    flat_p = pred.reshape(-1)
    flat_t = target.reshape(-1)
    se = ae = pe = 0.0
    for i in range(flat_p.size):
        diff = flat_t[i] - flat_p[i]
        se += diff * diff
        ae += abs(diff)
        pe += abs(diff) / (abs(flat_t[i]) + eps)
    n = flat_p.size
    mse = se / n
    return {"mse": mse, "mae": ae / n, "rmse": mse ** 0.5, "mape": 100.0 * pe / n}


def make_report(**overrides) -> MetricsReport:
    fields = dict(dataset="demo", horizon=4, lookback=8, seed=2021, mse=0.25,
                  mae=0.4, rmse=0.5, mape=12.0, epochs_trained=3,
                  wall_time_s=1.5, config_id="full")
    fields.update(overrides)
    return MetricsReport(**fields)


def test_equal_arrays_have_zero_metrics():
    x = np.random.default_rng(0).normal(size=(2, 3, 4))
    scores = compute_metrics(x, x)
    assert scores == {"mse": 0.0, "mae": 0.0, "rmse": 0.0, "mape": 0.0}


def test_hand_computed_point():
    scores = compute_metrics(np.array([[[90.0]]]), np.array([[[100.0]]]))
    assert scores["mae"] == 10.0
    assert scores["mse"] == 100.0
    assert scores["rmse"] == 10.0
    assert abs(scores["mape"] - 10.0) < 1e-6


def test_matches_double_loop_reference():
    rng = np.random.default_rng(1)
    for _ in range(20):
        shape = tuple(rng.integers(1, 5, size=3))
        pred = rng.normal(size=shape)
        target = rng.normal(size=shape)
        got = compute_metrics(pred, target)
        ref = double_loop_reference(pred, target)
        for key in ref:
            # relative above 1: huge MAPE values from near-zero targets carry
            # inherent summation-order noise beyond 1e-12 absolute
            assert abs(got[key] - ref[key]) < 1e-12 * max(1.0, abs(ref[key])), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_equals_plain_float64_formulas_exactly(dtype):
    # Reports must stay byte-identical: every metric equals, bit for bit, the
    # plain formula on float64 copies of the inputs, zero targets included.
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(5, 7, 11)).astype(dtype)
    target = rng.normal(size=(5, 7, 11)).astype(dtype)
    target[0, 0, :3] = 0.0
    p64, t64 = pred.astype(np.float64), target.astype(np.float64)
    err = t64 - p64
    mse = float(np.mean(err ** 2))
    want = {"mse": mse, "mae": float(np.mean(np.abs(err))), "rmse": float(np.sqrt(mse)),
            "mape": float(100.0 * np.mean(np.abs(err) / (np.abs(t64) + M.MAPE_EPS)))}
    assert compute_metrics(pred, target) == want


def plain_float64_metrics(pred, target):
    p64, t64 = pred.astype(np.float64), target.astype(np.float64)
    err = t64 - p64
    mse = float(np.mean(err ** 2))
    return {"mse": mse, "mae": float(np.mean(np.abs(err))), "rmse": float(np.sqrt(mse)),
            "mape": float(100.0 * np.mean(np.abs(err) / (np.abs(t64) + M.MAPE_EPS)))}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(M._LEAF,), (M._LEAF + 1,), (2 * M._LEAF + 8,),
                                   (5 * M._LEAF + 13,), (13, 41, 97)],
                         ids=["leaf", "leaf+1", "2leaf+8", "5leaf+13", "13x41x97"])
def test_leaf_sums_equal_plain_float64_formulas_exactly(shape, dtype):
    # The sums go leaf by leaf along numpy's own pairwise tree, so they are
    # bit-identical to one float64 reduction over every entry.
    rng = np.random.default_rng(sum(shape))
    pred = rng.normal(size=shape).astype(dtype)
    target = rng.normal(size=shape).astype(dtype)
    target.reshape(-1)[::89] = 0.0
    assert compute_metrics(pred, target) == plain_float64_metrics(pred, target)


def test_non_contiguous_inputs_sum_in_c_order():
    rng = np.random.default_rng(4)
    pred = rng.normal(size=(41, 97, 13)).astype(np.float32).transpose(2, 0, 1)
    target = rng.normal(size=(41, 97, 13)).astype(np.float32).transpose(2, 0, 1)
    want = plain_float64_metrics(np.ascontiguousarray(pred), np.ascontiguousarray(target))
    assert compute_metrics(pred, target) == want


def sliding_targets(n, v, h, dtype, seed=0):
    """[n, v, h] sliding windows over one [v, n + h - 1] series, as the
    dataset's window cache holds them: read-only, overlapping, not
    contiguous."""
    rows = np.random.default_rng(seed).normal(size=(v, n + h - 1)).astype(dtype)
    rows[:, ::89] = 0.0
    return sliding_window_view(rows, h, axis=1).swapaxes(0, 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v, h", [(7, 13), (8, M._LEAF // 8), (3, M._LEAF // 2 + 5)],
                         ids=["below-leaf", "leaf", "above-leaf"])
def test_sliding_window_targets_equal_plain_float64_formulas_exactly(v, h, dtype):
    # Windows of V*H entries below, equal to and above a leaf: leaves start
    # and end inside windows and inside window rows.
    n = 3 * M._LEAF // (v * h) + 3
    target = sliding_targets(n, v, h, dtype, seed=v)
    assert not target.flags.c_contiguous
    pred = np.random.default_rng(h).normal(size=target.shape).astype(dtype)
    want = plain_float64_metrics(pred, np.ascontiguousarray(target))
    assert compute_metrics(pred, target) == want
    assert compute_metrics(target, pred) == plain_float64_metrics(
        np.ascontiguousarray(target), pred)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_dimensional_strided_inputs_sum_in_order(dtype):
    rng = np.random.default_rng(6)
    pred = rng.normal(size=3 * (2 * M._LEAF + 5)).astype(dtype)[::3]
    target = rng.normal(size=pred.size).astype(dtype)
    want = plain_float64_metrics(np.ascontiguousarray(pred), target)
    assert compute_metrics(pred, target) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_broadcast_inputs_sum_in_c_order(dtype):
    rng = np.random.default_rng(7)
    target = np.broadcast_to(rng.normal(size=(1, 9, 1)).astype(dtype), (700, 9, 13))
    assert 0 in target.strides
    pred = rng.normal(size=target.shape).astype(dtype)
    want = plain_float64_metrics(pred, np.ascontiguousarray(target))
    assert compute_metrics(pred, target) == want


def test_metrics_allocate_no_full_size_float64_buffer():
    rng = np.random.default_rng(5)
    pred = rng.normal(size=(100, 100, 100)).astype(np.float32)
    contiguous = rng.normal(size=(100, 100, 100)).astype(np.float32)
    for target in (contiguous, sliding_targets(100, 100, 100, np.float32, seed=5)):
        tracemalloc.start()
        try:
            compute_metrics(pred, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Three float64 leaf buffers, against 4 MB for a float32 copy of a
        # 1M-entry input and 16 MB for two float64 copies.
        assert peak < 4 * M._LEAF * 8, peak


def test_metrics_keep_no_reference_to_their_inputs():
    # Nothing of a call may outlive it, not even until the garbage collector
    # runs: an evaluation loop would otherwise pile up [N, V, H] arrays.
    for make_target in (lambda: np.ones((4, 5, 6)),
                        lambda: sliding_targets(4, 5, 6, np.float64)):
        pred, target = np.zeros((4, 5, 6)), make_target()
        gc.disable()
        try:
            compute_metrics(pred, target)
            refs = [weakref.ref(pred), weakref.ref(target)]
            del pred, target
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


def test_rmse_squared_equals_mse():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pred = rng.normal(size=(3, 2, 5))
        target = rng.normal(size=(3, 2, 5))
        scores = compute_metrics(pred, target)
        assert abs(scores["rmse"] ** 2 - scores["mse"]) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mae_mse_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 3))
    ab = compute_metrics(a, b)
    ba = compute_metrics(b, a)
    assert ab["mae"] == ba["mae"]
    assert ab["mse"] == ba["mse"]


def test_zero_target_mape_is_finite():
    scores = compute_metrics(np.array([1.0]), np.array([0.0]))
    assert np.isfinite(scores["mape"])


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        compute_metrics(np.zeros((2, 2)), np.zeros((2, 3)))


def test_mean_rows_are_arithmetic_means():
    reports = [make_report(seed=s, mse=0.1 * (s + 1), mae=0.2 * (s + 1))
               for s in range(3)]
    rows = M.mean_rows(reports)
    assert len(rows) == 1
    assert rows[0]["seed"] == "mean"
    assert abs(rows[0]["mse"] - np.mean([0.1, 0.2, 0.3])) < 1e-12
    assert abs(rows[0]["mae"] - np.mean([0.2, 0.4, 0.6])) < 1e-12


def test_emitted_mean_rows_group_per_horizon(tmp_path):
    # Two horizons x two seeds give one mean row per horizon.
    reports = [make_report(horizon=h, seed=s, mse=0.01 * h + 0.1 * s)
               for h in (8, 4) for s in (2021, 2022)]
    M.emit_report(reports, tmp_path / "reports.jsonl")
    means = [r for r in M.parse_report(tmp_path / "reports.jsonl") if r["seed"] == "mean"]
    assert sorted(r["horizon"] for r in means) == [4, 8]
    for row in means:
        members = [r.mse for r in reports if r.horizon == row["horizon"]]
        assert abs(row["mse"] - np.mean(members)) < 1e-12


def test_emit_and_parse_roundtrip(tmp_path):
    reports = [make_report(seed=2021), make_report(seed=2022, mse=0.3)]
    path = tmp_path / "reports.jsonl"
    M.emit_report(reports, path)
    records = M.parse_report(path)
    per_seed = [r for r in records if r["seed"] != "mean"]
    assert len(per_seed) == 2
    for rec, rep in zip(per_seed, reports):
        # Same keys, values and key order as the report's fields.
        assert list(rec.items()) == list(asdict(rep).items())
    assert (tmp_path / "reports.txt").exists()


def test_emit_is_byte_deterministic(tmp_path):
    reports = [make_report(seed=2021), make_report(seed=2022, mape=3.25)]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    M.emit_report(reports, a)
    M.emit_report(reports, b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_emit_skips_plot_files_without_samples(tmp_path):
    M.emit_report([make_report()], tmp_path / "r.jsonl")
    assert (tmp_path / "r.jsonl").exists()
    assert not list(tmp_path.glob("*forecast*"))


def test_emit_writes_forecast_and_token_files(tmp_path):
    sample = {
        "history": np.zeros((2, 4)),
        "target": np.ones((2, 3)),
        "forecast": np.full((2, 3), 0.5),
    }
    M.write_forecast_columns(tmp_path / "r_forecast0.csv", **sample)
    M.write_series_columns(tmp_path / "r_token.csv", {"decoded_token": np.arange(3.0)})
    forecast = (tmp_path / "r_forecast0.csv").read_text().splitlines()
    assert forecast[0] == "t,variate,x,y,yhat"
    assert len(forecast) == 1 + 2 * (4 + 3)
    token = (tmp_path / "r_token.csv").read_text().splitlines()
    assert token[0] == "step,decoded_token"
    assert len(token) == 4


def test_emit_requires_reports(tmp_path):
    with pytest.raises(ValueError):
        M.emit_report([], tmp_path / "r.jsonl")


def test_metrics_need_at_least_one_entry():
    with pytest.raises(ShapeError, match="^metrics need at least one entry$"):
        M.compute_metrics(np.zeros((0, 3)), np.zeros((0, 3)))
