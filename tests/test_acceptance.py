"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 7 and 8 exercise the real hourly transformer-temperature benchmark
(ETTh1.csv) and skip with instructions when the file is not present; every
other criterion is self-contained.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from mixcast import cli, data as D, metrics as M, mixer, slstm
from mixcast import tensor as T, training
from mixcast.mixer import build_ablation_config, init_mixer_params
from mixcast.slstm import BlockConfig

import slstm_reference as slstm_ref
from conftest import require_etth1
from test_metrics import double_loop_reference
from test_mixer import entry_errors, expected_param_count
from test_slstm import run_sequence, unstabilized_reference
from test_training import make_affine_task, small_config


def announce(num, name, detail):
    print(f"\nACCEPTANCE #{num} {name}: PASS ({detail})")


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    errors = entry_errors(step=1e-5)
    elapsed = time.perf_counter() - started
    max_error, frac_below_1e6 = float(errors.max()), float(np.mean(errors < 1e-6))
    assert frac_below_1e6 >= 0.99, f"only {frac_below_1e6:.2%} < 1e-6"
    assert max_error < 1e-4, f"worst error {max_error:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(1, "gradient-correctness",
             f"{errors.size} params, max={max_error:.2e}, "
             f"frac<1e-6={frac_below_1e6:.2%}, {elapsed:.1f}s")


def test_criterion_2_stabilizer_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    max_preact = 0.0
    with T.precision(np.float64):
        for _ in range(100):
            p = slstm.init_slstm_params(4, 6, 2, rng)
            for name in ("w_z", "w_i", "w_f", "w_o", "r_z", "r_i", "r_f", "r_o"):
                getattr(p, name).data *= 2.5
            length = int(rng.integers(1, 33))
            xs = rng.uniform(-1, 1, size=(length, 4))
            got = run_sequence(p, xs)
            ref = unstabilized_reference(p, xs)
            worst = max(worst, float(np.abs(got - ref).max()))
            state = slstm_ref.zero_state(1, 6, dtype=np.float64)
            for x in xs:
                state, gates = slstm_ref.cell_step(p, x, state)
                max_preact = max(max_preact,
                                 float(np.abs(gates.i_tilde.data).max()),
                                 float(np.abs(gates.f_tilde.data).max()))
        assert worst < 1e-10, f"worst deviation {worst:.3e}"
        assert max_preact <= 5.0, f"pre-activations reached {max_preact:.2f}"

        p = slstm.init_slstm_params(3, 4, 1, rng)
        p.b_f.data[:] = 10.0
        xs = rng.uniform(-1, 1, size=(512, 3))
        stabilized = run_sequence(p, xs)
        assert np.isfinite(stabilized).all(), "stabilized path overflowed"
        with np.errstate(over="ignore", invalid="ignore"):
            reference = unstabilized_reference(p, xs)
        assert not np.isfinite(reference).all(), "oracle unexpectedly stayed finite"
    announce(2, "stabilizer-equivalence",
             f"100 trials worst={worst:.2e}, max |preact|={max_preact:.2f}, "
             f"512-step +10 bias diverges unstabilized only")


def test_criterion_3_revin_roundtrip():
    rng = np.random.default_rng(3)
    n = 1000
    with T.precision(np.float64):
        params = mixer.RevInParams(
            gamma=T.Tensor(rng.uniform(0.5, 2.0, size=(n, 1))),
            beta=T.Tensor(rng.uniform(-1.0, 1.0, size=(n, 1))),
        )
        x = rng.normal(0.0, rng.uniform(0.5, 3.0, size=(n, 1)), size=(n, 24))
        norm, stats = mixer.revin_normalize(params, x)
        back = mixer.revin_denormalize(params, stats, norm)
        assert back.shape == (1, n, 24)
        worst = float(np.abs(back.data[0] - x).max())
        assert worst < 1e-6, f"roundtrip error {worst:.3e}"

        const_params = mixer.RevInParams(
            gamma=T.Tensor(np.ones((1, 1))),
            beta=T.Tensor(np.zeros((1, 1))),
        )
        const_norm, _ = mixer.revin_normalize(const_params, np.full((1, 24), 5.0))
        assert np.isfinite(const_norm.data).all()
    announce(3, "revin-roundtrip",
             f"{n} series worst={worst:.2e}, constant series finite")


def test_criterion_4_ablation_wiring():
    base = small_config()
    matrix = {  # (mix_time, slstm_axis, init_token, mix_view)
        1: (True, "variates", True, True),
        2: (True, "time", True, True),
        3: (True, "variates", False, True),
        4: (True, "variates", True, False),
        5: (True, "variates", False, False),
        6: (True, "none", False, False),
        7: (False, "variates", True, True),
        8: (False, "variates", False, True),
        9: (False, "variates", True, False),
        10: (False, "variates", False, False),
    }
    for cid, switches in matrix.items():
        cfg = build_ablation_config(cid, base)
        got = (cfg.mix_time, cfg.slstm_axis, cfg.init_token, cfg.mix_view)
        assert got == switches, f"config #{cid}: {got} != {switches}"

    rng = np.random.default_rng(4)
    cfg6 = build_ablation_config(6, base)
    with T.precision(np.float64):
        params6 = init_mixer_params(cfg6, rng)
    x = rng.normal(0.0, 30.0, size=(3, base.lookback))
    mu = x.mean(axis=1, keepdims=True)
    y1 = mixer.forward_batch(params6, cfg6, x[None])
    y2 = mixer.forward_batch(params6, cfg6, (mu + 2.0 * (x - mu))[None])
    linearity = float(np.abs((y2.data - mu) - 2.0 * (y1.data - mu)).max())
    assert linearity < 1e-6, f"affine deviation {linearity:.3e}"

    for cid in matrix:
        cfg = build_ablation_config(cid, base)
        params = init_mixer_params(cfg, rng)
        got = mixer.count_parameters(params)
        want = expected_param_count(cfg)
        assert got == want, f"config #{cid}: {got} params, formula says {want}"
    announce(4, "ablation-wiring",
             f"switch matrix exact, #6 linearity dev={linearity:.2e}, "
             f"10/10 parameter counts match closed form")


def test_criterion_5_metric_oracle():
    # Tolerance is 1e-12, taken relative for values above 1: near-zero targets
    # push MAPE to ~1e5 where two float64 summation orders legitimately differ
    # by more than 1e-12 absolute.
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        shape = tuple(rng.integers(1, 5, size=3))
        pred = rng.normal(size=shape)
        target = rng.normal(size=shape)
        got = M.compute_metrics(pred, target)
        ref = double_loop_reference(pred, target)
        for key in ref:
            err = abs(got[key] - ref[key]) / max(1.0, abs(ref[key]))
            worst = max(worst, err)
        assert abs(got["rmse"] ** 2 - got["mse"]) < 1e-12
    assert worst < 1e-12, f"worst metric deviation {worst:.3e}"
    announce(5, "metric-oracle", f"100 arrays, worst deviation {worst:.2e}")


def test_criterion_6_windowing_and_splits():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(200):
        length = int(rng.integers(2, 300))
        lookback = int(rng.integers(1, 50))
        horizon = int(rng.integers(1, 50))
        values = np.zeros((length, 1))
        if length >= lookback + horizon:
            ds = D.window_iter(values, (0, length), lookback, horizon)
            assert len(ds) == length - lookback - horizon + 1
            checked += 1
        else:
            with pytest.raises(D.DataError):
                D.window_iter(values, (0, length), lookback, horizon)

    base = rng.normal(size=(100, 3))
    spec = D.chronological_split(100, "generic")
    raw_a = D.RawSeries(names=["a", "b", "c"], values=base,
                        timestamps=[str(i) for i in range(100)])
    perturbed = base.copy()
    perturbed[90] += 123.0
    raw_b = D.RawSeries(names=["a", "b", "c"], values=perturbed,
                        timestamps=[str(i) for i in range(100)])
    _, stats_a = D.standardize(raw_a, spec)
    _, stats_b = D.standardize(raw_b, spec)
    assert np.array_equal(stats_a.mean, stats_b.mean)
    assert np.array_equal(stats_a.std, stats_b.std)

    ett = D.chronological_split(17420, "etth")
    assert (ett.train_range[1], ett.val_range[1], ett.test_range[1]) == \
        (8640, 11520, 14400)
    announce(6, "windowing-and-splits",
             f"{checked} window counts verified, train stats bitwise "
             f"independent of test rows, ETT bounds 8640/11520/14400")


def _etth1_tiny_args(data_path, out_dir):
    return ["train", "--data", str(data_path), "--dataset", "etth",
            "--lookback", "48", "--horizon", "24", "--embed-dim", "16",
            "--blocks", "1", "--heads", "2", "--conv-width", "0",
            "--dropout", "0.1", "--batch", "64", "--lr", "0.001",
            "--warmup", "10", "--epochs", "2", "--patience", "10",
            "--seed", "2021", "--out", str(out_dir)]


def test_criterion_7_determinism_on_etth1(tmp_path):
    path = require_etth1()
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(_etth1_tiny_args(path, out1)) == 0
    assert cli.main(_etth1_tiny_args(path, out2)) == 0
    log1 = [json.loads(l) for l in (out1 / "loss_log.jsonl").read_text().splitlines()]
    log2 = [json.loads(l) for l in (out2 / "loss_log.jsonl").read_text().splitlines()]
    assert len(log1) == len(log2)
    worst = 0.0
    for a, b in zip(log1, log2):
        worst = max(worst, abs(a["train_mae"] - b["train_mae"]),
                    abs(a["val_mae"] - b["val_mae"]))
    assert worst < 1e-7, f"loss logs diverged by {worst:.3e}"
    r1 = (out1 / "report.jsonl").read_bytes()
    r2 = (out2 / "report.jsonl").read_bytes()
    assert r1 == r2, "reports are not byte-identical"
    announce(7, "determinism-on-etth1",
             f"loss logs agree within {max(worst, 1e-12):.1e}, reports byte-identical")


def test_criterion_8_desk_scale_etth1_quality(tmp_path):
    path = require_etth1()
    started = time.perf_counter()
    raw = D.load_csv(path)
    split = D.chronological_split(raw.length, "etth")
    series, _ = D.standardize(raw, split)
    lookback = horizon = 96
    train_ds = D.windows_for_split(series, split, "train", lookback, horizon)
    val_ds = D.windows_for_split(series, split, "val", lookback, horizon)
    test_ds = D.windows_for_split(series, split, "test", lookback, horizon)

    cfg = mixer.MixerConfig(
        lookback=lookback, horizon=horizon, num_variates=raw.num_variates,
        embed_dim=64, num_blocks=1,
        block=BlockConfig(d_hidden=64, num_heads=4, conv_width=0,
                          dropout_rate=0.1))
    params = init_mixer_params(cfg, np.random.default_rng(2021))
    train_cfg = training.TrainConfig(batch_size=32, lr_initial=1e-3,
                                     warmup_steps=10, max_epochs=15,
                                     patience=10, seed=2021)
    artifacts = training.fit(params, cfg, train_ds, val_ds, train_cfg,
                             tmp_path / "run")
    best, best_cfg, _ = mixer.load_checkpoint(artifacts.best_checkpoint)
    pred, target = training.predict_dataset(best, best_cfg, test_ds)
    scores = M.compute_metrics(pred, target)
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"run took {elapsed / 60:.1f} min"
    assert scores["mse"] <= 0.50, f"test MSE {scores['mse']:.3f} > 0.50"
    assert scores["mae"] <= 0.48, f"test MAE {scores['mae']:.3f} > 0.48"
    announce(8, "desk-scale-etth1",
             f"test MSE={scores['mse']:.3f} MAE={scores['mae']:.3f} "
             f"({artifacts.epochs_trained} epochs, {elapsed / 60:.1f} min)")


def test_criterion_9_synthetic_recoverability(tmp_path):
    train = make_affine_task(320)
    val = make_affine_task(64, data_seed=6)
    maes = {}
    for cid in ("6", "1"):
        cfg = small_config(cid)
        params = init_mixer_params(cfg, np.random.default_rng(1))
        train_cfg = training.TrainConfig(batch_size=32, lr_initial=3e-2,
                                         warmup_steps=5, max_epochs=20,
                                         patience=10 ** 9, seed=1)
        art = training.fit(params, cfg, train, val, train_cfg, tmp_path / cid)
        maes[cid] = art.log[-1]["train_mae"]
    assert maes["6"] < 0.02, f"config #6 train MAE {maes['6']:.4f}"
    assert maes["1"] <= 1.1 * maes["6"], \
        f"full model {maes['1']:.4f} vs linear {maes['6']:.4f}"
    announce(9, "synthetic-recoverability",
             f"200 steps: #6 MAE={maes['6']:.4f}, #1 MAE={maes['1']:.4f} "
             f"(ratio {maes['1'] / maes['6']:.3f})")


def lead_lag_series(seed, rows=2400, variates=8, lag=4, phi=0.9):
    """An AR(1) series u with coefficient phi, and variate v is u delayed by
    lag * v steps, so variate v - 1 leads variate v by lag steps; each
    variate standardized over the first 1600 rows, the training rows."""
    rng = np.random.default_rng(seed)
    span = lag * (variates - 1)
    noise = rng.standard_normal(rows + span)
    u = np.empty_like(noise)
    u[0] = noise[0]
    for t in range(1, u.size):
        u[t] = phi * u[t - 1] + noise[t]
    x = np.stack([u[span - lag * v:span - lag * v + rows] for v in range(variates)], axis=1)
    return (x - x[:1600].mean(axis=0)) / x[:1600].std(axis=0)


def lead_lag_val_mae(seed, config_id, tmp_path):
    """Final validation MAE of one 8-epoch fit of an ablation config on the
    lead-lag task: rows 0-1600 train, 1600-2400 validate."""
    values = lead_lag_series(seed)
    train = D.window_iter(values, (0, 1600), 32, 8)
    val = D.window_iter(values, (1600 - 32, 2400), 32, 8)
    base = mixer.MixerConfig(lookback=32, horizon=8, num_variates=8, embed_dim=32,
                             num_blocks=1, block=BlockConfig(d_hidden=32, num_heads=2))
    cfg = build_ablation_config(config_id, base)
    params = init_mixer_params(cfg, np.random.default_rng(seed))
    train_cfg = training.TrainConfig(batch_size=32, lr_initial=3e-3, max_epochs=8,
                                     patience=10 ** 9, seed=seed)
    art = training.fit(params, cfg, train, val, train_cfg, tmp_path / f"{seed}-{config_id}")
    return art.log[-1]["val_mae"]


# Config 1 over config 6 read 0.488-0.598 over seeds 0-19 (mean 0.536): the
# bound leaves a margin of three standard deviations above the largest.
LEAD_LAG_BOUND = 0.7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_stack_learns_what_crosses_variates(seed, tmp_path):
    # The only predictable part of each variate is its neighbour's past.
    # NLinear is one map shared by every variate, so config 6 (no stack)
    # cannot read it; the sLSTM stack over the variate axis can.
    full, linear = (lead_lag_val_mae(seed, cid, tmp_path) for cid in (1, 6))
    assert full < LEAD_LAG_BOUND * linear, \
        f"config 1 val MAE {full:.4f} vs config 6 {linear:.4f} (ratio {full / linear:.3f})"
    announce(10, "stack-earns-its-keep",
             f"seed {seed}: #1 val MAE={full:.4f}, #6 val MAE={linear:.4f} "
             f"(ratio {full / linear:.3f})")
